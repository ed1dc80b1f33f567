// Miniature Pig Latin data model: dynamically-typed tuples with atom,
// numeric-list and bag fields.  Relations are bags of tuples.  This is the
// substrate for the paper's Algorithm 3 script (see pig/script.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace mrmc::pig {

struct Tuple;
using Bag = std::vector<Tuple>;

/// Field types: chararray, long, double, numeric list (k-mer / minwise
/// arrays), double list (similarity rows), and nested bag (GROUP output).
using Value = std::variant<std::string, long, double, std::vector<long>,
                           std::vector<double>, Bag>;

struct Tuple {
  std::vector<Value> fields;

  Tuple() = default;
  explicit Tuple(std::vector<Value> f) : fields(std::move(f)) {}

  /// Field by field, bags recursively (DISTINCT's equality).
  friend bool operator==(const Tuple&, const Tuple&) = default;

  [[nodiscard]] std::size_t size() const noexcept { return fields.size(); }

  template <typename T>
  [[nodiscard]] const T& get(std::size_t i) const {
    return std::get<T>(fields.at(i));
  }
  template <typename T>
  [[nodiscard]] T& get(std::size_t i) {
    return std::get<T>(fields.at(i));
  }
};

using Relation = std::vector<Tuple>;

/// Strict weak order on field values, the one ORDER BY and GROUP BY use:
/// by field type (variant index) first, then strings, longs and doubles by
/// value (NaN after every other double); lists and bags compare equal.
bool value_less(const Value& a, const Value& b);

/// Render a tuple as tab-separated text (lists comma-joined, bags counted) —
/// the format STORE writes to SimDfs.
std::string to_text(const Tuple& tuple);

}  // namespace mrmc::pig
