// Command-line helpers shared by the example programs: whole-string numeric
// parsing with a range check, and a main() wrapper that turns a library
// error into a message and exit status 1.
#pragma once

#include <charconv>
#include <cstddef>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace mrmc::examples {

/// The read counts the examples accept: far above any sample they build.
inline constexpr std::size_t kMaxReads = 100'000'000;

/// The whole of `value` as a number in [lo, hi], or nothing: a trailing
/// character, a sign an unsigned type cannot take, NaN or an out-of-range
/// value all read as nothing.
template <typename T>
std::optional<T> parse_in(const std::string& value, T lo, T hi) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end || !(out >= lo && out <= hi)) {
    return std::nullopt;
  }
  return out;
}

/// parse_in(value, lo, hi), or common::InvalidArgument naming the argument.
template <typename T>
T parse_arg(const std::string& name, const std::string& value, T lo, T hi) {
  if (const std::optional<T> parsed = parse_in(value, lo, hi)) return *parsed;
  std::ostringstream message;
  message << name << " must be a number in [" << lo << ", " << hi
          << "], got '" << value << "'";
  throw common::InvalidArgument(message.str());
}

/// `body()`'s exit status; a common::Error it throws (a bad argument, or
/// one the library rejects) prints "<program>: <what>" on stderr and exits
/// 1 instead of aborting.
template <typename Body>
int run_main(const char* program, Body&& body) {
  try {
    return body();
  } catch (const common::Error& error) {
    std::cerr << program << ": " << error.what() << "\n";
    return 1;
  }
}

}  // namespace mrmc::examples
