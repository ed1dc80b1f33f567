// Approximate serialized-size accounting used for shuffle-volume and disk
// I/O modeling, plus a stable key hash over the same recursive structure.
// Matches what a Hadoop Writable would roughly occupy.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/prng.hpp"

namespace mrmc::mr {

template <typename T>
double approx_bytes(const T& value);

/// Every variable-length container (string, vector) is charged one 8-byte
/// header on top of its elements — the u64 length prefix a Writable-style
/// encoding (and our own stable_hash_append) would carry.  One shared
/// constant so the string and vector branches can never drift apart again.
inline constexpr double kContainerHeaderBytes = 8.0;

namespace detail {

template <typename T>
struct is_pair : std::false_type {};
template <typename A, typename B>
struct is_pair<std::pair<A, B>> : std::true_type {};

template <typename T>
struct is_vector : std::false_type {};
template <typename T, typename A>
struct is_vector<std::vector<T, A>> : std::true_type {};

/// Types that model their own wire size (e.g. mr::BinaryBlock) expose it
/// via this member hook; approx_bytes dispatches to it.
template <typename T>
concept HasApproxSerializedBytes = requires(const T& value) {
  { value.approx_serialized_bytes() } -> std::convertible_to<double>;
};

}  // namespace detail

/// Size estimate: arithmetic types by sizeof, strings by length + header,
/// vectors and pairs recursively, self-describing types (BinaryBlock) by
/// their modelled wire size.  Unknown aggregates fall back to sizeof.
template <typename T>
double approx_bytes(const T& value) {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    (void)value;
    return static_cast<double>(sizeof(T));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return static_cast<double>(value.size()) + kContainerHeaderBytes;
  } else if constexpr (detail::is_pair<T>::value) {
    return approx_bytes(value.first) + approx_bytes(value.second);
  } else if constexpr (detail::is_vector<T>::value) {
    double total = kContainerHeaderBytes;
    for (const auto& element : value) total += approx_bytes(element);
    return total;
  } else if constexpr (detail::HasApproxSerializedBytes<T>) {
    return value.approx_serialized_bytes();
  } else {
    (void)value;
    return static_cast<double>(sizeof(T));
  }
}

/// Incremental FNV-1a over a byte stream.  Unlike std::hash, the result is
/// fully specified, so shuffle partition assignment (and everything derived
/// from it: JobStats, shuffle bytes, the simulated timeline) reproduces
/// across standard libraries and platforms of the same endianness.
class StableHasher {
 public:
  void write(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ static_cast<std::uint64_t>(bytes[i])) * kPrime;
    }
  }

  /// Finalize with a full-avalanche mix so the low bits (used by
  /// `hash % num_reducers`) are as good as the high ones.
  [[nodiscard]] std::uint64_t finish() const noexcept {
    return common::mix64(hash_);
  }

  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

/// Feeds `value` into `hasher` following the same recursion as approx_bytes:
/// arithmetic types as raw bytes, strings and vectors length-prefixed (so
/// ("ab","c") and ("a","bc") hash differently as pairs), pairs recursively.
template <typename T>
void stable_hash_append(StableHasher& hasher, const T& value) {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    hasher.write(&value, sizeof(T));
  } else if constexpr (std::is_same_v<T, std::string>) {
    const std::uint64_t size = value.size();
    hasher.write(&size, sizeof(size));
    hasher.write(value.data(), value.size());
  } else if constexpr (detail::is_pair<T>::value) {
    stable_hash_append(hasher, value.first);
    stable_hash_append(hasher, value.second);
  } else if constexpr (detail::is_vector<T>::value) {
    const std::uint64_t size = value.size();
    hasher.write(&size, sizeof(size));
    for (const auto& element : value) stable_hash_append(hasher, element);
  } else {
    hasher.write(&value, sizeof(T));
  }
}

/// Stable 64-bit hash of a key; the engine's default partitioner.
template <typename T>
[[nodiscard]] std::uint64_t stable_hash(const T& value) {
  StableHasher hasher;
  stable_hash_append(hasher, value);
  return hasher.finish();
}

}  // namespace mrmc::mr
