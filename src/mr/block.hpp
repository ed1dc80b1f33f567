// mr::BinaryBlock — the columnar shuffle payload of the block jobs.
//
// Large jobs (sketch, similarity, verify) used to shuffle one
// vector<uint64_t> per record: an 8-byte header plus 8 bytes per component,
// per record, per hop.  A BinaryBlock instead carries one *split's* worth of
// fixed-width values as packed little-endian columns, so a map task emits a
// single value that the shuffle moves in memory.  Values sit column-major:
// cols × words_per_column() u64 words, where words_per_column() =
// ceil(rows · elem_bits / 64).  elem_bits ∈ {1, 2, 4, 8, 16, 32, 64} always
// divides 64, so a value never straddles a word boundary and get() is one
// word load + shift.
//
// The engine's byte accounting models a block on the wire as a 32-byte
// header (width, shape) plus its payload words; approx_bytes(BinaryBlock)
// reports exactly that (the member hook picked up by mr/bytes.hpp), so
// shuffle-byte counters and the pipeline doctor see the packed volume.  No
// block is ever serialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mr/bytes.hpp"

namespace mrmc::mr {

/// True for the packed widths the block format supports (divisors of 64, so
/// no value straddles a 64-bit word).
[[nodiscard]] constexpr bool valid_elem_bits(std::uint32_t bits) noexcept {
  return bits == 1 || bits == 2 || bits == 4 || bits == 8 || bits == 16 ||
         bits == 32 || bits == 64;
}

/// Smallest byte-multiple lane width holding every value in [0, max_value] —
/// what count-carrying blocks use to size their columns.
[[nodiscard]] constexpr std::uint32_t min_lane_bits(
    std::uint64_t max_value) noexcept {
  if (max_value <= 0xff) return 8;
  if (max_value <= 0xffff) return 16;
  if (max_value <= 0xffff'ffff) return 32;
  return 64;
}

class BinaryBlock {
 public:
  /// The modelled wire header (format tag, width, shape, checksum).
  static constexpr std::size_t kHeaderBytes = 32;

  BinaryBlock() = default;

  /// A zeroed rows × cols block of `elem_bits`-wide values.  Throws
  /// common::Error unless valid_elem_bits(elem_bits).
  BinaryBlock(std::uint32_t elem_bits, std::uint64_t rows, std::uint32_t cols);

  [[nodiscard]] std::uint32_t elem_bits() const noexcept { return elem_bits_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] std::size_t words_per_column() const noexcept { return wpc_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Pack `value` into (col, row).  The value is masked to elem_bits; callers
  /// that must not lose information should pre-check the width.
  void set(std::uint32_t col, std::uint64_t row, std::uint64_t value) noexcept {
    const std::uint32_t lanes = 64U / elem_bits_;
    const std::size_t word =
        static_cast<std::size_t>(col) * wpc_ + row / lanes;
    const std::uint32_t shift =
        static_cast<std::uint32_t>(row % lanes) * elem_bits_;
    const std::uint64_t mask = lane_mask();
    words_[word] = (words_[word] & ~(mask << shift)) |
                   ((value & mask) << shift);
  }

  [[nodiscard]] std::uint64_t get(std::uint32_t col,
                                  std::uint64_t row) const noexcept {
    const std::uint32_t lanes = 64U / elem_bits_;
    const std::size_t word =
        static_cast<std::size_t>(col) * wpc_ + row / lanes;
    const std::uint32_t shift =
        static_cast<std::uint32_t>(row % lanes) * elem_bits_;
    return (words_[word] >> shift) & lane_mask();
  }

  /// Modelled wire size, kHeaderBytes + 8 · words — the member hook
  /// mr/bytes.hpp dispatches to, so shuffle accounting sees the packed
  /// volume.
  [[nodiscard]] double approx_serialized_bytes() const noexcept {
    return static_cast<double>(kHeaderBytes) +
           static_cast<double>(words_.size()) * 8.0;
  }

  friend bool operator==(const BinaryBlock&, const BinaryBlock&) = default;

 private:
  [[nodiscard]] std::uint64_t lane_mask() const noexcept {
    return elem_bits_ >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << elem_bits_) - 1;
  }

  std::uint32_t elem_bits_ = 0;
  std::uint64_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::size_t wpc_ = 0;  ///< words per column = ceil(rows · elem_bits / 64)
  std::vector<std::uint64_t> words_;
};

}  // namespace mrmc::mr
