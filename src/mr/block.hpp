// mr::BinaryBlock — the zero-copy binary columnar shuffle payload.
//
// Large jobs (sketch, similarity, verify) used to shuffle one
// vector<uint64_t> per record: an 8-byte header plus 8 bytes per component,
// per record, per hop.  A BinaryBlock instead carries one *split's* worth of
// fixed-width values as packed little-endian columns, so a map task emits a
// single value whose wire size is within one word of the information
// content.  The format is deliberately dumb:
//
//   header (32 bytes, little-endian):
//     u32 magic      'MRBB' (0x4242524d)
//     u32 version    1
//     u32 elem_bits  packed width ∈ {1, 2, 4, 8, 16, 32, 64}
//     u32 cols       number of columns
//     u64 rows       values per column
//     u64 checksum   FNV-1a over the five fields above + payload, mix64-final
//   payload:
//     cols × words_per_column() u64 words, column-major, where
//     words_per_column() = ceil(rows · elem_bits / 64).
//
// elem_bits always divides 64, so a value never straddles a word boundary:
// get() is one unaligned word load + shift, and a serialized block can be
// read in place (BinaryBlockView) without any decode pass.  Trailing pad
// bits of the last word of each column are zero, which keeps serialization
// deterministic.
//
// The engine's byte accounting understands the format natively:
// approx_bytes(BinaryBlock) is the *exact* wire size (header + payload; see
// the member hooks picked up by mr/bytes.hpp), so shuffle-byte counters and
// the pipeline doctor report the real packed volume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
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
  static constexpr std::uint32_t kMagic = 0x4242524Du;  ///< "MRBB" on disk
  static constexpr std::uint32_t kVersion = 1;
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

  [[nodiscard]] std::span<const std::uint64_t> column(
      std::uint32_t col) const noexcept {
    return {words_.data() + static_cast<std::size_t>(col) * wpc_, wpc_};
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

  /// Exact wire size of serialize()'s output — the member hook mr/bytes.hpp
  /// dispatches to, so shuffle accounting sees the true packed volume.
  [[nodiscard]] double approx_serialized_bytes() const noexcept {
    return static_cast<double>(kHeaderBytes) +
           static_cast<double>(words_.size()) * 8.0;
  }

  /// Member hook for mr::stable_hash_append: shape then payload words, so
  /// blocks of different geometry never collide trivially.
  void stable_hash_into(StableHasher& hasher) const noexcept {
    const std::uint64_t shape[3] = {static_cast<std::uint64_t>(elem_bits_),
                                    rows_, static_cast<std::uint64_t>(cols_)};
    hasher.write(shape, sizeof(shape));
    hasher.write(words_.data(), words_.size() * sizeof(std::uint64_t));
  }

  /// The header checksum: FNV-1a over (magic, version, elem_bits, cols,
  /// rows) plus the payload words, mix64-finalized.
  [[nodiscard]] std::uint64_t checksum() const noexcept;

  /// Little-endian wire encoding (header + payload) per the format comment.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Parse + validate a serialized block (magic, version, width, geometry,
  /// checksum); throws common::Error on any mismatch.
  static BinaryBlock deserialize(std::span<const std::uint8_t> bytes);

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

/// Zero-copy read-only view over a serialized block: validates the header
/// and checksum once at construction, then get() reads straight out of the
/// caller's buffer with unaligned word loads — no copy, no decode pass.
/// The buffer must outlive the view.
class BinaryBlockView {
 public:
  explicit BinaryBlockView(std::span<const std::uint8_t> bytes);

  [[nodiscard]] std::uint32_t elem_bits() const noexcept { return elem_bits_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t words_per_column() const noexcept { return wpc_; }

  [[nodiscard]] std::uint64_t get(std::uint32_t col,
                                  std::uint64_t row) const noexcept {
    const std::uint32_t lanes = 64U / elem_bits_;
    const std::size_t word =
        static_cast<std::size_t>(col) * wpc_ + row / lanes;
    const std::uint32_t shift =
        static_cast<std::uint32_t>(row % lanes) * elem_bits_;
    std::uint64_t w = 0;  // unaligned load: the buffer has no alignment
    std::memcpy(&w, payload_ + word * sizeof(std::uint64_t), sizeof(w));
    const std::uint64_t mask = elem_bits_ >= 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << elem_bits_) - 1;
    return (w >> shift) & mask;
  }

 private:
  const std::uint8_t* payload_ = nullptr;
  std::uint32_t elem_bits_ = 0;
  std::uint64_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::size_t wpc_ = 0;
};

}  // namespace mrmc::mr
