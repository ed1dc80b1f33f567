// core::LargeArray — the storage of the run's big arrays: the similarity
// matrix cells, the sketch matrix cells and the sorted sketch store.
//
// An array that spans at least one 2 MiB page is allocated at its exact
// size on a 2 MiB boundary, and the whole 2 MiB pages inside it are advised
// to the kernel as transparent huge pages (madvise MADV_HUGEPAGE).  Faulting
// a 251 MB similarity matrix in 2 MiB pages instead of 4 KiB ones cuts its
// first-touch cost by 40-60 % and its unmap to almost nothing (DESIGN.md
// §10).  The advice never reaches past the array, so it cannot
// raise RSS; where the kernel ignores it (THP mode `never`, no Linux) the
// array is an ordinary allocation.  Smaller arrays take the plain path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace mrmc::core {

/// The transparent huge page size.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// A byte range [begin, begin + bytes).
struct AdvisedRange {
  std::uintptr_t begin = 0;
  std::size_t bytes = 0;
  friend bool operator==(const AdvisedRange&, const AdvisedRange&) = default;
};

/// The whole huge pages inside [address, address + bytes): what the huge-page
/// advice covers, so no page it makes the kernel back lies outside the array.
/// Empty when no whole page fits.
[[nodiscard]] constexpr AdvisedRange huge_page_range(std::uintptr_t address,
                                                     std::size_t bytes) noexcept {
  constexpr std::uintptr_t kMask = ~std::uintptr_t{kHugePageBytes - 1};
  const std::uintptr_t first = (address + kHugePageBytes - 1) & kMask;
  const std::uintptr_t last = (address + bytes) & kMask;
  if (last <= first) return {};
  return {first, last - first};
}

namespace detail {

/// `bytes` of uninitialised storage (nullptr for 0): on a huge-page boundary
/// with its whole huge pages advised when bytes >= kHugePageBytes, else from
/// plain operator new.  Released by free_large with the same `bytes`.
[[nodiscard]] void* allocate_large(std::size_t bytes);
void free_large(void* block, std::size_t bytes) noexcept;

}  // namespace detail

/// A fixed-size array of trivially copyable T on the allocation rule above.
/// Copies are deep; a moved-from array is empty.
template <typename T>
class LargeArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "LargeArray copies its cells as bytes");

 public:
  LargeArray() = default;
  /// `size` cells, every one `fill`.
  explicit LargeArray(std::size_t size, T fill = T{})
      : LargeArray(for_overwrite(size)) {
    std::fill_n(data_, size_, fill);
  }
  /// `size` cells left uninitialised: for producers that write every cell,
  /// so the pages are first touched by the (pooled) writers, not a zero pass.
  [[nodiscard]] static LargeArray for_overwrite(std::size_t size) {
    if (size > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    LargeArray array;
    array.data_ = static_cast<T*>(detail::allocate_large(size * sizeof(T)));
    array.size_ = size;
    return array;
  }

  LargeArray(const LargeArray& other) : LargeArray(for_overwrite(other.size_)) {
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  LargeArray(LargeArray&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        data_(std::exchange(other.data_, nullptr)) {}
  LargeArray& operator=(LargeArray other) noexcept {
    std::swap(size_, other.size_);
    std::swap(data_, other.data_);
    return *this;
  }
  ~LargeArray() { detail::free_large(data_, size_ * sizeof(T)); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  friend bool operator==(const LargeArray& a, const LargeArray& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::size_t size_ = 0;
  T* data_ = nullptr;
};

}  // namespace mrmc::core
