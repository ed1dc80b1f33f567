#include "core/large_array.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "obs/metrics.hpp"

namespace mrmc::core::detail {

namespace {

constexpr std::align_val_t kHugePageAlign{kHugePageBytes};

/// Ask the kernel to back the whole huge pages inside the block with
/// transparent huge pages.  A refusal changes only the page size, so it is
/// ignored; what the kernel accepted is counted.
void advise_huge_pages(void* block, std::size_t bytes) noexcept {
#if defined(MADV_HUGEPAGE)
  const AdvisedRange range =
      huge_page_range(reinterpret_cast<std::uintptr_t>(block), bytes);
  if (range.bytes == 0) return;
  if (::madvise(reinterpret_cast<void*>(range.begin), range.bytes,
                MADV_HUGEPAGE) == 0) {
    static obs::Counter& advised =
        obs::Registry::global().counter("mem.huge_page_advised_bytes");
    advised.add(static_cast<long>(range.bytes));
  }
#else
  (void)block;
  (void)bytes;
#endif
}

}  // namespace

void* allocate_large(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes < kHugePageBytes) return ::operator new(bytes);
  void* const block = ::operator new(bytes, kHugePageAlign);
  advise_huge_pages(block, bytes);
  return block;
}

void free_large(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (bytes < kHugePageBytes) {
    ::operator delete(block, bytes);
  } else {
    ::operator delete(block, bytes, kHugePageAlign);
  }
}

}  // namespace mrmc::core::detail
