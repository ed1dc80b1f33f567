// core::LargeArray, the storage of the similarity matrix, the sketch matrix
// and the sorted sketch store, and the huge-page range its advice covers.
#include "core/large_array.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>

#include "obs/metrics.hpp"

namespace mrmc::core {
namespace {

constexpr std::size_t kPage = kHugePageBytes;

TEST(HugePageRange, AdvisesWholePagesInsideTheArrayOnly) {
  constexpr std::uintptr_t kAligned = 32 * kPage;
  EXPECT_EQ(huge_page_range(kAligned, 0), AdvisedRange{});
  EXPECT_EQ(huge_page_range(kAligned, 8), AdvisedRange{});
  EXPECT_EQ(huge_page_range(kAligned, kPage - 8), AdvisedRange{});
  EXPECT_EQ(huge_page_range(kAligned, kPage), (AdvisedRange{kAligned, kPage}));
  EXPECT_EQ(huge_page_range(kAligned, 5 * (kPage / 2) + 8),
            (AdvisedRange{kAligned, 2 * kPage}));
  // An unaligned start loses the partial page at each end.
  EXPECT_EQ(huge_page_range(kAligned + 8, 5 * (kPage / 2) + 8),
            (AdvisedRange{kAligned + kPage, kPage}));
  EXPECT_EQ(huge_page_range(kAligned + 8, kPage), AdvisedRange{});
}

TEST(HugePageRange, NeverAdvisesAnArrayUnderOnePage) {
  for (const std::uintptr_t offset : {std::uintptr_t{0}, std::uintptr_t{8},
                                      std::uintptr_t{4096}, kPage / 2,
                                      kPage - 8}) {
    for (const std::size_t bytes : {std::size_t{0}, std::size_t{8},
                                    kPage / 2, kPage - 8}) {
      const AdvisedRange range = huge_page_range(7 * kPage + offset, bytes);
      EXPECT_EQ(range.bytes, 0U) << offset << " + " << bytes;
    }
  }
}

TEST(LargeArray, HoldsExactlyItsSize) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{1000},
                                 kPage / 8, 5 * kPage / 16 + 1}) {
    const LargeArray<std::uint64_t> array(size);
    EXPECT_EQ(array.size(), size);
    EXPECT_EQ(array.empty(), size == 0);
    EXPECT_EQ(array.end() - array.begin(), static_cast<std::ptrdiff_t>(size));
    // Arrays spanning a huge page start on one; smaller ones take the
    // plain path.
    if (size * sizeof(std::uint64_t) >= kPage) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(array.data()) % kPage, 0U);
    }
  }
  EXPECT_EQ(LargeArray<double>().data(), nullptr);
}

TEST(LargeArray, FillWritesEveryCellAndForOverwriteLeavesThemToTheCaller) {
  const LargeArray<double> filled(kPage / 8 + 3, 0.25);
  for (const double cell : filled) EXPECT_EQ(cell, 0.25);
  EXPECT_EQ(LargeArray<int>(17)[16], 0);

  auto array = LargeArray<std::uint32_t>::for_overwrite(kPage / 4 + 5);
  ASSERT_EQ(array.size(), kPage / 4 + 5);
  for (std::size_t i = 0; i < array.size(); ++i) {
    array[i] = static_cast<std::uint32_t>(i);
  }
  EXPECT_EQ(array[kPage / 4 + 4], kPage / 4 + 4);
  EXPECT_TRUE(LargeArray<double>::for_overwrite(0).empty());
}

TEST(LargeArray, CopiesAreDeepAndMovesEmptyTheSource) {
  for (const std::size_t size : {std::size_t{10}, kPage / 8 + 1}) {
    LargeArray<std::uint64_t> original(size, 3);
    original[size - 1] = 9;

    LargeArray<std::uint64_t> copy = original;
    EXPECT_NE(copy.data(), original.data());
    EXPECT_EQ(copy, original);
    copy[0] = 4;
    EXPECT_EQ(original[0], 3U);
    EXPECT_NE(copy, original);

    copy = original;  // copy assignment
    EXPECT_EQ(copy, original);

    const std::uint64_t* const cells = original.data();
    LargeArray<std::uint64_t> moved = std::move(original);
    EXPECT_EQ(moved.data(), cells);
    EXPECT_EQ(moved.size(), size);
    EXPECT_TRUE(original.empty());  // moved from: empty
    EXPECT_EQ(original.data(), nullptr);

    LargeArray<std::uint64_t> target(2, 1);
    target = std::move(moved);
    EXPECT_EQ(target.data(), cells);
    EXPECT_EQ(target, copy);
  }
}

TEST(LargeArray, EqualityComparesSizeAndCells) {
  EXPECT_EQ(LargeArray<int>(), LargeArray<int>());
  EXPECT_EQ(LargeArray<int>(), LargeArray<int>(0, 5));
  EXPECT_EQ(LargeArray<int>(4, 5), LargeArray<int>(4, 5));
  EXPECT_NE(LargeArray<int>(4, 5), LargeArray<int>(5, 5));
  EXPECT_NE(LargeArray<int>(4, 5), LargeArray<int>(4, 6));
}

TEST(LargeArray, CountsOnlyTheHugePagesItAdvised) {
  obs::Counter& advised =
      obs::Registry::global().counter("mem.huge_page_advised_bytes");
  const long before = advised.value();
  { const LargeArray<char> small(kPage - 8); }
  EXPECT_EQ(advised.value(), before);
  { const LargeArray<char> large(5 * (kPage / 2) + 8); }
  // 2 MiB-aligned, so its two whole pages — unless the kernel refuses the
  // advice (no transparent huge pages), which is counted as nothing.
  const long added = advised.value() - before;
  EXPECT_TRUE(added == 0 || added == static_cast<long>(2 * kPage)) << added;
}

}  // namespace
}  // namespace mrmc::core
