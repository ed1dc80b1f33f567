// mr::BinaryBlock — packing, the pinned column layout, and the modelled
// wire size the byte accounting charges.
#include "mr/block.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mr/bytes.hpp"

namespace mrmc::mr {
namespace {

constexpr std::uint32_t kAllWidths[] = {1, 2, 4, 8, 16, 32, 64};

std::uint64_t lane_max(std::uint32_t bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

TEST(BinaryBlock, RoundTripsEveryWidth) {
  for (const std::uint32_t bits : kAllWidths) {
    BinaryBlock block(bits, 67, 3);  // 67 rows: never a whole number of words
    const std::uint64_t mask = lane_max(bits);
    for (std::uint32_t col = 0; col < block.cols(); ++col) {
      for (std::uint64_t row = 0; row < block.rows(); ++row) {
        block.set(col, row, (row * 2654435761u + col * 40503u) & mask);
      }
    }
    for (std::uint32_t col = 0; col < block.cols(); ++col) {
      for (std::uint64_t row = 0; row < block.rows(); ++row) {
        EXPECT_EQ(block.get(col, row), (row * 2654435761u + col * 40503u) & mask)
            << "bits=" << bits << " col=" << col << " row=" << row;
      }
    }
  }
}

TEST(BinaryBlock, SetMasksToLaneWidthAndLeavesNeighborsAlone) {
  BinaryBlock block(8, 16, 1);
  block.set(0, 3, 0xAB);
  block.set(0, 4, 0xFFFF);  // wider than a lane: masked to 0xFF
  block.set(0, 5, 0x01);
  EXPECT_EQ(block.get(0, 3), 0xABu);
  EXPECT_EQ(block.get(0, 4), 0xFFu);
  EXPECT_EQ(block.get(0, 5), 0x01u);
}

TEST(BinaryBlock, PinsColumnMajorLittleEndianLayout) {
  // 8-bit lanes: row r of column c lands in byte r of word c — the layout
  // contract downstream packed kernels rely on.
  BinaryBlock block(8, 8, 2);
  for (std::uint64_t row = 0; row < 8; ++row) {
    block.set(0, row, row + 1);
    block.set(1, row, 0x10 + row);
  }
  ASSERT_EQ(block.words_per_column(), 1u);
  EXPECT_EQ(block.words()[0], 0x0807060504030201ull);
  EXPECT_EQ(block.words()[1], 0x1716151413121110ull);
}

TEST(BinaryBlock, InvalidWidthThrows) {
  EXPECT_THROW(BinaryBlock(0, 4, 1), common::Error);
  EXPECT_THROW(BinaryBlock(3, 4, 1), common::Error);
  EXPECT_THROW(BinaryBlock(128, 4, 1), common::Error);
}

TEST(BinaryBlock, ApproxBytesIsExactWireSize) {
  // The byte-accounting hook charges exactly the modelled 32-byte header
  // plus 8 bytes per payload word, so shuffle-byte counters report the
  // packed volume.
  for (const std::uint32_t bits : kAllWidths) {
    const BinaryBlock block(bits, 100, 7);
    EXPECT_DOUBLE_EQ(approx_bytes(block),
                     32.0 + 8.0 * static_cast<double>(block.words().size()))
        << "bits=" << bits;
    EXPECT_EQ(block.words().size(), block.words_per_column() * 7) << "bits=" << bits;
  }
  // b=8 sketch columns: 100 rows × 7 cols in 8·ceil(100·8/64)·7 payload
  // bytes + 32 header = 8× less than the 64-bit payload would be.
  const BinaryBlock wide(64, 100, 7);
  const BinaryBlock narrow(8, 100, 7);
  EXPECT_DOUBLE_EQ(approx_bytes(wide), 32.0 + 100.0 * 8.0 * 7.0);
  EXPECT_DOUBLE_EQ(approx_bytes(narrow), 32.0 + 13.0 * 8.0 * 7.0);
}

TEST(BinaryBlock, MinLaneBitsCoversCountRanges) {
  EXPECT_EQ(min_lane_bits(0), 8u);
  EXPECT_EQ(min_lane_bits(255), 8u);
  EXPECT_EQ(min_lane_bits(256), 16u);
  EXPECT_EQ(min_lane_bits(65535), 16u);
  EXPECT_EQ(min_lane_bits(65536), 32u);
  EXPECT_EQ(min_lane_bits(0xFFFFFFFFull), 32u);
  EXPECT_EQ(min_lane_bits(0x100000000ull), 64u);
}

// ------------------------------------------------- approx_bytes header model
// Satellite of the binary-shuffle work: every container costs the SAME
// 8-byte length header (kContainerHeaderBytes), nested or not.

TEST(ApproxBytesHeaderModel, NestedShapesUseOneHeaderConstant) {
  EXPECT_DOUBLE_EQ(kContainerHeaderBytes, 8.0);
  // string: header + length
  EXPECT_DOUBLE_EQ(approx_bytes(std::string("abc")), 8.0 + 3.0);
  // vector<u64>: header + payload
  EXPECT_DOUBLE_EQ(approx_bytes(std::vector<std::uint64_t>{1, 2}), 8.0 + 16.0);
  // pair<string, vector<int>>: recursive, one header per container
  const std::pair<std::string, std::vector<int>> p{"ab", {1, 2, 3}};
  EXPECT_DOUBLE_EQ(approx_bytes(p), (8.0 + 2.0) + (8.0 + 12.0));
  // vector<vector<string>>: headers at every nesting level
  const std::vector<std::vector<std::string>> nested{{"a"}, {"bc", "d"}};
  EXPECT_DOUBLE_EQ(approx_bytes(nested),
                   8.0 + (8.0 + (8.0 + 1.0)) + (8.0 + (8.0 + 2.0) + (8.0 + 1.0)));
}

}  // namespace
}  // namespace mrmc::mr
