#include "mr/block.hpp"

#include "common/error.hpp"

namespace mrmc::mr {

BinaryBlock::BinaryBlock(std::uint32_t elem_bits, std::uint64_t rows,
                         std::uint32_t cols)
    : elem_bits_(elem_bits),
      rows_(rows),
      cols_(cols),
      wpc_(static_cast<std::size_t>((rows * elem_bits + 63) / 64)),
      words_(wpc_ * cols, 0) {
  MRMC_REQUIRE(valid_elem_bits(elem_bits),
               "BinaryBlock width must be one of 1/2/4/8/16/32/64 bits");
}

}  // namespace mrmc::mr
