// Allocation bounds of the dense hierarchical path: the similarity matrix is
// the one n² buffer from the similarity fill to the dendrogram.  The global
// operator new below counts every request at or above a threshold, which
// pins "no second n² buffer" without reading RSS.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "core/hierarchical.hpp"
#include "core/kernels.hpp"

namespace mrmc::core {
namespace {

std::atomic<std::size_t> large_threshold{SIZE_MAX};
std::atomic<std::size_t> large_requests{0};
std::atomic<std::size_t> largest_request{0};

void* counted_malloc(std::size_t size) noexcept {
  if (size >= large_threshold.load(std::memory_order_relaxed)) {
    large_requests.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = largest_request.load(std::memory_order_relaxed);
    while (size > seen && !largest_request.compare_exchange_weak(seen, size)) {
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace
}  // namespace mrmc::core

// Every unaligned form is replaced so that new and delete stay paired (an
// ASan build reports a mismatch otherwise).
void* operator new(std::size_t size) {
  if (void* block = mrmc::core::counted_malloc(size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return mrmc::core::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return mrmc::core::counted_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace mrmc::core {
namespace {

struct LargeRequests {
  std::size_t count = 0;
  std::size_t largest = 0;
};

/// The requests of `threshold` bytes or more that `body` makes.
template <typename Body>
LargeRequests large_requests_of(std::size_t threshold, Body&& body) {
  large_requests = 0;
  largest_request = 0;
  large_threshold = threshold;
  body();
  large_threshold = SIZE_MAX;
  return {large_requests.load(), largest_request.load()};
}

constexpr std::size_t kReads = 1000;
constexpr std::size_t kHalfSquare = kReads * kReads * sizeof(double) / 2;

kernels::SketchMatrix random_sketches() {
  common::Xoshiro256 rng(11);
  kernels::SketchMatrix sketches(kReads, 16);
  for (std::size_t i = 0; i < kReads; ++i) {
    for (auto& v : sketches.row(i)) v = rng.bounded(5);
  }
  return sketches;
}

TEST(MatrixAllocation, SimilarityFillRequestsOneSquareBlock) {
  const kernels::SketchMatrix sketches = random_sketches();
  common::ThreadPool pool(2);
  for (const SketchEstimator estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      SimilarityMatrix matrix;
      const LargeRequests seen = large_requests_of(kHalfSquare, [&] {
        matrix = pairwise_similarity_matrix(sketches, estimator, p);
      });
      EXPECT_EQ(seen.count, 1U) << "pooled=" << (p != nullptr);
      EXPECT_EQ(seen.largest, kReads * kReads * sizeof(double));
      EXPECT_EQ(matrix.size(), kReads);
    }
  }
}

TEST(MatrixAllocation, AgglomeratingAMovedMatrixRequestsNoLargeBlock) {
  const SimilarityMatrix matrix = pairwise_similarity_matrix(
      random_sketches(), SketchEstimator::kComponentMatch);
  common::ThreadPool pool(2);
  for (const Linkage linkage :
       {Linkage::kSingle, Linkage::kAverage, Linkage::kComplete}) {
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      SimilarityMatrix work = matrix;
      Dendrogram dendrogram;
      const LargeRequests seen = large_requests_of(kHalfSquare, [&] {
        dendrogram = agglomerate(std::move(work), linkage, p);
      });
      EXPECT_EQ(seen.count, 0U) << linkage_name(linkage) << " largest "
                                << seen.largest;
      EXPECT_EQ(work.size(), 0U);  // moved from: empty
      EXPECT_EQ(dendrogram.merges.size(), kReads - 1);
    }
  }
}

}  // namespace
}  // namespace mrmc::core
