// Allocation bounds of the dense hierarchical path: the similarity matrix is
// the one n² buffer from the similarity fill to the dendrogram, and the
// sketch table is one rows×cols buffer.  The global operator new below counts
// every request at or above a threshold, aligned or not (core::LargeArray
// places arrays of 2 MiB and more on huge-page boundaries), which pins "no
// second buffer" without reading RSS.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/kernels.hpp"
#include "core/minhash.hpp"

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

void* counted_aligned_malloc(std::size_t size, std::align_val_t align) noexcept {
  if (size >= large_threshold.load(std::memory_order_relaxed)) {
    large_requests.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = largest_request.load(std::memory_order_relaxed);
    while (size > seen && !largest_request.compare_exchange_weak(seen, size)) {
    }
  }
  void* block = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  return posix_memalign(&block, alignment, size == 0 ? 1 : size) == 0 ? block
                                                                      : nullptr;
}

}  // namespace
}  // namespace mrmc::core

// Every form, unaligned and aligned, is replaced so that new and delete stay
// paired (an ASan build reports a mismatch otherwise).
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
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* block = mrmc::core::counted_aligned_malloc(size, align)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return mrmc::core::counted_aligned_malloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return mrmc::core::counted_aligned_malloc(size, align);
}
void operator delete(void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete[](void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t,
                       const std::nothrow_t&) noexcept {
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

TEST(MatrixAllocation, SketchMatrixRequestsOneBlock) {
  // 4096 × 64 × 8 B = 2 MiB: the huge-page path.
  constexpr std::size_t kRows = 4096;
  // The reads back to back in one string, viewed from a stack array (a
  // vector of views would be a second large request).  Some are shorter
  // than k: their rows are written too.
  common::Xoshiro256 rng(5);
  std::array<std::size_t, kRows + 1> ends{};
  std::string bases;
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 4 + rng.bounded(40); j > 0; --j) {
      bases += "ACGT"[rng.bounded(4)];
    }
    ends[i + 1] = bases.size();
  }
  std::array<std::string_view, kRows> seqs;
  for (std::size_t i = 0; i < kRows; ++i) {
    seqs[i] = std::string_view(bases).substr(ends[i], ends[i + 1] - ends[i]);
  }
  common::ThreadPool pool(2);
  for (const int k : {5, 9}) {
    const MinHasher hasher(
        {.kmer = k, .num_hashes = 64, .canonical = true, .seed = 3});
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      kernels::SketchMatrix sketches;
      const LargeRequests seen = large_requests_of(kRows * 64 * 4, [&] {
        sketches = hasher.sketch_matrix(seqs, p);
      });
      EXPECT_EQ(seen.count, 1U) << "k=" << k << " pooled=" << (p != nullptr);
      EXPECT_EQ(seen.largest, kRows * 64 * sizeof(std::uint64_t));
      ASSERT_EQ(sketches.rows(), kRows);
      for (std::size_t i = 0; i < kRows; ++i) {
        const Sketch expected = hasher.sketch(seqs[i]);
        ASSERT_TRUE(std::ranges::equal(sketches.row(i), expected)) << i;
      }
    }
  }
}

TEST(MatrixAllocation, CertifiedSetBasedGreedyBuildsNoSortedStore) {
  // A sorted sketch store is one rows × K × 8 B request; a certified k <= 6
  // run scores set-based pairs from the sketch table and makes none, while
  // k = 7 (never certified) still sorts into one.
  constexpr std::size_t kRows = 2000;
  constexpr std::size_t kHashes = 64;
  constexpr std::size_t kStoreBytes = kRows * kHashes * sizeof(std::uint64_t);
  // Mutated copies of a few templates: a few clusters, so few passes.
  common::Xoshiro256 rng(17);
  std::vector<std::string> templates(8);
  for (std::string& seq : templates) {
    for (int j = 0; j < 150; ++j) seq += "ACGT"[rng.bounded(4)];
  }
  std::vector<std::string> reads(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    reads[i] = templates[i % templates.size()];
    for (int m = 0; m < 3; ++m) reads[i][rng.bounded(150)] = "ACGT"[rng.bounded(4)];
  }
  std::array<std::string_view, kRows> seqs;
  std::ranges::copy(reads, seqs.begin());
  common::ThreadPool pool(2);
  for (const int k : {5, 7}) {
    const MinHasher hasher(
        {.kmer = k, .num_hashes = kHashes, .canonical = true, .seed = 9});
    EXPECT_EQ(hasher.slot_disjoint().holds(), k <= 6);
    const kernels::SketchMatrix sketches = hasher.sketch_matrix(seqs);
    const GreedyResult uncertified =
        greedy_cluster(sketches, {0.3, SketchEstimator::kSetBased});
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      GreedyResult result;
      const LargeRequests seen = large_requests_of(kStoreBytes, [&] {
        result = greedy_cluster(
            sketches, {0.3, SketchEstimator::kSetBased, hasher.slot_disjoint()}, p);
      });
      EXPECT_EQ(seen.count, k <= 6 ? 0U : 1U)
          << "k=" << k << " pooled=" << (p != nullptr) << " largest " << seen.largest;
      EXPECT_EQ(result.labels, uncertified.labels) << "k=" << k;
      EXPECT_EQ(result.comparisons, uncertified.comparisons) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace mrmc::core
