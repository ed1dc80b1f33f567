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
#include <filesystem>
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
#include "core/pipeline.hpp"

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

// A sorted sketch store is one rows × K × 8 B request.
constexpr std::size_t kRows = 2000;
constexpr std::size_t kHashes = 64;
constexpr std::size_t kStoreBytes = kRows * kHashes * sizeof(std::uint64_t);

/// `count` mutated copies of a few templates: a few clusters, so few greedy
/// passes.
std::vector<std::string> clustered_reads(std::size_t count) {
  common::Xoshiro256 rng(17);
  std::vector<std::string> templates(8);
  for (std::string& seq : templates) {
    for (int j = 0; j < 150; ++j) seq += "ACGT"[rng.bounded(4)];
  }
  std::vector<std::string> reads(count);
  for (std::size_t i = 0; i < count; ++i) {
    reads[i] = templates[i % templates.size()];
    for (int m = 0; m < 3; ++m) reads[i][rng.bounded(150)] = "ACGT"[rng.bounded(4)];
  }
  return reads;
}

TEST(MatrixAllocation, CertifiedSetBasedGreedyBuildsNoSortedStore) {
  // A greedy run over a slot-disjoint stamped k <= 6 table scores set-based
  // pairs from the table and makes no store request, on the table
  // sketch_matrix writes and on a copy the hasher certifies.  k = 7 (never
  // stamped) still sorts into one.
  const std::vector<std::string> reads = clustered_reads(kRows);
  std::array<std::string_view, kRows> seqs;
  std::ranges::copy(reads, seqs.begin());
  common::ThreadPool pool(2);
  for (const int k : {5, 7}) {
    const MinHasher hasher(
        {.kmer = k, .num_hashes = kHashes, .canonical = true, .seed = 9});
    const kernels::SketchMatrix sketches = hasher.sketch_matrix(seqs);
    EXPECT_EQ(sketches.slot_disjoint(), k <= 6);
    // The same cells in a table built outside the hasher: unstamped until
    // certified.
    kernels::SketchMatrix rejoined(kRows, kHashes);
    for (std::size_t i = 0; i < kRows; ++i) {
      std::ranges::copy(sketches.row(i), rejoined.row(i).begin());
    }
    const GreedyResult unstamped =
        greedy_cluster(rejoined, {0.3, SketchEstimator::kSetBased});
    hasher.certify(rejoined);
    const kernels::SketchMatrix& certified = rejoined;
    EXPECT_EQ(certified.slot_disjoint(), k <= 6);
    for (const kernels::SketchMatrix* table : {&sketches, &certified}) {
      for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
        GreedyResult result;
        const LargeRequests seen = large_requests_of(kStoreBytes, [&] {
          result = greedy_cluster(*table, {0.3, SketchEstimator::kSetBased}, p);
        });
        EXPECT_EQ(seen.count, k <= 6 ? 0U : 1U)
            << "k=" << k << " pooled=" << (p != nullptr) << " largest " << seen.largest;
        EXPECT_EQ(result.labels, unstamped.labels) << "k=" << k;
        EXPECT_EQ(result.comparisons, unstamped.comparisons) << "k=" << k;
      }
    }
  }
}

TEST(MatrixAllocation, PipelineSetBasedGreedyBuildsNoSortedStoreOnAnyPath) {
  // Every table the pipeline scores is stamped: the local stage's, the MR
  // rejoin's and the checkpoint decoder's.  The runs at k = 5 and k = 7
  // make the same large requests (table, checkpoint payloads) but for the
  // k = 7 run's store.  Twice the rows, so the store outgrows the k = 5
  // hasher's 1 MiB table-check set.
  constexpr std::size_t kPipelineRows = 2 * kRows;
  std::vector<bio::FastaRecord> reads;
  for (const std::string& seq : clustered_reads(kPipelineRows)) {
    reads.push_back({"r" + std::to_string(reads.size()), "", seq});
  }
  const std::string dir = ::testing::TempDir() + "/mrmc_alloc_checkpoint";
  const auto requests = [&](int k, const ExecutionOptions& exec) {
    PipelineParams params;
    params.minhash = {.kmer = k, .num_hashes = kHashes, .canonical = true, .seed = 9};
    params.mode = Mode::kGreedy;
    params.theta = 0.3;
    if (!exec.checkpoint_dir.empty()) {
      // Seed the directory, then keep the sketch stage's checkpoint (driver
      // sequence 0) only, so the measured run decodes the table.
      std::filesystem::remove_all(dir);
      (void)run_pipeline(reads, params, exec);
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().find(".0-") == std::string::npos) {
          std::filesystem::remove(entry.path());
        }
      }
    }
    PipelineResult result;
    const LargeRequests seen = large_requests_of(
        2 * kStoreBytes, [&] { result = run_pipeline(reads, params, exec); });
    EXPECT_EQ(result.labels.size(), kPipelineRows);
    return seen.count;
  };
  ExecutionOptions local;
  local.distributed = false;
  local.threads = 2;
  ExecutionOptions distributed;
  distributed.threads = 2;
  ExecutionOptions resumed = distributed;
  resumed.checkpoint_dir = dir;
  for (const auto& [name, exec] :
       {std::pair{"local", local}, std::pair{"distributed", distributed},
        std::pair{"sketch checkpoint hit", resumed}}) {
    EXPECT_EQ(requests(7, exec), requests(5, exec) + 1) << name;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mrmc::core
