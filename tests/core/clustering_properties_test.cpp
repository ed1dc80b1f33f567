// Cross-cutting clustering invariants, swept over seeds and modes:
// label validity, permutation behaviour, threshold extremes, and the
// relationship between the greedy and hierarchical partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/prng.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "eval/external_indices.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::core {
namespace {

kernels::SketchMatrix sample_sketches(std::uint64_t seed,
                                      std::size_t reads = 120) {
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S9"), {.reads = reads, .seed = seed});
  const MinHasher hasher(
      {.kmer = 5, .num_hashes = 64, .canonical = true, .seed = seed});
  std::vector<std::string_view> seqs;
  seqs.reserve(sample.size());
  for (const auto& read : sample.reads) seqs.emplace_back(read.seq);
  return hasher.sketch_matrix(seqs);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, LabelsAreAlwaysDenseAndComplete) {
  const auto sketches = sample_sketches(GetParam());
  for (const double theta : {0.3, 0.5, 0.7}) {
    const auto greedy = greedy_cluster(sketches, {.theta = theta});
    const auto hier = hierarchical_cluster(sketches, {.theta = theta});
    for (const auto& result : {greedy.labels, hier.labels}) {
      ASSERT_EQ(result.size(), sketches.rows());
      std::set<int> labels(result.begin(), result.end());
      EXPECT_EQ(*labels.begin(), 0);
      EXPECT_EQ(*labels.rbegin(), static_cast<int>(labels.size()) - 1);
    }
  }
}

TEST_P(SeedSweep, ThresholdExtremesBehave) {
  const auto sketches = sample_sketches(GetParam());
  EXPECT_EQ(greedy_cluster(sketches, {.theta = 0.0}).num_clusters, 1u);
  EXPECT_EQ(hierarchical_cluster(sketches, {.theta = 0.0}).num_clusters, 1u);
  // theta = 1: only sketch-identical reads merge; duplicates are unlikely
  // in 120 distinct reads, so (almost) every read is alone.
  EXPECT_GT(greedy_cluster(sketches, {.theta = 1.0}).num_clusters,
            sketches.rows() - 5);
}

TEST_P(SeedSweep, HierarchicalIsInvariantToInputPermutation) {
  const auto sketches = sample_sketches(GetParam(), 60);
  const auto baseline = hierarchical_cluster(sketches, {.theta = 0.5});

  // Permute, cluster, and compare partitions via ARI (labels renumber).
  std::vector<std::size_t> perm(sketches.rows());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  common::Xoshiro256 rng(GetParam() ^ 0xabcULL);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.bounded(i)]);
  }
  kernels::SketchMatrix permuted(sketches.rows(), sketches.cols());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    std::ranges::copy(sketches.row(perm[i]), permuted.row(i).begin());
  }
  const auto shuffled = hierarchical_cluster(permuted, {.theta = 0.5});

  // Map the shuffled labels back to original positions.
  std::vector<int> unshuffled(sketches.rows());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    unshuffled[perm[i]] = shuffled.labels[i];
  }
  // Tie-breaking in the NN-chain depends on index order, so borderline
  // reads can migrate between clusters under permutation; the partitions
  // must still agree strongly.
  EXPECT_GT(eval::adjusted_rand_index(baseline.labels, unshuffled), 0.75);
}

TEST_P(SeedSweep, GreedyPartitionIsCoarserOrComparableAtSameTheta) {
  // Component-match greedy joins anything theta-similar to a representative,
  // while the average-linkage cut demands cluster-level cohesion — greedy
  // clusters at the same theta are fewer or equal in count.
  const auto sketches = sample_sketches(GetParam());
  const double theta = 0.45;
  const auto greedy = greedy_cluster(
      sketches, {.theta = theta, .estimator = SketchEstimator::kComponentMatch});
  const auto hier = hierarchical_cluster(
      sketches, {.theta = theta + 0.05,
                 .estimator = SketchEstimator::kComponentMatch});
  EXPECT_LE(greedy.num_clusters, hier.num_clusters + sketches.rows() / 10);
}

TEST_P(SeedSweep, DendrogramHeightsWithinDistanceRange) {
  const auto sketches = sample_sketches(GetParam(), 50);
  const auto matrix = pairwise_similarity_matrix(
      sketches, SketchEstimator::kComponentMatch, nullptr);
  for (const auto linkage :
       {Linkage::kSingle, Linkage::kAverage, Linkage::kComplete}) {
    const auto dendrogram = agglomerate(matrix, linkage);
    for (const auto& merge : dendrogram.merges) {
      EXPECT_GE(merge.distance, -1e-9);
      EXPECT_LE(merge.distance, 1.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace mrmc::core
