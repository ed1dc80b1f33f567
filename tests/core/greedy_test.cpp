#include "core/greedy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"

namespace mrmc::core {
namespace {

kernels::SketchMatrix table(const std::vector<Sketch>& sketches) {
  return kernels::SketchMatrix::from_sketches(sketches);
}

/// Sketches with known structure: each "family" shares a base sketch with a
/// controlled fraction of positions perturbed per member.
kernels::SketchMatrix family_sketches(std::size_t families, std::size_t per_family,
                                    std::size_t length, double noise,
                                    std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<Sketch> sketches;
  for (std::size_t f = 0; f < families; ++f) {
    Sketch base(length);
    for (auto& v : base) v = rng();
    for (std::size_t m = 0; m < per_family; ++m) {
      Sketch member = base;
      for (auto& v : member) {
        if (rng.chance(noise)) v = rng();
      }
      sketches.push_back(std::move(member));
    }
  }
  return table(sketches);
}

TEST(GreedyCluster, EmptyInput) {
  const GreedyResult result = greedy_cluster(kernels::SketchMatrix{}, {});
  EXPECT_TRUE(result.labels.empty());
  EXPECT_EQ(result.num_clusters, 0u);
}

TEST(GreedyCluster, SingleSequence) {
  const auto sketches = table({{1, 2, 3}});
  const GreedyResult result = greedy_cluster(sketches, {.theta = 0.9});
  EXPECT_EQ(result.labels, (std::vector<int>{0}));
  EXPECT_EQ(result.num_clusters, 1u);
  EXPECT_EQ(result.representatives, (std::vector<std::size_t>{0}));
}

TEST(GreedyCluster, ThetaZeroPutsEverythingTogether) {
  const auto sketches = family_sketches(4, 5, 32, 0.9, 1);
  const GreedyResult result = greedy_cluster(sketches, {.theta = 0.0});
  EXPECT_EQ(result.num_clusters, 1u);
  for (const int label : result.labels) EXPECT_EQ(label, 0);
}

TEST(GreedyCluster, ThetaOneGroupsOnlyIdenticalSketches) {
  const auto sketches = table({{1, 2, 3}, {1, 2, 3}, {4, 5, 6}, {1, 2, 3}});
  const GreedyResult result = greedy_cluster(sketches, {.theta = 1.0});
  EXPECT_EQ(result.num_clusters, 2u);
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_EQ(result.labels[0], result.labels[3]);
  EXPECT_NE(result.labels[0], result.labels[2]);
}

TEST(GreedyCluster, RecoverswellSeparatedFamilies) {
  const auto sketches = family_sketches(3, 10, 64, 0.05, 2);
  const GreedyResult result =
      greedy_cluster(sketches, {.theta = 0.5, .estimator = SketchEstimator::kComponentMatch});
  EXPECT_EQ(result.num_clusters, 3u);
  // Members of a family must share labels.
  for (std::size_t f = 0; f < 3; ++f) {
    for (std::size_t m = 1; m < 10; ++m) {
      EXPECT_EQ(result.labels[f * 10 + m], result.labels[f * 10]);
    }
  }
}

TEST(GreedyCluster, EverySequenceGetsALabel) {
  const auto sketches = family_sketches(5, 8, 32, 0.3, 3);
  const GreedyResult result = greedy_cluster(sketches, {.theta = 0.6});
  for (const int label : result.labels) EXPECT_GE(label, 0);
  const std::set<int> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), result.num_clusters);
  // Labels are dense 0..k-1.
  EXPECT_EQ(*labels.rbegin(), static_cast<int>(result.num_clusters) - 1);
}

TEST(GreedyCluster, FirstSequenceAnchorsFirstCluster) {
  const auto sketches = family_sketches(2, 4, 32, 0.05, 4);
  const GreedyResult result = greedy_cluster(sketches, {.theta = 0.5});
  EXPECT_EQ(result.labels[0], 0);
  EXPECT_EQ(result.representatives[0], 0u);
}

TEST(GreedyCluster, RepresentativesCarryTheirOwnLabel) {
  const auto sketches = family_sketches(4, 6, 32, 0.2, 5);
  const GreedyResult result = greedy_cluster(sketches, {.theta = 0.7});
  ASSERT_EQ(result.representatives.size(), result.num_clusters);
  for (std::size_t c = 0; c < result.num_clusters; ++c) {
    EXPECT_EQ(result.labels[result.representatives[c]], static_cast<int>(c));
  }
}

TEST(GreedyCluster, ComparisonsShrinkWithLooserThreshold) {
  const auto sketches = family_sketches(6, 10, 32, 0.25, 6);
  const auto strict = greedy_cluster(sketches, {.theta = 0.99});
  const auto loose = greedy_cluster(sketches, {.theta = 0.0});
  // Loose threshold absorbs everything in the first pass: N-1 comparisons.
  EXPECT_EQ(loose.comparisons, sketches.rows() - 1);
  EXPECT_GT(strict.comparisons, loose.comparisons);
}

TEST(GreedyCluster, ThresholdMonotonicity) {
  const auto sketches = family_sketches(4, 8, 64, 0.3, 7);
  std::size_t previous = 0;
  for (const double theta : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto result = greedy_cluster(
        sketches, {.theta = theta, .estimator = SketchEstimator::kComponentMatch});
    EXPECT_GE(result.num_clusters, previous) << theta;
    previous = result.num_clusters;
  }
}

TEST(GreedyCluster, EstimatorsCanDiffer) {
  const auto sketches = family_sketches(3, 6, 32, 0.4, 8);
  const auto set_based = greedy_cluster(
      sketches, {.theta = 0.5, .estimator = SketchEstimator::kSetBased});
  const auto component = greedy_cluster(
      sketches, {.theta = 0.5, .estimator = SketchEstimator::kComponentMatch});
  // Both are valid clusterings over the same data.
  EXPECT_EQ(set_based.labels.size(), component.labels.size());
}

TEST(GreedyCluster, RejectsBadTheta) {
  const auto sketches = table({{1}});
  EXPECT_THROW(greedy_cluster(sketches, {.theta = -0.1}), common::InvalidArgument);
  EXPECT_THROW(greedy_cluster(sketches, {.theta = 1.1}), common::InvalidArgument);
}

TEST(GreedyCluster, DeterministicAcrossCalls) {
  const auto sketches = family_sketches(4, 10, 32, 0.3, 9);
  const auto a = greedy_cluster(sketches, {.theta = 0.6});
  const auto b = greedy_cluster(sketches, {.theta = 0.6});
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.comparisons, b.comparisons);
}

// ---------------------------------------------------------- pooled passes

/// About 2 K sketches in shuffled order: four families of 150 near copies
/// and 1 400 unrelated sketches, so most passes open a singleton cluster
/// and a few absorb a large one.
kernels::SketchMatrix many_cluster_sketches() {
  common::Xoshiro256 rng(21);
  std::vector<Sketch> sketches;
  for (std::size_t f = 0; f < 4; ++f) {
    Sketch base(24);
    for (auto& v : base) v = rng();
    for (std::size_t m = 0; m < 150; ++m) {
      Sketch member = base;
      for (auto& v : member) {
        if (rng.chance(0.1)) v = rng();
      }
      sketches.push_back(std::move(member));
    }
  }
  for (std::size_t i = 0; i < 1400; ++i) {
    Sketch single(24);
    for (auto& v : single) v = rng.bounded(1'000'000);
    sketches.push_back(std::move(single));
  }
  for (std::size_t i = sketches.size() - 1; i > 0; --i) {
    std::swap(sketches[i], sketches[rng.bounded(i + 1)]);
  }
  return table(sketches);
}

/// Runs the sweep with no pool, checks pools of 1, 2 and 4 threads give the
/// same result, and returns it.
GreedyResult expect_pools_match_serial(const kernels::SketchMatrix& sketches,
                                       const GreedyParams& params) {
  GreedyResult serial = greedy_cluster(sketches, params);
  for (const std::size_t threads : {1, 2, 4}) {
    common::ThreadPool pool(threads);
    const GreedyResult pooled = greedy_cluster(sketches, params, &pool);
    EXPECT_EQ(pooled.labels, serial.labels) << "threads=" << threads;
    EXPECT_EQ(pooled.representatives, serial.representatives)
        << "threads=" << threads;
    EXPECT_EQ(pooled.comparisons, serial.comparisons) << "threads=" << threads;
    EXPECT_EQ(pooled.num_clusters, serial.num_clusters) << "threads=" << threads;
  }
  return serial;
}

TEST(GreedyCluster, PooledPassesMatchSerialOnManyClusters) {
  const auto sketches = many_cluster_sketches();
  for (const SketchEstimator estimator :
       {SketchEstimator::kSetBased, SketchEstimator::kComponentMatch}) {
    const GreedyResult serial =
        expect_pools_match_serial(sketches, {.theta = 0.5, .estimator = estimator});
    // 1 400 singleton passes; the families add only a few clusters.
    EXPECT_GT(serial.num_clusters, 1400u);
    EXPECT_LT(serial.num_clusters, 1450u);
  }
}

TEST(GreedyCluster, PooledPassesMatchSerialAtThetaBounds) {
  const auto sketches = many_cluster_sketches();
  for (const SketchEstimator estimator :
       {SketchEstimator::kSetBased, SketchEstimator::kComponentMatch}) {
    // θ = 0: the first pass absorbs everyone.
    const GreedyResult loose =
        expect_pools_match_serial(sketches, {.theta = 0.0, .estimator = estimator});
    EXPECT_EQ(loose.num_clusters, 1u);
    EXPECT_EQ(loose.comparisons, sketches.rows() - 1);
    // θ = 1: only equal sketches share a cluster, so nearly every pass
    // opens a singleton.
    expect_pools_match_serial(sketches, {.theta = 1.0, .estimator = estimator});
  }
}

}  // namespace
}  // namespace mrmc::core
