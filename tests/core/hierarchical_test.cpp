#include "core/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"

namespace mrmc::core {
namespace {

/// A similarity matrix with `k` perfect blocks: within-block similarity
/// `intra`, between-block `inter`.
SimilarityMatrix block_matrix(std::size_t blocks, std::size_t per_block,
                              float intra, float inter) {
  const std::size_t n = blocks * per_block;
  SimilarityMatrix matrix(n, inter);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (i / per_block == j / per_block) matrix.set(i, j, intra);
    }
  }
  return matrix;
}

TEST(SimilarityMatrix, SetIsSymmetric) {
  SimilarityMatrix matrix(3);
  matrix.set(0, 2, 0.5F);
  EXPECT_FLOAT_EQ(matrix.at(0, 2), 0.5F);
  EXPECT_FLOAT_EQ(matrix.at(2, 0), 0.5F);
  EXPECT_EQ(matrix.row(0).size(), 3u);
}

TEST(PairwiseSimilarityMatrix, DiagonalIsOneAndSymmetric) {
  common::Xoshiro256 rng(1);
  std::vector<Sketch> sketches(6, Sketch(16));
  for (auto& sketch : sketches) {
    for (auto& v : sketch) v = rng.bounded(8);  // collisions likely
  }
  const auto matrix = pairwise_similarity_matrix(
      kernels::SketchMatrix::from_sketches(sketches),
      SketchEstimator::kComponentMatch, nullptr);
  ASSERT_EQ(matrix.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(matrix.at(i, i), 1.0F);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_FLOAT_EQ(matrix.at(i, j), matrix.at(j, i));
      EXPECT_GE(matrix.at(i, j), 0.0F);
      EXPECT_LE(matrix.at(i, j), 1.0F);
    }
  }
}

TEST(PairwiseSimilarityMatrix, ParallelMatchesSequential) {
  common::Xoshiro256 rng(2);
  kernels::SketchMatrix sketches(80, 16);
  for (std::size_t i = 0; i < sketches.rows(); ++i) {
    for (auto& v : sketches.row(i)) v = rng.bounded(4);
  }
  common::ThreadPool pool(3);
  const auto sequential = pairwise_similarity_matrix(
      sketches, SketchEstimator::kComponentMatch, nullptr);
  const auto parallel =
      pairwise_similarity_matrix(sketches, SketchEstimator::kComponentMatch, &pool);
  for (std::size_t i = 0; i < sketches.rows(); ++i) {
    for (std::size_t j = 0; j < sketches.rows(); ++j) {
      EXPECT_FLOAT_EQ(sequential.at(i, j), parallel.at(i, j));
    }
  }
}

// --------------------------------------------------------------- dendrogram

TEST(Agglomerate, ProducesNMinusOneMerges) {
  const auto matrix = block_matrix(2, 4, 0.9F, 0.1F);
  const Dendrogram dendrogram = agglomerate(matrix, Linkage::kAverage);
  EXPECT_EQ(dendrogram.num_leaves, 8u);
  EXPECT_EQ(dendrogram.merges.size(), 7u);
}

TEST(Agglomerate, TrivialInputs) {
  EXPECT_TRUE(agglomerate(SimilarityMatrix(0), Linkage::kSingle).merges.empty());
  EXPECT_TRUE(agglomerate(SimilarityMatrix(1), Linkage::kSingle).merges.empty());
}

TEST(Agglomerate, ChildrenPrecedeParents) {
  const auto matrix = block_matrix(3, 5, 0.8F, 0.2F);
  const Dendrogram dendrogram = agglomerate(matrix, Linkage::kComplete);
  const int n = static_cast<int>(dendrogram.num_leaves);
  for (std::size_t i = 0; i < dendrogram.merges.size(); ++i) {
    const auto& merge = dendrogram.merges[i];
    EXPECT_LT(merge.left, n + static_cast<int>(i));
    EXPECT_LT(merge.right, n + static_cast<int>(i));
    EXPECT_NE(merge.left, merge.right);
  }
}

TEST(Agglomerate, MergeSizesAccumulateToN) {
  const auto matrix = block_matrix(2, 6, 0.9F, 0.1F);
  const Dendrogram dendrogram = agglomerate(matrix, Linkage::kAverage);
  EXPECT_EQ(dendrogram.merges.back().size, 12u);
}

TEST(Agglomerate, BlocksMergeBeforeCrossBlockJoins) {
  const auto matrix = block_matrix(2, 4, 0.9F, 0.1F);
  for (const auto linkage :
       {Linkage::kSingle, Linkage::kAverage, Linkage::kComplete}) {
    const Dendrogram dendrogram = agglomerate(matrix, linkage);
    // First 6 merges happen at distance 0.1 (within blocks), last at 0.9.
    for (std::size_t i = 0; i + 1 < dendrogram.merges.size(); ++i) {
      EXPECT_NEAR(dendrogram.merges[i].distance, 0.1, 1e-6);
    }
    EXPECT_NEAR(dendrogram.merges.back().distance, 0.9, 1e-6);
  }
}

TEST(Agglomerate, LinkageOrderingSingleBelowComplete) {
  // On a noisy matrix, single-linkage merge heights <= complete-linkage
  // heights at the same merge count (single chains, complete is conservative).
  common::Xoshiro256 rng(3);
  const std::size_t n = 20;
  SimilarityMatrix matrix(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      matrix.set(i, j, static_cast<float>(rng.uniform()));
    }
  }
  const auto single = agglomerate(matrix, Linkage::kSingle);
  const auto complete = agglomerate(matrix, Linkage::kComplete);
  EXPECT_LE(single.merges.back().distance, complete.merges.back().distance);
}

// ------------------------------------------------------------------ oracle

/// The dense NN-chain `agglomerate` replaced: a full n×n double matrix, a
/// Lance-Williams row *and* column update per merge, and +inf fills for the
/// retired slot.  A tip whose first nearest neighbour is an earlier chain
/// element merges with the previous element, which attains the same minimum.
Dendrogram reference_agglomerate(const SimilarityMatrix& matrix, Linkage linkage) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = matrix.size();
  Dendrogram out{n, {}};
  if (n <= 1) return out;
  std::vector<double> dist(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dist[i * n + j] = i == j ? kInf : 1.0 - static_cast<double>(matrix.at(i, j));
    }
  }
  std::vector<std::size_t> size(n, 1);  // 0 marks a retired slot
  std::vector<int> node(n);
  std::iota(node.begin(), node.end(), 0);
  std::vector<std::size_t> chain;
  std::size_t start = 0;
  while (out.merges.size() < n - 1) {
    if (chain.empty()) {
      while (size[start] == 0) ++start;
      chain.push_back(start);
    }
    const std::size_t tip = chain.back();
    const double* row = dist.data() + tip * n;
    const auto nn = static_cast<std::size_t>(std::min_element(row, row + n) - row);
    if (std::find(chain.begin(), chain.end(), nn) == chain.end()) {
      chain.push_back(nn);
      continue;
    }
    const std::size_t prev = chain[chain.size() - 2];
    const std::size_t a = std::min(tip, prev);
    const std::size_t b = std::max(tip, prev);
    out.merges.push_back({node[a], node[b], row[prev], size[a] + size[b]});
    const auto size_a = static_cast<double>(size[a]);
    const auto size_b = static_cast<double>(size[b]);
    for (std::size_t k = 0; k < n; ++k) {
      if (size[k] == 0 || k == a || k == b) continue;
      const double dak = dist[a * n + k];
      const double dbk = dist[b * n + k];
      double updated = (size_a * dak + size_b * dbk) / (size_a + size_b);
      if (linkage == Linkage::kSingle) updated = std::min(dak, dbk);
      if (linkage == Linkage::kComplete) updated = std::max(dak, dbk);
      dist[a * n + k] = dist[k * n + a] = updated;
    }
    for (std::size_t k = 0; k < n; ++k) dist[b * n + k] = dist[k * n + b] = kInf;
    size[a] += size[b];
    size[b] = 0;
    node[a] = static_cast<int>(n + out.merges.size() - 1);
    chain.resize(chain.size() - 2);
  }
  return out;
}

/// n×n similarities drawn from Xoshiro256(n + levels): continuous when
/// `levels` is 0, else bounded(levels) / (levels - 1).  Row 1 duplicates
/// row 0 (similarity 1 between them).
SimilarityMatrix oracle_matrix(std::size_t n, std::uint64_t levels) {
  common::Xoshiro256 rng(n + levels);
  SimilarityMatrix matrix(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double value =
          levels == 0 ? rng.uniform()
                      : static_cast<double>(rng.bounded(levels)) /
                            static_cast<double>(levels - 1);
      matrix.set(i, j, static_cast<float>(value));
    }
  }
  if (n > 2) {
    for (std::size_t j = 2; j < n; ++j) matrix.set(1, j, matrix.at(0, j));
    matrix.set(0, 1, 1.0F);
  }
  return matrix;
}

void expect_same_merges(const Dendrogram& actual, const Dendrogram& expected,
                        const std::string& where) {
  ASSERT_EQ(actual.num_leaves, expected.num_leaves) << where;
  ASSERT_EQ(actual.merges.size(), expected.merges.size()) << where;
  for (std::size_t i = 0; i < expected.merges.size(); ++i) {
    const auto& got = actual.merges[i];
    const auto& want = expected.merges[i];
    ASSERT_EQ(got.left, want.left) << where << " merge " << i;
    ASSERT_EQ(got.right, want.right) << where << " merge " << i;
    ASSERT_EQ(got.size, want.size) << where << " merge " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.distance),
              std::bit_cast<std::uint64_t>(want.distance))
        << where << " merge " << i;
  }
}

TEST(Agglomerate, BitIdenticalToDenseReference) {
  // Sizes straddle the halving compactions (64 → 32 → ..., 65, 129, ...);
  // the quantised levels force heavy ties and tie cycles.
  for (const std::size_t n : {2, 3, 64, 65, 129, 300, 1500}) {
    for (const std::uint64_t levels : {0, 3, 11, 101}) {
      const auto matrix = oracle_matrix(n, levels);
      for (const auto linkage :
           {Linkage::kSingle, Linkage::kAverage, Linkage::kComplete}) {
        expect_same_merges(agglomerate(matrix, linkage),
                           reference_agglomerate(matrix, linkage),
                           "n=" + std::to_string(n) + " levels=" +
                               std::to_string(levels) + " " + linkage_name(linkage));
      }
    }
  }
}

TEST(Agglomerate, TieCycleMergesWithThePreviousChainElement) {
  // With similarities on a 0.01 grid the first-minimum neighbour of a chain
  // tip can be an earlier chain element rather than the previous one.  The
  // dendrogram must still be complete and well formed (the oracle test above
  // checks each merge against the reference's rule).
  const auto matrix = oracle_matrix(64, 101);
  const Dendrogram dendrogram = agglomerate(matrix, Linkage::kSingle);
  ASSERT_EQ(dendrogram.merges.size(), 63u);
  std::vector<int> used(127, 0);
  for (std::size_t i = 0; i < dendrogram.merges.size(); ++i) {
    const auto& merge = dendrogram.merges[i];
    ASSERT_LT(merge.left, 64 + static_cast<int>(i));
    ASSERT_LT(merge.right, 64 + static_cast<int>(i));
    EXPECT_EQ(++used[merge.left], 1);
    EXPECT_EQ(++used[merge.right], 1);
  }
  EXPECT_EQ(dendrogram.merges.back().size, 64u);
}

TEST(LinkageName, AllNamed) {
  EXPECT_STREQ(linkage_name(Linkage::kSingle), "single");
  EXPECT_STREQ(linkage_name(Linkage::kAverage), "average");
  EXPECT_STREQ(linkage_name(Linkage::kComplete), "complete");
}

// ---------------------------------------------------------------------- cut

TEST(CutDendrogram, ThetaOneSeparatesAll) {
  const auto matrix = block_matrix(2, 3, 0.9F, 0.1F);
  const auto dendrogram = agglomerate(matrix, Linkage::kAverage);
  const auto labels = cut_dendrogram(dendrogram, 1.0);
  EXPECT_EQ(count_clusters(labels), 6u);
}

TEST(CutDendrogram, ThetaZeroJoinsAll) {
  const auto matrix = block_matrix(2, 3, 0.9F, 0.1F);
  const auto dendrogram = agglomerate(matrix, Linkage::kAverage);
  const auto labels = cut_dendrogram(dendrogram, 0.0);
  EXPECT_EQ(count_clusters(labels), 1u);
}

TEST(CutDendrogram, MidThresholdRecoversBlocks) {
  const auto matrix = block_matrix(3, 4, 0.9F, 0.1F);
  const auto dendrogram = agglomerate(matrix, Linkage::kComplete);
  const auto labels = cut_dendrogram(dendrogram, 0.5);
  EXPECT_EQ(count_clusters(labels), 3u);
  for (std::size_t block = 0; block < 3; ++block) {
    for (std::size_t m = 1; m < 4; ++m) {
      EXPECT_EQ(labels[block * 4 + m], labels[block * 4]);
    }
  }
}

TEST(CutDendrogram, ClusterCountMonotoneInTheta) {
  common::Xoshiro256 rng(4);
  const std::size_t n = 30;
  SimilarityMatrix matrix(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      matrix.set(i, j, static_cast<float>(rng.uniform()));
    }
  }
  const auto dendrogram = agglomerate(matrix, Linkage::kAverage);
  std::size_t previous = 0;
  for (const double theta : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    const auto labels = cut_dendrogram(dendrogram, theta);
    EXPECT_GE(count_clusters(labels), previous) << theta;
    previous = count_clusters(labels);
  }
}

TEST(CutDendrogram, LabelsAreDenseAndOrderedByFirstAppearance) {
  const auto matrix = block_matrix(2, 3, 0.9F, 0.1F);
  const auto labels =
      cut_dendrogram(agglomerate(matrix, Linkage::kSingle), 0.5);
  EXPECT_EQ(labels[0], 0);  // first read anchors label 0
  const std::set<int> unique(labels.begin(), labels.end());
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), static_cast<int>(unique.size()) - 1);
}

TEST(CutDendrogram, ThetaOneKeepsTwentyThousandSingletons) {
  // Every merge is above the cutoff, so each leaf is its own cluster and
  // labels follow leaf order.
  constexpr std::size_t n = 20000;
  Dendrogram dendrogram{n, {}};
  dendrogram.merges.reserve(n - 1);
  dendrogram.merges.push_back({0, 1, 0.5, 2});
  for (std::size_t i = 2; i < n; ++i) {
    dendrogram.merges.push_back(
        {static_cast<int>(n + i - 2), static_cast<int>(i), 0.5, i + 1});
  }
  const auto labels = cut_dendrogram(dendrogram, 1.0);
  std::vector<int> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(labels, expected);
}

TEST(CutDendrogram, RejectsBadTheta) {
  const Dendrogram dendrogram{2, {}};
  EXPECT_THROW(cut_dendrogram(dendrogram, -0.5), common::InvalidArgument);
  EXPECT_THROW(cut_dendrogram(dendrogram, 1.5), common::InvalidArgument);
}

// ------------------------------------------------------ hierarchical_cluster

TEST(HierarchicalCluster, EndToEndRecoversFamilies) {
  common::Xoshiro256 rng(5);
  std::vector<Sketch> sketches;
  for (std::size_t f = 0; f < 3; ++f) {
    Sketch base(32);
    for (auto& v : base) v = rng();
    for (std::size_t m = 0; m < 7; ++m) {
      Sketch member = base;
      for (auto& v : member) {
        if (rng.chance(0.1)) v = rng();
      }
      sketches.push_back(std::move(member));
    }
  }
  const HierarchicalResult result =
      hierarchical_cluster(kernels::SketchMatrix::from_sketches(sketches),
                           {.theta = 0.5, .linkage = Linkage::kAverage});
  EXPECT_EQ(result.num_clusters, 3u);
  EXPECT_EQ(result.labels.size(), 21u);
  EXPECT_EQ(result.dendrogram.merges.size(), 20u);
}

TEST(HierarchicalCluster, EmptyInput) {
  const HierarchicalResult result =
      hierarchical_cluster(kernels::SketchMatrix{}, {});
  EXPECT_TRUE(result.labels.empty());
  EXPECT_EQ(result.num_clusters, 0u);
}

TEST(CountClusters, CountsDistinctLabels) {
  EXPECT_EQ(count_clusters(std::vector<int>{0, 1, 0, 2}), 3u);
  EXPECT_EQ(count_clusters(std::vector<int>{}), 0u);
  EXPECT_EQ(count_clusters(std::vector<int>{5, 5, 5}), 1u);
}

class LinkageSweep : public ::testing::TestWithParam<Linkage> {};

TEST_P(LinkageSweep, CutRespectsThetaSemantics) {
  const auto matrix = block_matrix(4, 5, 0.85F, 0.15F);
  const auto dendrogram = agglomerate(matrix, GetParam());
  EXPECT_EQ(count_clusters(cut_dendrogram(dendrogram, 0.5)), 4u);
  EXPECT_EQ(count_clusters(cut_dendrogram(dendrogram, 0.05)), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageSweep,
                         ::testing::Values(Linkage::kSingle, Linkage::kAverage,
                                           Linkage::kComplete));

}  // namespace
}  // namespace mrmc::core
