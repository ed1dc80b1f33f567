#include "core/hierarchical.hpp"

#include <gtest/gtest.h>

#include <set>

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
