#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/incremental.hpp"
#include "core/kernels.hpp"
#include "core/otu_table.hpp"
#include "simdata/marker16s.hpp"

namespace mrmc::core {
namespace {

// --------------------------------------------------------------- OTU tables

TEST(OtuTable, SortedBySizeWithAbundance) {
  const std::vector<int> labels{0, 1, 1, 1, 2, 2};
  const kernels::SketchMatrix sketches(6, 8, 1);
  const auto table = build_otu_table(labels, sketches);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].label, 1);
  EXPECT_EQ(table[0].size, 3u);
  EXPECT_NEAR(table[0].abundance, 0.5, 1e-12);
  EXPECT_EQ(table[1].label, 2);
  EXPECT_EQ(table[2].label, 0);
}

TEST(OtuTable, MedoidIsTheCentralMember) {
  // Cluster of 3: members 0 and 2 each differ from member 1 in different
  // positions; member 1 is closest to both -> medoid.
  const auto sketches = kernels::SketchMatrix::from_sketches(
      std::vector<Sketch>{{1, 2, 3, 9}, {1, 2, 3, 4}, {1, 2, 8, 4}});
  const std::vector<int> labels{0, 0, 0};
  for (const SketchEstimator estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const auto table = build_otu_table(labels, sketches, estimator);
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table[0].representative, 1u);
  }
}

TEST(OtuTable, RejectsMismatchedInputs) {
  EXPECT_THROW(build_otu_table(std::vector<int>{0}, kernels::SketchMatrix{}),
               common::InvalidArgument);
  EXPECT_THROW(build_otu_table(std::vector<int>{-1}, kernels::SketchMatrix(1, 0)),
               common::InvalidArgument);
}

TEST(OtuTable, RepresentativeReadsAreNamedByClusterAndSize) {
  const std::vector<int> labels{0, 0, 1};
  const kernels::SketchMatrix sketches(3, 4, 7);
  const std::vector<bio::FastaRecord> reads{
      {"a", "a", "ACGT"}, {"b", "b", "ACGA"}, {"c", "c", "TTTT"}};
  const auto table = build_otu_table(labels, sketches);
  const auto reps = representative_reads(table, reads);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].id, "OTU0_size2");
  EXPECT_EQ(reps[1].id, "OTU1_size1");
  EXPECT_EQ(reps[1].seq, "TTTT");
}

TEST(OtuTable, TsvHasHeaderAndOneRowPerCluster) {
  const std::vector<int> labels{0, 1};
  const kernels::SketchMatrix sketches(2, 4, 7);
  const std::vector<bio::FastaRecord> reads{{"x", "x", "AC"}, {"y", "y", "GT"}};
  const auto tsv = otu_table_tsv(build_otu_table(labels, sketches), reads);
  EXPECT_NE(tsv.find("label\tsize"), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(tsv.begin(), tsv.end(), '\n')), 3);
}

// ------------------------------------------------------ incremental clustering

std::vector<std::string> otu_reads(std::size_t otus, std::size_t per_otu,
                                   std::uint64_t seed,
                                   double error_rate = 0.004) {
  const auto genes = simdata::generate_16s_genes(otus, {}, seed);
  simdata::AmpliconParams params;
  params.errors = simdata::ErrorModel::uniform(error_rate);
  params.read_length = 80;
  params.length_jitter = 0.05;
  const auto sample = simdata::amplicon_reads(
      genes, std::vector<double>(otus, 1.0), otus * per_otu, params, seed + 1);
  std::vector<std::string> seqs;
  for (const auto& read : sample.reads) seqs.push_back(read.seq);
  return seqs;
}

IncrementalClusterer make_clusterer() {
  return IncrementalClusterer({.kmer = 12, .num_hashes = 40, .seed = 2},
                              {.theta = 0.4,
                               .estimator = SketchEstimator::kComponentMatch},
                              20);
}

TEST(IncrementalClusterer, GrowsClustersAcrossBatches) {
  const auto batch1 = otu_reads(3, 5, 10);
  const auto batch2 = otu_reads(3, 5, 10);  // same OTUs, same seed genes

  auto clusterer = make_clusterer();
  clusterer.add_all(std::vector<std::string_view>(batch1.begin(), batch1.end()));
  const std::size_t after_first = clusterer.num_clusters();
  clusterer.add_all(std::vector<std::string_view>(batch2.begin(), batch2.end()));

  // Second batch reads (same gene pool) mostly join existing clusters.
  EXPECT_LE(clusterer.num_clusters(), after_first + 2);
  EXPECT_EQ(clusterer.num_reads(), batch1.size() + batch2.size());
}

TEST(IncrementalClusterer, SizesSumToReads) {
  const auto reads = otu_reads(4, 6, 11);
  auto clusterer = make_clusterer();
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto labels = clusterer.add_all(views);
  ASSERT_EQ(labels.size(), reads.size());

  std::size_t total = 0;
  for (const std::size_t size : clusterer.cluster_sizes()) total += size;
  EXPECT_EQ(total, reads.size());
}

TEST(IncrementalClusterer, MatchesBatchIndexedGreedy) {
  const auto reads = otu_reads(4, 6, 12);
  const MinHasher hasher({.kmer = 12, .num_hashes = 40, .seed = 2});
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  const GreedyParams greedy{.theta = 0.4,
                            .estimator = SketchEstimator::kComponentMatch};
  // Batch Algorithm 1 over the same banding's candidate graph.
  candidates::Params lsh;
  lsh.backend = candidates::Backend::kLshBanded;
  lsh.bands = 20;
  const auto batch = greedy_cluster_graph(
      candidates::build_graph(hasher.sketch_matrix(views), lsh, greedy.theta,
                              greedy.estimator),
      greedy);

  auto clusterer = make_clusterer();
  EXPECT_EQ(clusterer.add_all(views), batch.labels);
}

TEST(IncrementalClusterer, JoinsTheLowestMatchingRepresentativeLikeTheGraphSweep) {
  // At 3 % error a read often matches several representatives; Algorithm 1
  // joins the lowest one, so the index must offer candidates in id order.
  // Component-match on 40 seeds per θ, set-based on 10.
  for (const auto& [estimator, seeds] :
       {std::pair{SketchEstimator::kComponentMatch, 40},
        std::pair{SketchEstimator::kSetBased, 10}}) {
    for (const double theta : {0.3, 0.4, 0.5}) {
      for (int seed = 1; seed <= seeds; ++seed) {
        const auto reads = otu_reads(20, 30, seed, 0.03);
        const MinHasher hasher({.kmer = 12, .num_hashes = 40, .seed = 2});
        const std::vector<std::string_view> views(reads.begin(), reads.end());
        const GreedyParams greedy{.theta = theta, .estimator = estimator};
        candidates::Params lsh;
        lsh.backend = candidates::Backend::kLshBanded;
        lsh.bands = 20;
        const auto batch = greedy_cluster_graph(
            candidates::build_graph(hasher.sketch_matrix(views), lsh, theta,
                                    estimator),
            greedy);

        IncrementalClusterer clusterer(hasher.params(), greedy, lsh.bands);
        EXPECT_EQ(clusterer.add_all(views), batch.labels)
            << "theta=" << theta << " seed=" << seed
            << " set-based=" << (estimator == SketchEstimator::kSetBased);
      }
    }
  }
}

TEST(IncrementalClusterer, RepresentativeSketchAccessible) {
  auto clusterer = make_clusterer();
  const std::string read = otu_reads(1, 1, 13).front();
  const std::vector<std::string_view> batch{read};
  const int label = clusterer.add_all(batch).front();
  EXPECT_EQ(clusterer.representative_sketch(label).size(), 40u);
  EXPECT_THROW((void)clusterer.representative_sketch(99), common::InvalidArgument);
  EXPECT_TRUE(clusterer.add_all({}).empty());
}

TEST(IncrementalClusterer, BatchesAddUpToOneBucketSweep) {
  // Two batches through the clusterer give the labels of one
  // greedy_cluster_buckets run over the first batch followed by the
  // second, under both estimators and at several θ.  The sweep scores the
  // values; at k = 5 the clusterer holds codes.
  for (const int k : {12, 5}) {
    const MinHasher hasher({.kmer = k, .num_hashes = 40, .seed = 2});
    ASSERT_EQ(hasher.writes_codes(), k <= 6);
    const candidates::BandShape shape{20, 2};
    for (const auto estimator :
         {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
      for (const double theta : {0.3, 0.5, 0.8}) {
        for (const std::uint64_t seed : {3, 4}) {
          const auto reads = otu_reads(20, 30, seed, 0.03);
          const std::vector<std::string_view> views(reads.begin(), reads.end());
          const std::span<const std::string_view> all(views);
          const std::size_t cut = views.size() / 3;
          const GreedyParams greedy{.theta = theta, .estimator = estimator};
          const auto values = hasher.widen(hasher.sketch_matrix(views));
          const auto batch = greedy_cluster_buckets(
              values,
              candidates::lsh_buckets(values, shape, candidates::Params{}.seed),
              greedy);

          IncrementalClusterer clusterer(hasher.params(), greedy, shape.bands);
          std::vector<int> labels = clusterer.add_all(all.first(cut));
          const std::vector<int> second = clusterer.add_all(all.subspan(cut));
          labels.insert(labels.end(), second.begin(), second.end());
          const std::string where =
              "k=" + std::to_string(k) + " theta=" + std::to_string(theta) +
              " seed=" + std::to_string(seed) + " set-based=" +
              std::to_string(estimator == SketchEstimator::kSetBased);
          EXPECT_EQ(labels, batch.labels) << where;
          EXPECT_EQ(clusterer.num_clusters(), batch.num_clusters) << where;
          EXPECT_EQ(clusterer.num_reads(), reads.size()) << where;
          std::size_t total = 0;
          for (const std::size_t size : clusterer.cluster_sizes()) total += size;
          EXPECT_EQ(total, reads.size()) << where;
          for (std::size_t label = 0; label < batch.num_clusters; ++label) {
            const auto sketch =
                clusterer.representative_sketch(static_cast<int>(label));
            EXPECT_TRUE(std::ranges::equal(
                sketch, hasher.sketch(views[batch.representatives[label]])))
                << where << " label=" << label;
          }
        }
      }
    }
  }
}

TEST(IncrementalClusterer, RejectsThetaOutsideTheUnitInterval) {
  const MinHashParams hasher{.kmer = 12, .num_hashes = 40, .seed = 2};
  for (const double theta : {-0.1, 1.1}) {
    EXPECT_THROW((void)IncrementalClusterer(hasher, {.theta = theta}, 20),
                 common::InvalidArgument)
        << theta;
  }
  EXPECT_NO_THROW((void)IncrementalClusterer(hasher, {.theta = 0.0}, 20));
  EXPECT_NO_THROW((void)IncrementalClusterer(hasher, {.theta = 1.0}, 20));
  EXPECT_THROW((void)IncrementalClusterer(hasher, {.theta = 0.5}, 7),
               common::InvalidArgument);
}

}  // namespace
}  // namespace mrmc::core
