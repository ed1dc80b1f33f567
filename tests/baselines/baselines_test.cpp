// Behavioural tests shared across all seven comparator implementations,
// plus method-specific checks (seed filters, candidate ordering, phase
// structure).  The shared fixture builds two well-separated OTU groups of
// near-duplicate reads — every sane clustering method must (a) label every
// read, (b) keep the groups apart, and (c) keep near-duplicates together.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/kernels.hpp"
#include "core/minhash.hpp"

#include "baselines/cdhit_like.hpp"
#include "baselines/hclust_family.hpp"
#include "baselines/mc_lsh.hpp"
#include "baselines/metacluster_like.hpp"
#include "baselines/uclust_like.hpp"
#include "simdata/marker16s.hpp"

namespace mrmc::baselines {
namespace {

/// Two OTUs, `per_otu` reads each, tiny error rate: intra-OTU identity is
/// near 1, inter-OTU identity is low (variable-region reads).
simdata::LabeledReads two_otu_sample(std::size_t per_otu, std::uint64_t seed) {
  const auto genes = simdata::generate_16s_genes(2, {}, seed);
  simdata::AmpliconParams params;
  params.errors = simdata::ErrorModel::uniform(0.005);
  params.read_length = 80;
  params.length_jitter = 0.04;  // global-alignment methods punish length spread
  return simdata::amplicon_reads(genes, {1.0, 1.0},
                                 2 * per_otu, params, seed + 1);
}

using Runner = std::function<BaselineResult(std::span<const bio::FastaRecord>)>;

struct NamedRunner {
  std::string name;
  Runner run;
};

std::vector<NamedRunner> all_runners() {
  return {
      {"cdhit", [](auto reads) { return cdhit_cluster(reads, {.identity = 0.9}); }},
      {"uclust", [](auto reads) { return uclust_cluster(reads, {.identity = 0.9}); }},
      {"mclsh",
       [](auto reads) {
         return mclsh_cluster(reads, {.theta = 0.5, .kmer = 12, .num_hashes = 50,
                                      .bands = 10});
       }},
      {"esprit", [](auto reads) { return esprit_cluster(reads, {.identity = 0.9}); }},
      {"dotur", [](auto reads) { return dotur_cluster(reads, {.identity = 0.9}); }},
      {"mothur", [](auto reads) { return mothur_cluster(reads, {.identity = 0.9}); }},
      {"metacluster",
       [](auto reads) {
         return metacluster_cluster(reads, {.max_group = 8, .merge_distance = 0.12});
       }},
  };
}

TEST(AllBaselines, LabelEveryReadWithDenseLabels) {
  const auto sample = two_otu_sample(8, 100);
  for (const auto& [name, run] : all_runners()) {
    const BaselineResult result = run(sample.reads);
    ASSERT_EQ(result.labels.size(), sample.size()) << name;
    std::set<int> labels;
    for (const int label : result.labels) {
      EXPECT_GE(label, 0) << name;
      labels.insert(label);
    }
    EXPECT_EQ(labels.size(), result.num_clusters) << name;
    EXPECT_GE(result.wall_s, 0.0) << name;
  }
}

TEST(AllBaselines, EmptyInputYieldsEmptyResult) {
  const std::vector<bio::FastaRecord> empty;
  for (const auto& [name, run] : all_runners()) {
    const BaselineResult result = run(empty);
    EXPECT_TRUE(result.labels.empty()) << name;
    EXPECT_EQ(result.num_clusters, 0u) << name;
  }
}

TEST(AllBaselines, SeparateDistantOtus) {
  const auto sample = two_otu_sample(8, 200);
  for (const auto& [name, run] : all_runners()) {
    const BaselineResult result = run(sample.reads);
    // No cluster may span both OTUs.
    std::map<int, std::set<int>> otus_per_cluster;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      otus_per_cluster[result.labels[i]].insert(sample.labels[i]);
    }
    for (const auto& [cluster, otus] : otus_per_cluster) {
      EXPECT_EQ(otus.size(), 1u) << name << " cluster " << cluster;
    }
  }
}

TEST(AllBaselines, GroupNearDuplicates) {
  const auto sample = two_otu_sample(8, 300);
  for (const auto& [name, run] : all_runners()) {
    const BaselineResult result = run(sample.reads);
    // Near-duplicate reads must not explode into one cluster per read.
    EXPECT_LT(result.num_clusters, sample.size() / 2) << name;
    EXPECT_GE(result.num_clusters, 2u) << name;
  }
}

TEST(AllBaselines, DeterministicAcrossRuns) {
  const auto sample = two_otu_sample(6, 400);
  for (const auto& [name, run] : all_runners()) {
    EXPECT_EQ(run(sample.reads).labels, run(sample.reads).labels) << name;
  }
}

// ------------------------------------------------------------ method-specific

TEST(CdHit, IdenticalReadsShareOneCluster) {
  std::vector<bio::FastaRecord> reads(5, {"r", "r", "ACGTACGGTTAACCGGTTAA"});
  const BaselineResult result = cdhit_cluster(reads, {.identity = 0.95});
  EXPECT_EQ(result.num_clusters, 1u);
}

TEST(CdHit, LongestReadBecomesRepresentative) {
  // The longest read is processed first, so it anchors cluster 0 even when
  // it is not first in input order.
  std::vector<bio::FastaRecord> reads{
      {"short", "short", "ACGTACGT"},
      {"long", "long", "TTTTGGGGCCCCAAAATTTTGGGG"},
  };
  const BaselineResult result = cdhit_cluster(reads, {.identity = 0.95});
  EXPECT_EQ(result.labels[1], 0);  // long read anchors first cluster
  EXPECT_EQ(result.labels[0], 1);
}

TEST(CdHit, WordFilterPrunesAlignments) {
  const auto sample = two_otu_sample(10, 500);
  const BaselineResult result = cdhit_cluster(sample.reads, {.identity = 0.9});
  // The filter must skip at least some representative checks.
  EXPECT_LT(result.alignments, result.comparisons);
}

TEST(Uclust, InputOrderAnchorsFirstCluster) {
  const auto sample = two_otu_sample(5, 600);
  const BaselineResult result = uclust_cluster(sample.reads, {.identity = 0.9});
  EXPECT_EQ(result.labels[0], 0);
}

TEST(Uclust, MaxRejectsZeroMakesEverySequenceItsOwnCluster) {
  const auto sample = two_otu_sample(5, 700);
  UclustParams params;
  params.identity = 0.9;
  params.max_rejects = 0;
  // With no alignments allowed, nothing can ever be accepted.
  const BaselineResult result = uclust_cluster(sample.reads, params);
  EXPECT_EQ(result.num_clusters, sample.size());
  EXPECT_EQ(result.alignments, 0u);
}

TEST(McLsh, RejectsBandsNotDividingHashes) {
  const auto sample = two_otu_sample(3, 800);
  McLshParams params;
  params.num_hashes = 50;
  params.bands = 7;  // does not divide 50
  EXPECT_THROW(mclsh_cluster(sample.reads, params), common::InvalidArgument);
}

TEST(McLsh, BandCollisionsPruneComparisons) {
  const auto sample = two_otu_sample(10, 900);
  const BaselineResult result = mclsh_cluster(
      sample.reads, {.theta = 0.5, .kmer = 12, .num_hashes = 50, .bands = 10});
  // Verified candidates should be far fewer than all pairs.
  const std::size_t all_pairs = sample.size() * (sample.size() - 1) / 2;
  EXPECT_LT(result.comparisons, all_pairs);
}

/// MC-LSH's oracle: Algorithm 1 over the graph of the pairs of the same
/// buckets (pairs_from_buckets), weighted by the exact Jaccard of the pairs'
/// k-mer sets.
core::GreedyResult mclsh_graph_oracle(std::span<const bio::FastaRecord> reads,
                                      const McLshParams& params) {
  const core::MinHasher hasher(
      {params.kmer, params.num_hashes, false, params.seed});
  std::vector<std::vector<std::uint64_t>> features;
  std::vector<core::Sketch> signatures;
  for (const auto& read : reads) {
    features.push_back(bio::kmer_set(read.seq, {.k = params.kmer}));
    signatures.push_back(hasher.sketch_features(features.back()));
  }
  const auto buckets = core::candidates::lsh_buckets(
      core::kernels::SketchMatrix::from_sketches(signatures),
      core::candidates::validated_band_shape(params.num_hashes, params.bands),
      core::candidates::Params{}.seed);
  core::candidates::SparseSimilarityGraph graph;
  graph.num_vertices = reads.size();
  for (const auto& [a, b] :
       core::candidates::pairs_from_buckets(buckets, reads.size())) {
    graph.edges.push_back({a, b, bio::exact_jaccard(features[a], features[b])});
  }
  return core::greedy_cluster_graph(graph, {.theta = params.theta});
}

TEST(McLsh, MatchesTheGraphSweepOverTheSameBuckets) {
  // 3 %-error amplicon reads, and the same reads with every fifth one cut
  // below k (an empty k-mer set).
  const auto genes = simdata::generate_16s_genes(12, {}, 31);
  simdata::AmpliconParams amplicon;
  amplicon.errors = simdata::ErrorModel::uniform(0.03);
  amplicon.read_length = 100;
  const auto noisy = simdata::amplicon_reads(
      genes, std::vector<double>(genes.size(), 1.0), 240, amplicon, 32);
  std::vector<bio::FastaRecord> short_reads = noisy.reads;
  for (std::size_t i = 0; i < short_reads.size(); i += 5) {
    short_reads[i].seq.resize(i % 15);
  }
  for (const bool shortened : {false, true}) {
    const auto& reads = shortened ? short_reads : noisy.reads;
    for (const double theta : {0.3, 0.5}) {
      const McLshParams params{.theta = theta, .kmer = 15, .num_hashes = 50,
                               .bands = 10};
      const BaselineResult result = mclsh_cluster(reads, params);
      const core::GreedyResult oracle = mclsh_graph_oracle(reads, params);
      const std::string where = "theta=" + std::to_string(theta) +
                                " short=" + std::to_string(shortened);
      EXPECT_EQ(result.labels, oracle.labels) << where;
      EXPECT_EQ(result.num_clusters, oracle.num_clusters) << where;
      EXPECT_EQ(result.comparisons, oracle.comparisons) << where;
    }
  }
}

TEST(Esprit, FilterSkipsMostAlignments) {
  const auto sample = two_otu_sample(10, 1000);
  const BaselineResult esprit = esprit_cluster(sample.reads, {.identity = 0.9});
  const BaselineResult dotur = dotur_cluster(sample.reads, {.identity = 0.9});
  // DOTUR aligns every pair; ESPRIT only intra-OTU-ish pairs.
  EXPECT_LT(esprit.alignments, dotur.alignments);
  EXPECT_EQ(dotur.alignments, sample.size() * (sample.size() - 1) / 2);
}

TEST(DoturMothur, AgreeOnWellSeparatedData) {
  const auto sample = two_otu_sample(8, 1100);
  const BaselineResult dotur = dotur_cluster(sample.reads, {.identity = 0.9});
  const BaselineResult mothur = mothur_cluster(sample.reads, {.identity = 0.9});
  // Same core algorithm: cluster counts match on clean data.
  EXPECT_EQ(dotur.num_clusters, mothur.num_clusters);
}

TEST(MetaCluster, MergesCompositionallyIdenticalGroups) {
  // All reads from ONE gene: phase 1 splits into several groups, phase 2
  // must merge them back together.
  const auto genes = simdata::generate_16s_genes(1, {}, 42);
  simdata::AmpliconParams params;
  params.errors = simdata::ErrorModel::uniform(0.002);
  params.read_length = 80;
  const auto sample = simdata::amplicon_reads(genes, {1.0}, 40, params, 43);
  const BaselineResult result = metacluster_cluster(
      sample.reads, {.max_group = 8, .merge_distance = 0.2});
  EXPECT_LE(result.num_clusters, 3u);
}

TEST(MetaCluster, MaxGroupBoundsPhaseOne) {
  const auto sample = two_otu_sample(12, 1200);
  EXPECT_THROW(metacluster_cluster(sample.reads, {.max_group = 1}),
               common::InvalidArgument);
  const BaselineResult result =
      metacluster_cluster(sample.reads, {.max_group = 4});
  EXPECT_GE(result.num_clusters, 1u);
}

}  // namespace
}  // namespace mrmc::baselines
