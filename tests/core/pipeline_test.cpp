#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "eval/external_indices.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::core {
namespace {

simdata::LabeledReads small_sample() {
  return simdata::build_whole_metagenome(simdata::whole_metagenome_spec("S8"),
                                         {.reads = 80, .seed = 1});
}

PipelineParams base_params(Mode mode) {
  PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 64, .canonical = true, .seed = 1};
  params.mode = mode;
  params.theta = mode == Mode::kGreedy ? 0.34 : 0.5;
  return params;
}

TEST(Pipeline, ModeNames) {
  EXPECT_STREQ(mode_name(Mode::kGreedy), "greedy");
  EXPECT_STREQ(mode_name(Mode::kHierarchical), "hierarchical");
}

TEST(Pipeline, EmptyInput) {
  const PipelineResult result = run_pipeline({}, base_params(Mode::kGreedy));
  EXPECT_TRUE(result.labels.empty());
  EXPECT_EQ(result.num_clusters, 0u);
}

/// The set-based labels of `params` computed outside the pipeline on an
/// unstamped copy of the hasher's table: every pair is scored through a
/// SortedSketchStore.
std::vector<int> store_scored_labels(std::span<const bio::FastaRecord> reads,
                                     const PipelineParams& params) {
  std::vector<std::string_view> seqs;
  for (const auto& read : reads) seqs.emplace_back(read.seq);
  const auto stamped = MinHasher(params.minhash).sketch_matrix(seqs);
  kernels::SketchMatrix sketches(stamped.rows(), stamped.cols());
  for (std::size_t i = 0; i < stamped.rows(); ++i) {
    std::ranges::copy(stamped.row(i), sketches.row(i).begin());
  }
  const bool exact = params.candidates.backend == candidates::Backend::kExactAllPairs;
  if (params.mode == Mode::kGreedy && exact) {
    return greedy_cluster(sketches, {params.theta, SketchEstimator::kSetBased})
        .labels;
  }
  const auto graph = candidates::build_graph(sketches, params.candidates,
                                             params.theta,
                                             SketchEstimator::kSetBased);
  if (params.mode == Mode::kGreedy) {
    return greedy_cluster_graph(graph, {params.theta}).labels;
  }
  return cut_dendrogram(
      agglomerate(similarity_matrix_from_graph(graph), params.linkage),
      params.theta);
}

/// Distributed runs on `nodes` simulated nodes and local runs, each on a
/// pool of 0 (the shared pool), 1 and 3 threads, give the labels of a local
/// run on the shared pool, under both estimators and both candidate
/// backends.  Set-based runs, which score from the table's slot-disjoint
/// stamp, also give the store-scored labels.  A 1-thread pool runs the cluster
/// reducer's nested parallel loops on the reducer's own worker.
void expect_distributed_matches_local(Mode mode, std::size_t nodes) {
  const auto sample = small_sample();
  for (const auto backend : {candidates::Backend::kExactAllPairs,
                             candidates::Backend::kLshBanded}) {
    for (const auto estimator :
         {SketchEstimator::kSetBased, SketchEstimator::kComponentMatch}) {
      auto params = base_params(mode);
      params.candidates.backend = backend;
      (mode == Mode::kGreedy ? params.greedy_estimator : params.estimator) =
          estimator;
      ExecutionOptions local;
      local.distributed = false;
      const auto reference = run_pipeline(sample.reads, params, local);
      const std::string run = std::string(mode_name(mode)) + " " +
                              candidates::backend_name(backend) + " estimator " +
                              std::to_string(static_cast<int>(estimator));
      if (estimator == SketchEstimator::kSetBased) {
        EXPECT_EQ(reference.labels, store_scored_labels(sample.reads, params))
            << run;
      }
      for (const std::size_t threads : {0, 1, 3}) {
        ExecutionOptions distributed;
        distributed.cluster.nodes = nodes;
        distributed.threads = threads;
        local.threads = threads;
        const std::string where = run + " threads " + std::to_string(threads);
        const auto a = run_pipeline(sample.reads, params, distributed);
        EXPECT_EQ(a.labels, reference.labels) << where;
        EXPECT_EQ(a.num_clusters, reference.num_clusters) << where;
        EXPECT_EQ(run_pipeline(sample.reads, params, local).labels,
                  reference.labels)
            << where;
      }
    }
  }
}

TEST(Pipeline, DistributedGreedyMatchesLocal) {
  expect_distributed_matches_local(Mode::kGreedy, 4);
}

TEST(Pipeline, DistributedHierarchicalMatchesLocal) {
  expect_distributed_matches_local(Mode::kHierarchical, 3);
}

/// The paths to a k = 5 set-based scorer: the local sketch stage's stamped
/// table, the MR rejoin's and the checkpoint decoder's (both stamped by
/// MinHasher::certify).  Every run gives the store-scored labels.
TEST(Pipeline, StampedSetBasedRunsMatchFreshAndAfterACheckpointHit) {
  const auto sample = small_sample();
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    auto params = base_params(mode);
    params.estimator = SketchEstimator::kSetBased;
    const std::string name = mode_name(mode);
    const auto reference = store_scored_labels(sample.reads, params);
    ExecutionOptions local;
    local.distributed = false;
    EXPECT_EQ(run_pipeline(sample.reads, params, local).labels, reference) << name;

    const std::string dir =
        ::testing::TempDir() + "/mrmc_stamped_checkpoint_" + name;
    std::filesystem::remove_all(dir);
    ExecutionOptions distributed;
    distributed.cluster.nodes = 3;
    distributed.checkpoint_dir = dir;
    const auto fresh = run_pipeline(sample.reads, params, distributed);
    EXPECT_EQ(fresh.labels, reference) << name;
    EXPECT_EQ(fresh.recovery.checkpoint_hits, 0U) << name;

    // Keep the sketch stage's checkpoint (driver sequence 0) only: the rerun
    // decodes the table and scores every later stage from it.
    std::size_t removed = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string file = entry.path().filename().string();
      if (entry.path().extension() == ".ckpt" &&
          file.find(".0-") == std::string::npos) {
        std::filesystem::remove(entry.path());
        ++removed;
      }
    }
    EXPECT_GE(removed, 1U) << name;
    const auto resumed = run_pipeline(sample.reads, params, distributed);
    EXPECT_EQ(resumed.labels, reference) << name;
    EXPECT_EQ(resumed.recovery.checkpoint_hits, 1U) << name;
    std::filesystem::remove_all(dir);
  }
}

TEST(Pipeline, DistributedHierarchicalMatchesLocalAcrossCompactions) {
  // 600 reads: the agglomeration repacks its distance square at 300, 150,
  // ... live clusters, under every linkage, on both paths.
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = 600, .seed = 3});
  ExecutionOptions distributed;
  distributed.distributed = true;
  distributed.cluster.nodes = 4;
  ExecutionOptions local;
  local.distributed = false;

  for (const auto linkage :
       {Linkage::kSingle, Linkage::kAverage, Linkage::kComplete}) {
    auto params = base_params(Mode::kHierarchical);
    params.linkage = linkage;
    const auto a = run_pipeline(sample.reads, params, distributed);
    const auto b = run_pipeline(sample.reads, params, local);
    ASSERT_EQ(a.labels.size(), 600u);
    EXPECT_EQ(a.labels, b.labels) << linkage_name(linkage);
  }
}

TEST(Pipeline, LabelsCoverEveryRead) {
  const auto sample = small_sample();
  const auto result = run_pipeline(sample.reads, base_params(Mode::kHierarchical));
  ASSERT_EQ(result.labels.size(), sample.size());
  for (const int label : result.labels) EXPECT_GE(label, 0);
  EXPECT_GE(result.num_clusters, 1u);
}

TEST(Pipeline, DistributedJobsReportStats) {
  const auto sample = small_sample();
  ExecutionOptions exec;
  exec.distributed = true;
  exec.cluster.nodes = 4;
  exec.records_per_split = 16;

  const auto result =
      run_pipeline(sample.reads, base_params(Mode::kHierarchical), exec);
  EXPECT_EQ(result.sketch_stats.input_records, sample.size());
  EXPECT_EQ(result.sketch_stats.map_tasks, 5u);  // 80 reads / 16 per split
  EXPECT_EQ(result.similarity_stats.input_records, sample.size());
  EXPECT_EQ(result.cluster_stats.reduce_tasks, 1u);  // GROUP ALL
  EXPECT_GT(result.sim_total_s, 0.0);
  EXPECT_GT(result.sketch_stats.counters.at("reads.sketched"), 0);
}

TEST(Pipeline, GreedySkipsSimilarityJob) {
  const auto sample = small_sample();
  ExecutionOptions exec;
  exec.distributed = true;
  const auto result = run_pipeline(sample.reads, base_params(Mode::kGreedy), exec);
  EXPECT_EQ(result.similarity_stats.input_records, 0u);
  EXPECT_EQ(result.cluster_stats.reduce_tasks, 1u);
}

TEST(Pipeline, GreedyIsSimFasterThanHierarchical) {
  // The paper's consistent observation (Table III): greedy ~2x faster.
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = 200, .seed = 2});
  ExecutionOptions exec;
  exec.distributed = true;
  const auto greedy = run_pipeline(sample.reads, base_params(Mode::kGreedy), exec);
  const auto hier =
      run_pipeline(sample.reads, base_params(Mode::kHierarchical), exec);
  EXPECT_LT(greedy.sim_total_s, hier.sim_total_s);
}

TEST(Pipeline, MoreNodesLowerSimulatedTime) {
  const auto sample = small_sample();
  ExecutionOptions few, many;
  few.cluster.nodes = 2;
  many.cluster.nodes = 12;
  const auto params = base_params(Mode::kHierarchical);
  const auto slow = run_pipeline(sample.reads, params, few);
  const auto fast = run_pipeline(sample.reads, params, many);
  EXPECT_GT(slow.sim_total_s, fast.sim_total_s);
  EXPECT_EQ(slow.labels, fast.labels);  // node count never changes results
}

TEST(PipelineCost, ModelsArePositiveAndMonotone) {
  EXPECT_GT(cost::sketch_work(100, 50), 0.0);
  EXPECT_GT(cost::sketch_work(200, 50), cost::sketch_work(100, 50));
  EXPECT_GT(cost::compare_work(100), cost::compare_work(50));
  EXPECT_GT(cost::dendrogram_work(1000), cost::dendrogram_work(100));
  EXPECT_GT(cost::sketch_bytes(100), cost::sketch_bytes(10));
}

// ------------------------------------------------- sketch schemes and b-bit

TEST(Pipeline, CMinHashDistributedMatchesLocal) {
  const auto sample = small_sample();
  ExecutionOptions distributed;
  distributed.cluster.nodes = 4;
  ExecutionOptions local;
  local.distributed = false;
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    auto params = base_params(mode);
    params.minhash.scheme = SketchScheme::kCMinHash;
    const auto a = run_pipeline(sample.reads, params, distributed);
    const auto b = run_pipeline(sample.reads, params, local);
    EXPECT_EQ(a.labels, b.labels) << mode_name(mode);
    EXPECT_GT(a.num_clusters, 1u);
    EXPECT_LT(a.num_clusters, sample.reads.size());
  }
}

TEST(Pipeline, BBitDistributedMatchesLocal) {
  // One stage list serves both modes: every k-mer path × backend × mode ×
  // width walks the same stages locally and as MapReduce jobs, with equal
  // results.  k = 5 sketches by ranked lookup, k = 12 by the hash kernels.
  const auto sample = small_sample();
  ExecutionOptions distributed;
  distributed.cluster.nodes = 3;
  ExecutionOptions local;
  local.distributed = false;
  for (const int kmer : {5, 12}) {
    for (const auto backend : {candidates::Backend::kExactAllPairs,
                               candidates::Backend::kLshBanded}) {
      for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
        for (const std::size_t bits :
             {std::size_t{64}, std::size_t{16}, std::size_t{8}}) {
          auto params = base_params(mode);
          params.minhash.kmer = kmer;
          params.sketch_bits = bits;
          params.candidates.backend = backend;
          const auto a = run_pipeline(sample.reads, params, distributed);
          const auto b = run_pipeline(sample.reads, params, local);
          const std::string where =
              "k=" + std::to_string(kmer) + " " +
              candidates::backend_name(backend) + " " + mode_name(mode) +
              " bits=" + std::to_string(bits);
          EXPECT_EQ(a.labels, b.labels) << where;
          EXPECT_EQ(a.num_clusters, b.num_clusters) << where;
          EXPECT_EQ(a.candidate_pairs, b.candidate_pairs) << where;
          if (backend == candidates::Backend::kLshBanded) {
            EXPECT_GT(b.candidate_pairs, 0u) << where;
          }
        }
      }
    }
  }
}

TEST(Pipeline, BBitLshDistributedMatchesLocal) {
  const auto sample = small_sample();
  ExecutionOptions distributed;
  distributed.cluster.nodes = 4;
  ExecutionOptions local;
  local.distributed = false;
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    auto params = base_params(mode);
    params.sketch_bits = 8;
    params.candidates.backend = candidates::Backend::kLshBanded;
    const auto a = run_pipeline(sample.reads, params, distributed);
    const auto b = run_pipeline(sample.reads, params, local);
    EXPECT_EQ(a.labels, b.labels) << mode_name(mode);
  }
}

TEST(Pipeline, BBitPackingShrinksSketchShuffle) {
  const auto sample = small_sample();
  ExecutionOptions exec;
  exec.cluster.nodes = 4;
  auto wide = base_params(Mode::kHierarchical);
  auto narrow = wide;
  narrow.sketch_bits = 8;
  const auto full = run_pipeline(sample.reads, wide, exec);
  const auto packed = run_pipeline(sample.reads, narrow, exec);
  // K=64 at b=8 packs 8 sketches per word slot: ≥ 4x fewer sketch-stage
  // shuffle bytes even after block headers.
  EXPECT_GT(full.sketch_stats.shuffle_bytes, 0.0);
  EXPECT_LT(packed.sketch_stats.shuffle_bytes,
            full.sketch_stats.shuffle_bytes / 4.0);
}

TEST(Pipeline, BBitLabelsStayFaithfulToFullWidth) {
  // Truncation keeps the clustering decisions.  b = 16 labels must agree
  // with the 64-bit labels at ARI >= 0.99 in both modes at the paper's
  // K = 100: the chance-collision floor 2^-16 is far below the per-pair
  // estimator resolution 1/K, so no merge decision should flip.  b = 8 gets
  // a coarser sanity floor — its collision noise (sd ~ sqrt(C/K) per pair)
  // genuinely flips borderline pairs on this boundary-dense sample, which
  // cascades through average linkage; the quality-preserving recommendation
  // the docs make is b = 16.
  const auto sample = small_sample();
  ExecutionOptions exec;
  exec.cluster.nodes = 3;
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    auto wide = base_params(mode);
    wide.minhash.num_hashes = 100;
    auto narrow = wide;
    narrow.sketch_bits = 16;
    auto byte_wide = wide;
    byte_wide.sketch_bits = 8;
    const auto full = run_pipeline(sample.reads, wide, exec);
    const auto packed = run_pipeline(sample.reads, narrow, exec);
    const auto tiny = run_pipeline(sample.reads, byte_wide, exec);
    EXPECT_GE(eval::adjusted_rand_index(packed.labels, full.labels), 0.99)
        << mode_name(mode);
    EXPECT_GE(eval::adjusted_rand_index(tiny.labels, full.labels), 0.75)
        << mode_name(mode);
  }
}

TEST(Pipeline, RejectsInvalidSketchBits) {
  auto params = base_params(Mode::kGreedy);
  params.sketch_bits = 7;
  const auto sample = small_sample();
  EXPECT_THROW(run_pipeline(sample.reads, params), common::InvalidArgument);
  params.sketch_bits = 0;
  EXPECT_THROW(run_pipeline(sample.reads, params), common::InvalidArgument);
}

// -------------------------------------------------------- hostile inputs
// Inputs real samples contain and the simulators do not: every mode ×
// backend finishes on them, and the MapReduce run gives the local labels.

std::vector<bio::FastaRecord> records(const std::vector<std::string>& seqs) {
  std::vector<bio::FastaRecord> reads;
  for (const auto& seq : seqs) {
    const std::string id = "r" + std::to_string(reads.size());
    reads.push_back({id, id, seq});
  }
  return reads;
}

/// Runs every mode × backend locally and on three simulated nodes; returns
/// the cluster counts of the local runs.
std::vector<std::size_t> expect_hostile_input_runs(
    std::span<const bio::FastaRecord> reads) {
  std::vector<std::size_t> clusters;
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    for (const auto backend : {candidates::Backend::kExactAllPairs,
                               candidates::Backend::kLshBanded}) {
      auto params = base_params(mode);
      params.candidates.backend = backend;
      const std::string where = std::string(mode_name(mode)) + " " +
                                candidates::backend_name(backend);
      ExecutionOptions local;
      local.distributed = false;
      ExecutionOptions distributed;
      distributed.cluster.nodes = 3;
      const PipelineResult a = run_pipeline(reads, params, local);
      const PipelineResult b = run_pipeline(reads, params, distributed);
      EXPECT_EQ(a.labels.size(), reads.size()) << where;
      EXPECT_EQ(a.labels, b.labels) << where;
      EXPECT_EQ(a.num_clusters, b.num_clusters) << where;
      clusters.push_back(a.num_clusters);
    }
  }
  return clusters;
}

TEST(PipelineHostileInput, OneRead) {
  const auto reads = records({"ACGTTGCAAGGCTTACCGATGCA"});
  EXPECT_EQ(expect_hostile_input_runs(reads),
            (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(PipelineHostileInput, ReadsShorterThanK) {
  const auto reads = records({"ACG", "", "T", "ACGT", "GGCC", "ACGTTGCAAGG"});
  EXPECT_EQ(expect_hostile_input_runs(reads).size(), 4u);
}

TEST(PipelineHostileInput, AllNReads) {
  const auto reads =
      records({"NNNNNNNNNNNNNNNNNNNN", "NNNNNNNNNN", "nnnnnnnnnnnnnnn",
               "ACGTTGCAAGGCTTACCGATGCA", "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"});
  EXPECT_EQ(expect_hostile_input_runs(reads).size(), 4u);
}

TEST(PipelineHostileInput, Homopolymers) {
  const auto reads = records({std::string(60, 'A'), std::string(40, 'C'),
                              std::string(80, 'G'), std::string(60, 'T'),
                              std::string(60, 'A'), "ACACACACACACACACACACACAC",
                              std::string(7, 'A')});
  EXPECT_EQ(expect_hostile_input_runs(reads).size(), 4u);
}

TEST(PipelineHostileInput, LowercaseAndIupacCodes) {
  const auto reads = records({"acgttgcaaggcttaccgatgcaacgttgcaagg",
                              "ACGTTGCAAGGCTTACCGATGCAACGTTGCAAGG",
                              "ACGTRYKMSWBDHVNACGTTGCAAGGCTTACCG",
                              "acgtrykmswbdhvnacgttgcaaggcttaccg",
                              "AcGtTgCaAgGcTtAcCgAtGcAaCgTtGcAaGg"});
  EXPECT_EQ(expect_hostile_input_runs(reads).size(), 4u);
}

TEST(PipelineHostileInput, ThreeThousandCopiesOfOneRead) {
  // Every LSH bucket holds all 3 000 reads: hierarchical LSH verifies all
  // 4 498 500 pairs.
  const auto reads = records(std::vector<std::string>(
      3000, "ACGTTGCAAGGCTTACCGATGCAACGTTGCAAGGTTACGATCGGATCCAGT"));
  EXPECT_EQ(expect_hostile_input_runs(reads),
            (std::vector<std::size_t>{1, 1, 1, 1}));
}

}  // namespace
}  // namespace mrmc::core
