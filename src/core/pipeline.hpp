// End-to-end MrMC-MinH pipeline (Figure 1 of the paper): FASTA records ->
// integer encoding -> k-mer feature sets -> minwise sketches -> pair
// enumeration (core::candidates) -> greedy or agglomerative hierarchical
// clustering.  run_pipeline walks ONE stage list in both execution modes;
// which stages it holds depends on the candidate backend
// (PipelineParams::candidates) and the mode:
//
//   "sketch"       map: read split -> its rows of the sketch table, charged
//                   as one block of sketches  [always]
//   -- exact all-pairs backend (the paper's shape, the default) --
//   "similarity"   map: row split -> its rows of the matrix, charged as one
//                   block of pair counts [hierarchical only; the paper's
//                   row-wise partition of the matrix]
//   -- LSH-banded backend --
//   "candidates"   map: read split -> one block of bucket entries per
//                   reducer, each owning a group of key parts; reduce
//                   sorts and compacts its parts into a CSR slice; the
//                   joined slices are the bucket CSR
//   "verify"       [hierarchical only] the CSR's pairs; map: pair split ->
//                   its edges of the sparse similarity graph, charged as
//                   one block of pair counts
//   -- either backend --
//   "greedy-cluster" / "hierarchical-cluster"
//                  GROUP ALL -> single reducer runs Algorithm 1 (against
//                   every pending read, or under LSH against the
//                   representatives in each read's buckets) or the
//                   dendrogram build + θ-cut (Algorithm 3, steps 6-9)
//
// So a greedy LSH run is sketch -> candidates -> greedy-cluster: no pair
// list, verify job or graph.  Distributed (ExecutionOptions::distributed),
// each stage runs as the MapReduce job above on the simulated cluster,
// under the recovery stage driver (checkpoints, lineage,
// MRMC_CRASH_AFTER_STAGE).  Local, each stage is a plain in-process call of
// the same computation on one thread pool: the sketch, similarity and verify
// stages run the very row-range body their map tasks run.  Labels, cluster
// counts and candidate pair counts are identical either way.  Simulated job timelines
// accumulate into PipelineResult::sim_total_s, the number the paper's
// Table III/V "Time" columns report.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/fasta.hpp"
#include "bio/fastq.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "mr/job.hpp"
#include "mr/recovery.hpp"

namespace mrmc::core {

enum class Mode { kGreedy, kHierarchical };

[[nodiscard]] const char* mode_name(Mode mode) noexcept;

struct PipelineParams {
  MinHashParams minhash{};
  Mode mode = Mode::kHierarchical;
  double theta = 0.9;
  Linkage linkage = Linkage::kAverage;          ///< hierarchical only
  SketchEstimator estimator = SketchEstimator::kComponentMatch;
  SketchEstimator greedy_estimator = SketchEstimator::kSetBased;
  /// Pair-enumeration backend.  The exact default keeps the paper's job
  /// shapes (and bit-for-bit outputs); kLshBanded swaps in the candidates
  /// job, then the bucket greedy sweep or verify + sparse-graph clustering.
  candidates::Params candidates{};
  /// b-bit sketches: keep only the low `sketch_bits` of every minwise value
  /// (∈ {1, 2, 4, 8, 16, 32, 64}).  64 (default) is today's full-width
  /// behaviour, byte for byte.  Below 64, sketch shuffle blocks pack
  /// 64/b-fold denser and every estimate is thresholded with the standard
  /// b-bit chance-collision correction (see bbit_adjusted_threshold);
  /// estimators are forced to component-match (set semantics over truncated
  /// values are not meaningful).  Local and distributed runs stay
  /// label-identical at any b.
  std::size_t sketch_bits = 64;
};

struct ExecutionOptions {
  bool distributed = true;       ///< stage the pipeline as MapReduce jobs
  /// The simulated cluster of a distributed run (mr::validate'd before any
  /// stage); a local run ignores it.
  mr::ClusterConfig cluster{};
  /// Real execution threads.  run_pipeline leases one pool per run and
  /// runs every stage body and every job's tasks (map and reduce alike) on
  /// it: 0 = the lazily-created process-wide pool
  /// (mr::runtime::shared_pool()); > 0 = a private pool of that size.
  std::size_t threads = 0;
  /// Records per map split of a distributed run's sketch, candidates and
  /// greedy-cluster jobs, and the fewest pairs per verify split (>= 1,
  /// checked before any stage); a local run ignores it.
  std::size_t records_per_split = 512;
  /// Node-failure schedule applied to every job in the pipeline (empty =
  /// fault-free).  The clustering output is byte-identical either way; only
  /// the simulated timelines pay for the lost work.
  mr::faults::FaultPlan fault_plan{};
  /// Durable stage checkpoints (mr::recovery): directory for checkpoint
  /// files; "" falls back to MRMC_CHECKPOINT_DIR (unset = disabled).  With
  /// checkpoints on, a restarted run serves completed stages from disk and
  /// produces byte-identical labels; note sim/job stats of checkpoint-hit
  /// stages stay empty (their jobs never ran), so sim_total_s covers only
  /// the stages computed in *this* process.
  std::string checkpoint_dir;
};

struct PipelineResult {
  std::vector<int> labels;
  std::size_t num_clusters = 0;
  double wall_s = 0.0;       ///< real elapsed time of this process
  double sim_total_s = 0.0;  ///< simulated cluster time across all jobs
  mr::JobStats sketch_stats;
  mr::JobStats similarity_stats;  ///< hierarchical mode, exact backend only
  mr::JobStats candidate_stats;   ///< LSH backend only
  mr::JobStats verify_stats;      ///< LSH backend, hierarchical mode only
  mr::JobStats cluster_stats;
  /// Scored pairs, LSH backend only: the greedy sweep's comparisons, or the
  /// hierarchical path's verified edges (0 when that stage was a
  /// checkpoint hit).
  std::size_t candidate_pairs = 0;
  /// What the recovery stage driver did: checkpoint hits/misses/writes
  /// (distributed path only; all-zero otherwise).
  mr::recovery::RecoveryStats recovery;
};

/// Cluster reads end to end.
PipelineResult run_pipeline(std::span<const bio::FastaRecord> reads,
                            const PipelineParams& params,
                            const ExecutionOptions& exec = {});

/// Raw-sequencer entry point: quality-filter FASTQ reads (3'-trim + length +
/// mean-error filters), then cluster the survivors.  `result.labels` aligns
/// with the *returned* `kept` reads; `dropped` counts QC discards.
struct FastqPipelineResult {
  PipelineResult clustering;
  std::vector<bio::FastaRecord> kept;  ///< post-QC reads, label-aligned
  std::size_t dropped = 0;
};

FastqPipelineResult run_pipeline_fastq(std::span<const bio::FastqRecord> reads,
                                       const bio::QualityFilter& qc,
                                       const PipelineParams& params,
                                       const ExecutionOptions& exec = {});

/// Deterministic work models (simulated seconds on a reference node) used by
/// the pipeline's jobs and by the Figure-2 analytic scalability bench.
namespace cost {
/// Sketching one read of `length` bases with `num_hashes` hash functions.
double sketch_work(std::size_t length, std::size_t num_hashes) noexcept;
/// Comparing two sketches of `num_hashes` components.
double compare_work(std::size_t num_hashes) noexcept;
/// Building + cutting a dendrogram over n sequences.
double dendrogram_work(std::size_t n) noexcept;
/// Serialized bytes of one sketch.
double sketch_bytes(std::size_t num_hashes) noexcept;
}  // namespace cost

}  // namespace mrmc::core
