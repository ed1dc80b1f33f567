// The MapReduce job builders behind core::run_pipeline's distributed stages,
// and the two job shapes they share.
//
// Candidate generation (ScalLoPS-style LSH banding at MapReduce scale,
// Sunarso et al.):
//
//   "candidates"  map: read split -> its (bucket_key, read_id) entries,
//                 grouped by key part (candidates::part_entries), as one
//                 byte-lane block per reducer; reducer r owns a contiguous
//                 group of the 256 parts (identity partitioner)
//                 reduce: decode the blocks and sort-and-compact them into
//                 a CSR slice (candidates::sort_and_compact, the local
//                 stage's body); the driver joins the slices in reducer
//                 order — the local candidates::lsh_buckets CSR, which the
//                 greedy stage sweeps directly
//   "verify"      (hierarchical only) an in-place job (below) over the
//                 sorted pair list the pipeline expands from the CSR
//                 (candidates::pairs_from_buckets): a map task scores its
//                 split's pairs straight into their slots of the edge list,
//                 which is then in the pair list's sorted order
//
// Both drivers produce sorted unique outputs, so bucket lists and edge
// lists are byte-identical across thread counts, record split orders,
// fault plans that leave one live node, and scalar vs AVX2 kernels — and
// identical to the local candidates::lsh_buckets / verify_pairs path.
// Each job claims a lineage stage ("candidates" / "verify") so
// `mrmc_doctor pipeline` reports them like any other pipeline stage.
//
// detail:: holds what every pipeline job builder shares: the one JobConfig
// builder, the two job shapes — the in-place job of the sketch, similarity
// and verify stages (a map task writes its split straight into the stage's
// value and emits a receipt that models the block it would have shuffled;
// the reduce is the identity) and the GROUP-ALL cluster job of the greedy
// and hierarchical stages — and pair_score_bytes, the one wire model of a
// pair score as integer count lanes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/candidates.hpp"
#include "core/kernels.hpp"
#include "core/minhash.hpp"
#include "core/pipeline.hpp"
#include "mr/block.hpp"
#include "mr/job.hpp"

namespace mrmc::core {

/// The candidates stage's value in both modes.
struct CandidateJobResult {
  candidates::BucketCsr buckets;  ///< the LSH buckets, as lsh_buckets builds
  candidates::BandShape shape;    ///< resolved banding
  mr::JobStats stats;             ///< empty when computed locally
};

/// Bucket the sketch table under the LSH backend with the "candidates"
/// MapReduce job on the simulated cluster; the result equals
/// candidates::lsh_buckets on the same table.  The exact backend has no
/// candidates stage (InvalidArgument).  Read ids are 32-bit: rows × bands
/// must stay below 2^32 (InvalidArgument otherwise).  The tasks run on
/// `pool` (nullptr = the process-wide pool); exec.threads is not read.
CandidateJobResult run_candidate_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const candidates::Params& params, double theta,
    const ExecutionOptions& exec, common::ThreadPool* pool = nullptr);

struct VerifyJobResult {
  candidates::SparseSimilarityGraph graph;
  mr::JobStats stats;
};

/// Score candidate pairs into a sparse similarity graph via the "verify"
/// MapReduce job.  `pairs` must be sorted unique (pairs_from_buckets output);
/// the map tasks read views of it, so the job makes no copy of the pairs
/// and a retry reads the same list.  The tasks run on `pool`, as in
/// run_candidate_job.  The edges are verify_pairs' on the same table.
VerifyJobResult run_verify_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const std::vector<candidates::Pair>& pairs, SketchEstimator estimator,
    const ExecutionOptions& exec, common::ThreadPool* pool = nullptr);

namespace detail {

/// The JobConfig of one pipeline job: its name, the run's pool (nullptr =
/// the process-wide pool), split size and reducer count (0 = one per reduce
/// slot, at least one), plus every execution knob the jobs share — cluster,
/// fault plan — so a new ExecutionOptions knob cannot silently miss a stage.
mr::JobConfig job_config(const char* name, const ExecutionOptions& exec,
                         common::ThreadPool* pool,
                         std::size_t records_per_split,
                         std::size_t num_reducers = 0);

/// The modelled wire bytes of `pairs` pair scores as integer count lanes:
/// one match count (component-match, ≤ K) or |∩| and |∪| (set-based, ≤ 2K)
/// per pair, in the narrowest lane that holds them — what a similarity or
/// verify map task reports for the scores it writes in place.
[[nodiscard]] inline double pair_score_bytes(const SketchPairSimilarity& scorer,
                                             std::size_t sketch_size,
                                             std::uint64_t pairs) noexcept {
  const std::uint32_t cols = scorer.set_based() ? 2 : 1;
  return mr::BinaryBlock::modelled_bytes(mr::min_lane_bits(cols * sketch_size),
                                         pairs, cols);
}

/// The in-place job shape of the sketch, similarity and verify stages.
/// `fill(split, first, emit)` writes the split's records straight into the
/// stage's value from record `first` = split_index · records_per_split on
/// (it may bump counters on `emit`) and returns the modelled bytes of the
/// block the split's output stands for (mr::BinaryBlock::modelled_bytes).
/// The map emits that as a receipt keyed by split index and the reduce is
/// the identity, so the job's shuffle bytes, spill runs and simulated time
/// are the block's.  Splits own disjoint ranges of the value: a re-executed
/// map attempt rewrites identical bytes into its own range.  Throws unless
/// the receipts tile the input.
template <typename In, typename Fill, typename MapWork>
void run_in_place_job(const char* name, const ExecutionOptions& exec,
                      common::ThreadPool* pool, std::size_t records_per_split,
                      std::span<const In> input, Fill fill, MapWork map_work,
                      mr::JobStats& stats) {
  using Key = std::uint32_t;
  using Receipt = mr::BlockReceipt;
  using ReceiptJob = mr::Job<In, Key, Receipt, std::pair<Key, Receipt>>;
  ReceiptJob job(
      job_config(name, exec, pool, records_per_split),
      [fill, records_per_split](std::span<const In> split,
                                std::size_t split_index,
                                mr::Emitter<Key, Receipt>& emit) {
        const double bytes = fill(split, split_index * records_per_split, emit);
        emit.emit(static_cast<Key>(split_index), Receipt{split.size(), bytes});
      },
      [](const Key& key, std::vector<Receipt>& values,
         std::vector<std::pair<Key, Receipt>>& out) {
        MRMC_CHECK(values.size() == 1, "one receipt per split");
        out.emplace_back(key, values.front());
      });
  job.with_map_work(std::move(map_work));
  auto run = job.run(input);
  stats = std::move(run.stats);
  std::size_t covered = 0;
  for (const auto& [split_index, receipt] : run.output) {
    MRMC_CHECK(split_index * records_per_split + receipt.records <= input.size(),
               "split misplaced");
    covered += receipt.records;
  }
  MRMC_CHECK(covered == input.size(), "the splits do not cover the input");
}

/// The GROUP-ALL cluster job (Algorithm 3, steps 8 and 9): every map task
/// emits its read indices under one key; the single reducer runs
/// `cluster()` — Algorithm 1 or the dendrogram build + θ-cut — and emits
/// each index's label in sorted index order.  `cluster` runs once per
/// reduce attempt: a doomed attempt (JobConfig::reduce_failure_rate) calls
/// it again.
std::vector<int> run_cluster_job(const mr::JobConfig& config, std::size_t n,
                                 double reduce_work,
                                 const std::function<std::vector<int>()>& cluster,
                                 mr::JobStats& stats);

}  // namespace detail

}  // namespace mrmc::core
