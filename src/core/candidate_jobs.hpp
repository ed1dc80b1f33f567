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
//   "verify"      (hierarchical only) a block job (below) over the sorted
//                 pair list the pipeline expands from the CSR
//                 (candidates::pairs_from_buckets): one count-lane block per
//                 split; the driver rebuilds edges positionally from the
//                 already-sorted pair list
//
// Both drivers produce sorted unique outputs, so bucket lists and edge
// lists are byte-identical across thread counts, record split orders,
// fault plans that leave one live node, and scalar vs AVX2 kernels — and
// identical to the local candidates::lsh_buckets / verify_pairs path.
// Each job claims a lineage stage ("candidates" / "verify") so
// `mrmc_doctor pipeline` reports them like any other pipeline stage.
//
// detail:: holds what every pipeline job builder shares: the one JobConfig
// builder, the two job shapes — the block job of the sketch, similarity and
// verify stages (a map task turns its split into ONE BinaryBlock, the
// reduce is the identity, the driver rejoins blocks positionally) and the
// GROUP-ALL cluster job of the greedy and hierarchical stages — and
// PairScoreLanes, the one encode/decode of a pair score as integer count
// lanes.
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

/// A pair score as integer count lanes of a BinaryBlock: the counts of
/// SketchPairSimilarity — one match count (component-match, ≤ K) or |∩| and
/// |∪| (set-based, ≤ 2K) per pair — in the narrowest lane that holds them.
/// Map tasks encode; the driver decodes the exact double the local scorers
/// compute (SketchPairSimilarity::score), so a pair costs one packed lane
/// instead of a float.
class PairScoreLanes {
 public:
  PairScoreLanes(std::shared_ptr<const kernels::SketchMatrix> sketches,
                 SketchEstimator estimator);

  /// A zeroed block of `pairs` lanes.
  [[nodiscard]] mr::BinaryBlock block(std::uint64_t pairs) const {
    return {lane_bits_, pairs, scorer_->set_based() ? 2U : 1U};
  }

  [[nodiscard]] const kernels::SketchMatrix& sketches() const noexcept {
    return *sketches_;
  }

  /// Score rows a and b into `lane` of `block`; returns the decoded score.
  /// Cell is the table's cell type, taken once per block from
  /// sketches().with_cell.
  template <typename Cell>
  double encode(mr::BinaryBlock& block, std::uint64_t lane, std::size_t a,
                std::size_t b) const {
    const SketchPairSimilarity::Counts counts = scorer_->counts<Cell>(a, b);
    block.set(0, lane, counts.shared);
    if (scorer_->set_based()) block.set(1, lane, counts.unions);
    return scorer_->score(counts);
  }

  [[nodiscard]] double decode(const mr::BinaryBlock& block,
                              std::uint64_t lane) const {
    return scorer_->score(
        {block.get(0, lane), scorer_->set_based() ? block.get(1, lane) : 0});
  }

 private:
  std::shared_ptr<const kernels::SketchMatrix> sketches_;  ///< scorer_'s rows
  std::shared_ptr<const SketchPairSimilarity> scorer_;
  std::uint32_t lane_bits_ = 8;
};

/// A block-job output block and the index of its split's first record.
using PlacedBlock = std::pair<std::size_t, mr::BinaryBlock>;

/// The block-job shape: `fill(split, emit)` turns each map split into ONE
/// BinaryBlock (it may bump counters on `emit`), keyed by split index, and
/// the reduce is the identity.  Returns every block placed at its split's
/// first record, split_index · records_per_split, for the caller's
/// positional rejoin.
template <typename In, typename Fill, typename MapWork>
std::vector<PlacedBlock> run_block_job(const char* name,
                                       const ExecutionOptions& exec,
                                       common::ThreadPool* pool,
                                       std::size_t records_per_split,
                                       std::span<const In> input, Fill fill,
                                       MapWork map_work, mr::JobStats& stats) {
  using Key = std::uint32_t;
  using BlockJob =
      mr::Job<In, Key, mr::BinaryBlock, std::pair<Key, mr::BinaryBlock>>;
  BlockJob job(
      job_config(name, exec, pool, records_per_split),
      [fill](std::span<const In> split, std::size_t split_index,
             mr::Emitter<Key, mr::BinaryBlock>& emit) {
        emit.emit(static_cast<Key>(split_index), fill(split, emit));
      },
      [](const Key& key, std::vector<mr::BinaryBlock>& values,
         std::vector<std::pair<Key, mr::BinaryBlock>>& out) {
        MRMC_CHECK(values.size() == 1, "one block per split");
        out.emplace_back(key, std::move(values.front()));
      });
  job.with_map_work(std::move(map_work));
  auto run = job.run(input);
  stats = std::move(run.stats);
  std::vector<PlacedBlock> blocks;
  blocks.reserve(run.output.size());
  for (auto& [split_index, block] : run.output) {
    blocks.emplace_back(split_index * records_per_split, std::move(block));
  }
  return blocks;
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
