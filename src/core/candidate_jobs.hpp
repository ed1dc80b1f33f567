// The pipeline's stage runner and the MapReduce job builders behind
// core::run_pipeline's distributed stages.
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
//   "verify"      (hierarchical only) an in-place stage (below) over the
//                 sorted pair list the pipeline expands from the CSR
//                 (candidates::pairs_from_buckets): candidates::verify_rows
//                 scores a range of pairs straight into their slots of the
//                 edge list, which is then in the pair list's sorted order
//
// The sketch, similarity and verify stages are in-place stages: each has
// one row-range body (MinHasher::sketch_rows, similarity_rows,
// candidates::verify_rows) that writes records [first, last) of the
// stage's value, and detail::StageRunner::fill runs it — across the run's
// pool locally, as the map body of the stage's job over each split when
// distributed.  Every stage's output is byte-identical across modes,
// thread counts, record split orders, fault plans that leave one live
// node, and scalar vs AVX2 kernels.  Each job claims a lineage stage
// (its name) so `mrmc_doctor pipeline` reports them like any other
// pipeline stage.
//
// detail:: holds what every pipeline stage shares: the one JobConfig
// builder, the StageRunner (each stage's checkpoint driver, lineage stage
// and wall span, and the in-place stages' runner) and the GROUP-ALL
// cluster job of the greedy and hierarchical stages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/candidates.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"
#include "mr/block.hpp"
#include "mr/job.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

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

namespace detail {

/// The JobConfig of one pipeline job: its name, the run's pool (nullptr =
/// the process-wide pool), split size and reducer count (0 = one per reduce
/// slot, at least one), plus every execution knob the jobs share — cluster,
/// fault plan — so a new ExecutionOptions knob cannot silently miss a stage.
mr::JobConfig job_config(const char* name, const ExecutionOptions& exec,
                         common::ThreadPool* pool,
                         std::size_t records_per_split,
                         std::size_t num_reducers = 0);

/// How run_pipeline's stage list runs.  Both modes run on one pool, and a
/// stage's error keeps its type in both.  Each stage gets one
/// `pipeline/<stage>` wall span, a checkpoint hit included.  A local run
/// has no driver: each stage is a plain call — no checkpoint, lineage claim
/// or stage hook.  A distributed run's recovery driver runs each stage's
/// MapReduce job under the stage's name (the lineage stage name), so a
/// checkpoint hit claims the job's lineage slot and downstream sequence
/// numbers match an uninterrupted run.
struct StageRunner {
  const ExecutionOptions& exec;  ///< exec.distributed picks the mode
  common::ThreadPool* pool;
  mr::recovery::StageDriver* driver = nullptr;  ///< a distributed run's

  template <typename Compute, typename Encode, typename Decode>
  auto run(const char* name, Compute&& compute, Encode&& encode,
           Decode&& decode) const {
    obs::Tracer::Span span(obs::Tracer::global(), std::string("pipeline/") + name);
    obs::pipeline::StageScope scope(name);
    if (driver == nullptr) return compute();
    return driver->run_stage(name, compute, encode, decode);
  }

  /// Runs an in-place stage: `body(first, last)` writes records
  /// [first, last) of the stage's value (a table, matrix or edge list the
  /// caller allocated), one record per `input` record.  Locally the body
  /// runs across the pool in blocks of `grain` records
  /// (kernels::for_each_block).  Distributed it is the map body of the
  /// stage's job `name` over splits of `records_per_split` records: a map
  /// task fills its split, bumps `counter` once per record and emits a
  /// receipt keyed by split index, charged as the block its records
  /// [first, last) stand for (`block_bytes(first, last)`, an
  /// mr::BinaryBlock::modelled_bytes); the reduce is the identity, so the
  /// job's shuffle bytes, spill runs and simulated time are the blocks'.
  /// `map_work(record)` is a record's modelled work.  Splits own disjoint
  /// ranges of the value: a re-executed map attempt rewrites identical
  /// bytes into its own range.  Throws unless the receipts tile the input.
  template <typename In, typename Body, typename BlockBytes, typename MapWork>
  void fill(const char* name, std::span<const In> input, std::size_t grain,
            std::size_t records_per_split, const char* counter, Body body,
            BlockBytes block_bytes, MapWork map_work, mr::JobStats& stats) const {
    const std::size_t n = input.size();
    if (!exec.distributed) return kernels::for_each_block(pool, n, grain, body);
    using Receipt = mr::BlockReceipt;
    mr::Job<In, std::uint32_t, Receipt, std::pair<std::uint32_t, Receipt>> job(
        job_config(name, exec, pool, records_per_split),
        [&](std::span<const In> split, std::size_t split_index,
            mr::Emitter<std::uint32_t, Receipt>& emit) {
          const std::size_t first = split_index * records_per_split;
          body(first, first + split.size());
          emit.count(counter, std::ssize(split));
          emit.emit(static_cast<std::uint32_t>(split_index),
                    Receipt{split.size(), block_bytes(first, first + split.size())});
        },
        [](const std::uint32_t& key, std::vector<Receipt>& values,
           std::vector<std::pair<std::uint32_t, Receipt>>& out) {
          MRMC_CHECK(values.size() == 1, "one receipt per split");
          out.emplace_back(key, values.front());
        });
    job.with_map_work(map_work);
    auto run = job.run(input);
    stats = std::move(run.stats);
    std::size_t covered = 0;
    for (const auto& [split_index, receipt] : run.output) {
      MRMC_CHECK(split_index * records_per_split + receipt.records <= n,
                 "split misplaced");
      covered += receipt.records;
    }
    MRMC_CHECK(covered == n, "the splits do not cover the input");
  }
};

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
