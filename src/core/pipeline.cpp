#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/candidate_jobs.hpp"
#include "core/kernels.hpp"
#include "mr/block.hpp"
#include "mr/bytes.hpp"
#include "mr/runtime.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

namespace mrmc::core {

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kGreedy: return "greedy";
    case Mode::kHierarchical: return "hierarchical";
  }
  return "?";
}

namespace cost {

// Calibrated to an EMR M1 Large-class node (cpu_rate = 1 work unit / sim
// second): ~25 ns per k-mer x hash-function evaluation, ~1.5 ns per sketch
// component comparison, ~40 ns per dendrogram matrix cell.
double sketch_work(std::size_t length, std::size_t num_hashes) noexcept {
  return static_cast<double>(length) * static_cast<double>(num_hashes) * 25e-9;
}
double compare_work(std::size_t num_hashes) noexcept {
  return static_cast<double>(num_hashes) * 1.5e-9;
}
double dendrogram_work(std::size_t n) noexcept {
  return static_cast<double>(n) * static_cast<double>(n) * 40e-9;
}
double sketch_bytes(std::size_t num_hashes) noexcept {
  return static_cast<double>(num_hashes) * 8.0 + 8.0;
}

}  // namespace cost

namespace {

/// The knobs the clustering stages actually run with.  At b = 64 they are
/// the user's params verbatim.  Below 64, estimators fall back to
/// component-match (set semantics over truncated values are unsound) and
/// every θ comparison moves to θ' = θ·(1-C) + C — the affine b-bit
/// correction folded into the threshold, which is decision-identical to
/// correcting each estimate (and commutes with average linkage).  LSH band
/// *shape* selection keeps the original θ: truncation only increases
/// collision probability, so a shape tuned for J ≥ θ keeps its recall floor.
struct EffectiveKnobs {
  double theta = 0.0;
  double greedy_theta = 0.0;
  SketchEstimator estimator = SketchEstimator::kComponentMatch;
  SketchEstimator greedy_estimator = SketchEstimator::kComponentMatch;
};

/// A set-based estimator forced onto the component-match scale must carry
/// its threshold across too (same m-decision, see
/// set_based_equivalent_threshold); only then does the b-bit θ' adjustment
/// apply.  Keeping the set-based θ verbatim would move the operating point
/// from m/K = 2θ/(1+θ) down to m/K = θ and over-merge everything.
double forced_component_threshold(double theta, SketchEstimator was,
                                  std::size_t bits) noexcept {
  const double component = was == SketchEstimator::kSetBased
                               ? set_based_equivalent_threshold(theta)
                               : theta;
  return bbit_adjusted_threshold(component, bits);
}

EffectiveKnobs effective_knobs(const PipelineParams& params) noexcept {
  if (params.sketch_bits >= 64) {
    return {params.theta, params.theta, params.estimator,
            params.greedy_estimator};
  }
  return {forced_component_threshold(params.theta, params.estimator,
                                     params.sketch_bits),
          forced_component_threshold(params.theta, params.greedy_estimator,
                                     params.sketch_bits),
          SketchEstimator::kComponentMatch, SketchEstimator::kComponentMatch};
}

/// The local sketch stage's body: the reads sketched by `hasher` (on `pool`
/// when non-null), then truncated to b bits, the values the sketch job's
/// blocks carry, so local and distributed runs score identical values at
/// any b.  The caller builds `hasher` once per run: at k <= 6 its
/// constructor ranks the whole k-mer universe.
kernels::SketchMatrix sketch_reads(std::span<const bio::FastaRecord> reads,
                                   const MinHasher& hasher,
                                   std::size_t sketch_bits,
                                   common::ThreadPool* pool) {
  std::vector<std::string_view> seqs;
  seqs.reserve(reads.size());
  for (const auto& read : reads) seqs.emplace_back(read.seq);
  kernels::SketchMatrix sketches = hasher.sketch_matrix(seqs, pool);
  if (sketch_bits < 64) {
    sketches = hasher.widen(sketches, pool);
    kernels::mask_components(sketches, sketch_bits_mask(sketch_bits));
  }
  return sketches;
}

/// Job 1: sketch every read.  Each map task sketches its split serially
/// (the splits already fill the pool), read by read with
/// MinHasher::sketch_into straight into the split's rows of the stage's one
/// SketchMatrix, and at b < 64 keeps each value's low b bits, the
/// truncation sketch_reads applies, so the cells equal the local stage's.
/// Its receipt models the block of K rows × (reads in split) columns the
/// shuffle would have carried: 16-bit lanes when the hasher writes codes,
/// b-bit lanes otherwise.
kernels::SketchMatrix run_sketch_job(std::span<const bio::FastaRecord> reads,
                                     const MinHasher& hasher,
                                     std::size_t sketch_bits,
                                     const ExecutionOptions& exec,
                                     common::ThreadPool* pool,
                                     mr::JobStats& stats) {
  obs::pipeline::StageScope stage("sketch");
  const std::size_t num_hashes = hasher.sketch_size();
  const bool codes = sketch_bits >= 64 && hasher.writes_codes();
  auto sketches = codes ? hasher.table_for_overwrite(reads.size())
                        : kernels::SketchMatrix::for_overwrite(reads.size(), num_hashes);
  const auto lane_bits = static_cast<std::uint32_t>(codes ? 16 : sketch_bits);
  const std::uint64_t mask = sketch_bits_mask(sketch_bits);
  detail::run_in_place_job(
      "sketch", exec, pool, exec.records_per_split, reads,
      [&](std::span<const bio::FastaRecord> split, std::size_t first,
          mr::Emitter<std::uint32_t, mr::BlockReceipt>& emit) {
        sketches.with_cell([&]<typename Cell>(Cell) {
          for (std::size_t c = 0; c < split.size(); ++c) {
            const std::span<Cell> row = sketches.row<Cell>(first + c);
            hasher.sketch_into(split[c].seq, row);
            if (sketch_bits < 64) {
              for (Cell& cell : row) cell = static_cast<Cell>(cell & mask);
            }
          }
        });
        emit.count("reads.sketched", std::ssize(split));
        return mr::BinaryBlock::modelled_bytes(
            lane_bits, num_hashes, static_cast<std::uint32_t>(split.size()));
      },
      [num_hashes](const bio::FastaRecord& read) {
        return cost::sketch_work(read.seq.size(), num_hashes);
      },
      stats);
  return sketches;
}

/// Job 2: all-pairs similarity, map tasks own contiguous row ranges (the
/// paper's row-wise partition).  The sketch table plays the role of Pig's
/// GROUP-ALL broadcast relation.  Row r's task writes cell (r, r) and cells
/// (r, j), (j, r) for j > r of the stage's one matrix, scored by the local
/// SketchPairSimilarity: rows write disjoint cells that together cover the
/// matrix, and the map tasks first-touch its pages.  A task's receipt
/// models its rows' upper-triangle scores as count lanes
/// (detail::pair_score_bytes).
SimilarityMatrix run_similarity_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const PipelineParams& params, SketchEstimator estimator,
    const ExecutionOptions& exec, common::ThreadPool* pool,
    mr::JobStats& stats) {
  obs::pipeline::StageScope stage("similarity");
  const std::size_t n = sketches->rows();
  const std::size_t num_hashes = params.minhash.num_hashes;
  const SketchPairSimilarity scorer(*sketches, estimator);
  const std::size_t per_split = std::max<std::size_t>(
      1, n / std::max<std::size_t>(1, exec.cluster.map_slots() * 4));

  std::vector<std::uint32_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<std::uint32_t>(i);

  SimilarityMatrix matrix = SimilarityMatrix::for_overwrite(n);
  detail::run_in_place_job(
      "similarity", exec, pool, per_split, std::span<const std::uint32_t>(rows),
      [&](std::span<const std::uint32_t> split, std::size_t,
          mr::Emitter<std::uint32_t, mr::BlockReceipt>& emit) {
        std::uint64_t pairs = 0;
        sketches->with_cell([&]<typename Cell>(Cell) {
          for (const std::uint32_t row : split) {
            matrix.set(row, row, 1.0F);
            for (std::size_t j = row + 1; j < n; ++j) {
              matrix.set(row, j, static_cast<float>(scorer.at<Cell>(row, j)));
            }
            pairs += n - row - 1;
            emit.count("matrix.rows");
          }
        });
        return detail::pair_score_bytes(scorer, sketches->cols(), pairs);
      },
      [n, num_hashes](const std::uint32_t& row) {
        return static_cast<double>(n - row - 1) * cost::compare_work(num_hashes);
      },
      stats);
  return matrix;
}

// ------------------------------------------------ checkpoint serialization
// Stage results as mr::recovery checkpoint payloads.  Every encoder is an
// exact byte function of its value (no floats printed, no maps iterated in
// unstable order), so a deterministic recompute reproduces the identical
// payload — the property that keeps downstream checkpoints valid after an
// upstream invalidation.

// The sketch table: u64 rows, then per row u64 cols and its cols cells,
// u64 values or u16 codes.  A table of codes leads with kCodeTableTag
// (more rows than any payload holds, so never a row count).  Repeating
// cols on every row keeps the bytes of the per-sketch layout.  A row whose
// length differs from the first one is a corrupt checkpoint.
constexpr std::uint64_t kCodeTableTag = ~std::uint64_t{0};

void encode_sketches(mr::recovery::PayloadWriter& writer,
                     const kernels::SketchMatrix& sketches) {
  if (sketches.slot_disjoint()) writer.u64(kCodeTableTag);
  writer.u64(sketches.rows());
  sketches.with_cell([&]<typename Cell>(Cell) {
    for (std::size_t i = 0; i < sketches.rows(); ++i) {
      writer.u64(sketches.cols());
      for (const Cell cell : sketches.row<Cell>(i)) writer.put(cell, sizeof(Cell));
    }
  });
}

/// The payload must be in the cell width the stage writes (an older
/// build's table of values where this one writes codes is a miss), and a
/// table of codes `hasher`'s, every code a k-mer of its universe or
/// kEmptyFeatureCode.
kernels::SketchMatrix decode_sketches(mr::recovery::PayloadReader& reader,
                                      const MinHasher& hasher,
                                      std::size_t sketch_bits) {
  const bool codes = sketch_bits >= 64 && hasher.writes_codes();
  std::uint64_t rows = reader.u64();
  MRMC_CHECK(codes == (rows == kCodeTableTag), "sketch table in another cell width");
  if (codes) rows = reader.u64();
  if (rows == 0) return {};
  const std::uint64_t cols = reader.u64();
  // rows · cols cells and rows - 1 more cols words follow; bound the
  // allocation by them.
  const std::uint64_t cell_bytes = codes ? 2 : 8;
  MRMC_CHECK((!codes || cols == hasher.sketch_size()) &&
                 cols <= reader.remaining() / cell_bytes &&
                 rows <= (reader.remaining() + 8) / (cols * cell_bytes + 8),
             "sketch table unlike the hasher's or larger than its payload");
  auto sketches = codes ? hasher.table_for_overwrite(rows)
                        : kernels::SketchMatrix::for_overwrite(rows, cols);
  const std::uint64_t universe = bio::kmer_space_size(hasher.params().kmer);
  sketches.with_cell([&]<typename Cell>(Cell) {
    for (std::size_t i = 0; i < rows; ++i) {
      if (i > 0) MRMC_CHECK(reader.u64() == cols, "ragged sketch table");
      for (Cell& cell : sketches.row<Cell>(i)) {
        cell = static_cast<Cell>(codes ? reader.u16() : reader.u64());
        MRMC_CHECK(!codes || cell < universe || cell == kernels::kEmptyFeatureCode,
                   "code outside the k-mer universe");
      }
    }
  });
  return sketches;
}

void encode_labels(mr::recovery::PayloadWriter& writer,
                   const std::vector<int>& labels) {
  writer.u64(labels.size());
  for (const int label : labels) writer.i64(label);
}

std::vector<int> decode_labels(mr::recovery::PayloadReader& reader) {
  const std::uint64_t count = reader.u64();
  MRMC_CHECK(count <= reader.remaining() / 8, "label list larger than its payload");
  std::vector<int> labels(count);
  for (int& label : labels) label = static_cast<int>(reader.i64());
  return labels;
}

// The candidates stage's bucket CSR: u64 bands, u64 rows, u64 buckets,
// u64 ids, then every bucket's end offset and every id as u32s.  The pair
// list an older build stored under the same key (u64 pair count, then u32
// a, u32 b per pair) reads its first pair as the id count: a + 2^32·b with
// b > a >= 0 is more ids than the payload holds, so it is a miss, never a
// hit.
void encode_candidates(mr::recovery::PayloadWriter& writer,
                       const CandidateJobResult& candidates) {
  const candidates::BucketCsr& buckets = candidates.buckets;
  writer.u64(candidates.shape.bands);
  writer.u64(candidates.shape.rows);
  writer.u64(buckets.offsets.size() - 1);
  writer.u64(buckets.ids.size());
  for (std::size_t g = 1; g < buckets.offsets.size(); ++g) {
    writer.u32(buckets.offsets[g]);
  }
  for (const std::uint32_t id : buckets.ids) writer.u32(id);
}

CandidateJobResult decode_candidates(mr::recovery::PayloadReader& reader) {
  CandidateJobResult candidates;  // stats stay empty: the job never ran
  candidates.shape.bands = reader.u64();
  candidates.shape.rows = reader.u64();
  const std::uint64_t buckets = reader.u64();
  const std::uint64_t ids = reader.u64();
  MRMC_CHECK(ids <= reader.remaining() / 4 &&
                 buckets <= reader.remaining() / 4 - ids,
             "bucket lists larger than their payload");
  std::vector<std::uint32_t>& offsets = candidates.buckets.offsets;
  offsets.resize(buckets + 1);
  for (std::size_t g = 1; g <= buckets; ++g) offsets[g] = reader.u32();
  candidates.buckets.ids.resize(ids);
  for (std::uint32_t& id : candidates.buckets.ids) id = reader.u32();
  // Anything lsh_buckets could not have built is corrupt.
  candidates::validate_buckets(candidates.buckets,
                               std::numeric_limits<std::uint32_t>::max());
  return candidates;
}

void encode_graph(mr::recovery::PayloadWriter& writer,
                  const candidates::SparseSimilarityGraph& graph) {
  writer.u64(graph.num_vertices);
  writer.u64(graph.edges.size());
  for (const candidates::Edge& edge : graph.edges) {
    writer.u32(edge.a);
    writer.u32(edge.b);
    writer.f64(edge.similarity);
  }
}

candidates::SparseSimilarityGraph decode_graph(
    mr::recovery::PayloadReader& reader) {
  candidates::SparseSimilarityGraph graph;
  graph.num_vertices = reader.u64();
  const std::uint64_t count = reader.u64();
  MRMC_CHECK(count <= reader.remaining() / 16, "edge list larger than its payload");
  graph.edges.resize(count);
  for (candidates::Edge& edge : graph.edges) {
    edge.a = reader.u32();
    edge.b = reader.u32();
    edge.similarity = reader.f64();
  }
  // Verified edges are sorted, unique and a < b < num_vertices, as the
  // greedy sweep requires; anything else is corrupt.
  for (std::size_t e = 0; e < graph.edges.size(); ++e) {
    const candidates::Edge& edge = graph.edges[e];
    MRMC_CHECK(edge.a < edge.b && edge.b < graph.num_vertices &&
                   (e == 0 || std::pair(graph.edges[e - 1].a,
                                        graph.edges[e - 1].b) <
                                  std::pair(edge.a, edge.b)),
               "graph edges not strictly ascending with a < b < n");
  }
  return graph;
}

// The similarity matrix: u64 n, then n² f32 cells in row order.  Every cell
// holds a float value, so the f32 bytes are exact.
void encode_matrix(mr::recovery::PayloadWriter& writer,
                   const SimilarityMatrix& matrix) {
  const std::size_t n = matrix.size();
  writer.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const double value : matrix.row(i)) writer.f32(static_cast<float>(value));
  }
}

SimilarityMatrix decode_matrix(mr::recovery::PayloadReader& reader) {
  const std::size_t n = reader.u64();
  MRMC_CHECK(n == 0 || n <= reader.remaining() / 4 / n,
             "similarity matrix larger than its payload");
  SimilarityMatrix matrix = SimilarityMatrix::for_overwrite(n);
  double* data = matrix.mutable_data();
  for (std::size_t i = 0; i < n * n; ++i) data[i] = reader.f32();
  return matrix;
}

// ------------------------------------------------------------ fingerprints

/// Every knob that can change any stage's output enters the params
/// fingerprint; changing one invalidates the whole checkpoint chain.
std::uint64_t params_fingerprint(const PipelineParams& params) {
  mr::StableHasher hasher;
  mr::stable_hash_append(hasher, params.minhash.kmer);
  mr::stable_hash_append(hasher, params.minhash.num_hashes);
  mr::stable_hash_append(hasher, params.minhash.canonical);
  mr::stable_hash_append(hasher, params.minhash.seed);
  mr::stable_hash_append(hasher, params.minhash.modulus);
  mr::stable_hash_append(hasher, static_cast<int>(params.minhash.scheme));
  mr::stable_hash_append(hasher, params.sketch_bits);
  mr::stable_hash_append(hasher, static_cast<int>(params.mode));
  mr::stable_hash_append(hasher, params.theta);
  mr::stable_hash_append(hasher, static_cast<int>(params.linkage));
  mr::stable_hash_append(hasher, static_cast<int>(params.estimator));
  mr::stable_hash_append(hasher, static_cast<int>(params.greedy_estimator));
  mr::stable_hash_append(hasher,
                         static_cast<int>(params.candidates.backend));
  mr::stable_hash_append(hasher, params.candidates.bands);
  mr::stable_hash_append(hasher, params.candidates.target_recall);
  mr::stable_hash_append(hasher, params.candidates.seed);
  return hasher.finish();
}

std::uint64_t input_fingerprint(std::span<const bio::FastaRecord> reads) {
  mr::StableHasher hasher;
  mr::stable_hash_append(hasher, static_cast<std::uint64_t>(reads.size()));
  for (const bio::FastaRecord& read : reads) {
    mr::stable_hash_append(hasher, read.id);
    mr::stable_hash_append(hasher, read.seq);
  }
  return hasher.finish();
}

// ---------------------------------------------------------- the stage list

/// How the stage list runs.  Both modes run on the run's one pool, and a
/// stage's error keeps its type in both.  Local (no driver): each stage's
/// in-process body is a plain call — no checkpoint, lineage claim or stage
/// hook.  Distributed: each stage's MapReduce job is driven by the recovery
/// driver under the stage's name (the lineage stage name), so a checkpoint
/// hit claims the job's lineage slot and downstream sequence numbers match
/// an uninterrupted run.
struct StageRunner {
  common::ThreadPool* pool;  ///< never nullptr
  mr::recovery::StageDriver* driver = nullptr;

  [[nodiscard]] bool distributed() const noexcept { return driver != nullptr; }

  template <typename Local, typename Job, typename Encode, typename Decode>
  auto run(const char* name, Local&& local, Job&& job, Encode&& encode,
           Decode&& decode) const -> std::decay_t<decltype(local())> {
    if (driver == nullptr) return local();
    return driver->run_stage(name, std::forward<Job>(job),
                             std::forward<Encode>(encode),
                             std::forward<Decode>(decode));
  }
};

/// The LSH backend's candidates stage: the bucket CSR.  Band-shape selection
/// keeps the ORIGINAL theta (see EffectiveKnobs).
CandidateJobResult lsh_candidates(
    const std::shared_ptr<const kernels::SketchMatrix>& sketches,
    const PipelineParams& params, const ExecutionOptions& exec,
    const StageRunner& stages, PipelineResult& result) {
  CandidateJobResult buckets = stages.run(
      "candidates",
      [&] {
        CandidateJobResult local;
        local.shape = candidates::resolve_band_shape(
            params.candidates, sketches->cols(), params.theta);
        local.buckets = candidates::lsh_buckets(
            *sketches, local.shape, params.candidates.seed, stages.pool);
        return local;
      },
      [&] {
        return run_candidate_job(sketches, params.candidates, params.theta,
                                 exec, stages.pool);
      },
      encode_candidates, decode_candidates);
  result.candidate_stats = std::move(buckets.stats);
  result.sim_total_s += result.candidate_stats.timeline.total_s;
  return buckets;
}

/// The hierarchical LSH path's verify stage: the buckets' pairs, scored.
/// The pairs die with this frame, so the cluster stage never holds them.
candidates::SparseSimilarityGraph verify_buckets(
    const std::shared_ptr<const kernels::SketchMatrix>& sketches,
    const candidates::BucketCsr& buckets, SketchEstimator estimator,
    const ExecutionOptions& exec, const StageRunner& stages,
    PipelineResult& result) {
  const std::size_t n = sketches->rows();
  candidates::SparseSimilarityGraph graph = stages.run(
      "verify",
      [&] {
        return candidates::verify_pairs(
            *sketches, candidates::pairs_from_buckets(buckets, n, stages.pool),
            estimator, stages.pool);
      },
      [&] {
        auto verified = run_verify_job(
            sketches, candidates::pairs_from_buckets(buckets, n, stages.pool),
            estimator, exec, stages.pool);
        result.verify_stats = std::move(verified.stats);
        return std::move(verified.graph);
      },
      encode_graph, decode_graph);
  result.sim_total_s += result.verify_stats.timeline.total_s;
  result.candidate_pairs = graph.edges.size();
  return graph;
}

/// The pipeline's one stage list, for both modes: sketch -> (candidates |
/// candidates -> verify | similarity) -> greedy-cluster or
/// hierarchical-cluster.
void run_pipeline_stages(std::span<const bio::FastaRecord> reads,
                         const PipelineParams& params,
                         const ExecutionOptions& exec,
                         const StageRunner& stages, PipelineResult& result) {
  const EffectiveKnobs knobs = effective_knobs(params);
  const std::size_t n = reads.size();
  // One hasher for the sketch stage, freed with its rankings after it.
  const auto sketches = [&] {
    const MinHasher hasher(params.minhash);
    kernels::SketchMatrix table = stages.run(
        "sketch",
        [&] {
          return sketch_reads(reads, hasher, params.sketch_bits, stages.pool);
        },
        [&] {
          return run_sketch_job(reads, hasher, params.sketch_bits, exec,
                                stages.pool, result.sketch_stats);
        },
        encode_sketches, [&](mr::recovery::PayloadReader& reader) {
          return decode_sketches(reader, hasher, params.sketch_bits);
        });
    return std::make_shared<const kernels::SketchMatrix>(std::move(table));
  }();
  result.sim_total_s += result.sketch_stats.timeline.total_s;

  std::optional<CandidateJobResult> buckets;
  if (params.candidates.backend == candidates::Backend::kLshBanded) {
    buckets = lsh_candidates(sketches, params, exec, stages, result);
#if defined(__GLIBC__)
    // The candidates job's blocks, the only shuffle blocks a run still
    // builds, are freed but stay resident in the allocator; hand those
    // pages back before the cluster stage allocates.
    if (stages.distributed()) {
      obs::Tracer::Span trim_span(obs::Tracer::global(), "pipeline/malloc_trim");
      ::malloc_trim(0);
    }
#endif
  }
  const double compare_work = cost::compare_work(sketches->cols());

  if (params.mode == Mode::kGreedy) {
    const GreedyParams greedy{knobs.greedy_theta, knobs.greedy_estimator};
    std::size_t comparisons = 0;
    const auto cluster = [&] {
      GreedyResult swept =
          buckets ? greedy_cluster_buckets(*sketches, buckets->buckets, greedy)
                  : greedy_cluster(*sketches, greedy, stages.pool);
      comparisons = swept.comparisons;
      return std::move(swept.labels);
    };
    // The bucket sweep visits every read and at most every bucket entry.
    // Exhaustive greedy comparisons are data dependent; model the observed
    // ~N·sqrt(N) envelope with the per-comparison sketch cost.
    const double reduce_work =
        buckets ? (static_cast<double>(n) +
                   static_cast<double>(buckets->buckets.ids.size())) *
                      compare_work
                : static_cast<double>(n) *
                      std::max(1.0, std::sqrt(static_cast<double>(n))) *
                      compare_work;
    result.labels = stages.run(
        "greedy-cluster", cluster,
        [&] {
          return detail::run_cluster_job(
              detail::job_config("greedy-cluster", exec, stages.pool,
                                 exec.records_per_split, 1),  // GROUP ALL
              n, reduce_work, cluster, result.cluster_stats);
        },
        encode_labels, decode_labels);
    if (buckets) result.candidate_pairs = comparisons;
  } else {
    std::optional<candidates::SparseSimilarityGraph> graph;
    if (buckets) {
      graph = verify_buckets(sketches, buckets->buckets, knobs.estimator,
                             exec, stages, result);
      buckets.reset();
    }
    SimilarityMatrix matrix =
        graph ? similarity_matrix_from_graph(*graph)
              : stages.run(
                    "similarity",
                    [&] {
                      return pairwise_similarity_matrix(
                          *sketches, knobs.estimator, stages.pool);
                    },
                    [&] {
                      return run_similarity_job(sketches, params,
                                                knobs.estimator, exec,
                                                stages.pool,
                                                result.similarity_stats);
                    },
                    encode_matrix, decode_matrix);
    graph.reset();  // densified: the cluster stage reads the matrix only
    result.sim_total_s += result.similarity_stats.timeline.total_s;
    // The matrix is the run's one n² buffer: the cluster stage takes it and
    // agglomerate rewrites its cells to distances in place.  A re-run
    // reduce attempt (JobConfig::reduce_failure_rate) finds it consumed, so
    // the first call keeps its labels for every later one.
    std::optional<std::vector<int>> cut_labels;
    const auto cut = [&] {
      if (!cut_labels) {
        cut_labels = cut_dendrogram(
            agglomerate(std::move(matrix), params.linkage, stages.pool),
            knobs.theta);
      }
      return *cut_labels;
    };
    result.labels = stages.run(
        "hierarchical-cluster", cut,
        [&] {
          return detail::run_cluster_job(
              detail::job_config("hierarchical-cluster", exec, stages.pool,
                                 std::max<std::size_t>(1, n / 8), 1),
              n, cost::dendrogram_work(n), cut, result.cluster_stats);
        },
        encode_labels, decode_labels);
  }
  result.sim_total_s += result.cluster_stats.timeline.total_s;
}

}  // namespace

FastqPipelineResult run_pipeline_fastq(std::span<const bio::FastqRecord> reads,
                                       const bio::QualityFilter& qc,
                                       const PipelineParams& params,
                                       const ExecutionOptions& exec) {
  FastqPipelineResult result;
  {
    obs::Tracer::Span qc_span(obs::Tracer::global(), "pipeline/fastq_qc",
                              {{"reads", std::to_string(reads.size())}});
    const auto filtered = bio::quality_filter(reads, qc, &result.dropped);
    result.kept = bio::to_fasta(filtered);
  }
  obs::Registry::global()
      .counter("pipeline.fastq_reads_dropped")
      .add(static_cast<long>(result.dropped));
  obs::Registry::global()
      .counter("pipeline.fastq_reads_kept")
      .add(static_cast<long>(result.kept.size()));
  result.clustering = run_pipeline(result.kept, params, exec);
  return result;
}

PipelineResult run_pipeline(std::span<const bio::FastaRecord> reads,
                            const PipelineParams& params,
                            const ExecutionOptions& exec) {
  common::Stopwatch watch;
  MRMC_REQUIRE(valid_sketch_bits(params.sketch_bits),
               "sketch_bits must be one of {1, 2, 4, 8, 16, 32, 64}");
  // θ outside [0, 1] (NaN included) or a band count that cannot tile the
  // sketch is the caller's error in both modes, raised before any stage.
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  if (params.candidates.backend == candidates::Backend::kLshBanded) {
    (void)candidates::resolve_band_shape(
        params.candidates, params.minhash.num_hashes, params.theta);
  }
  PipelineResult result;
  if (reads.empty()) return result;

  obs::Tracer::Span pipeline_span(
      obs::Tracer::global(), std::string("pipeline ") + mode_name(params.mode),
      {{"reads", std::to_string(reads.size())},
       {"distributed", exec.distributed ? "true" : "false"}});

  mr::runtime::PoolLease lease(exec.threads, false);
  if (exec.distributed) {
    // Lineage root: every job this pipeline drives claims a (pipeline id,
    // stage, sequence) from this scope, so the doctor can stitch the jobs
    // back into one PipelineReport from the trace alone.
    obs::pipeline::PipelineScope lineage(std::string("pipeline-") +
                                         mode_name(params.mode));

    mr::recovery::StageDriver::Options driver_options;
    driver_options.label = std::string("pipeline-") + mode_name(params.mode);
    driver_options.checkpoint_dir = exec.checkpoint_dir;
    driver_options =
        mr::recovery::StageDriver::Options::from_env(driver_options);
    if (!driver_options.checkpoint_dir.empty()) {
      // Only fingerprint when checkpointing: the input hash walks every
      // read and is wasted work otherwise.
      driver_options.params_fingerprint = params_fingerprint(params);
      driver_options.input_fingerprint = input_fingerprint(reads);
    }
    mr::recovery::StageDriver driver(driver_options);

    try {
      // Degraded-cluster policy: a plan stranding every node would fail the
      // first job's validation; a checkpointing driver parks for resume
      // instead (an operator repairs the plan/cluster, re-runs, completed
      // stages hit).
      if (!exec.fault_plan.empty() && driver.checkpointing() &&
          !exec.fault_plan.leaves_schedulable(exec.cluster.nodes)) {
        driver.park("fault plan leaves no schedulable node");
      }
      run_pipeline_stages(reads, params, exec, {&lease.pool(), &driver},
                          result);
    } catch (...) {
      // A crashed/parked/failed driver still leaves complete artifacts
      // behind — the resume run's doctor needs this run's trace.
      result.recovery = driver.stats();
      obs::pipeline::write_configured_artifacts();
      throw;
    }
    result.recovery = driver.stats();
  } else {
    run_pipeline_stages(reads, params, exec, {&lease.pool()}, result);
  }

  result.num_clusters = count_clusters(result.labels);
  result.wall_s = watch.seconds();
  pipeline_span.arg("clusters", std::to_string(result.num_clusters));
  pipeline_span.arg("sim_total_s", obs::trace_double(result.sim_total_s));

  static const obs::Logger logger("core.pipeline");
  logger.info("pipeline finished",
              {{"mode", mode_name(params.mode)},
               {"reads", reads.size()},
               {"clusters", result.num_clusters},
               {"wall_s", result.wall_s},
               {"sim_total_s", result.sim_total_s}});

  // Honor MRMC_TRACE / MRMC_METRICS / MRMC_REPORT / MRMC_PIPELINE at every
  // pipeline boundary so even a caller that exits abnormally afterwards has
  // a complete artifact.
  obs::pipeline::write_configured_artifacts();
  return result;
}

}  // namespace mrmc::core
