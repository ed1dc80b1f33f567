#include "core/candidate_jobs.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "core/kernels.hpp"
#include "mr/block.hpp"
#include "mr/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"

namespace mrmc::core {

namespace detail {

mr::JobConfig job_config(const char* name, const ExecutionOptions& exec,
                         std::size_t records_per_split,
                         std::size_t num_reducers) {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers =
      num_reducers != 0 ? num_reducers
                        : std::max<std::size_t>(1, exec.cluster.reduce_slots());
  config.records_per_split = records_per_split;
  config.threads = exec.threads;
  config.fault_plan = exec.fault_plan;
  config.cluster = exec.cluster;
  return config;
}

std::vector<int> run_cluster_job(const mr::JobConfig& config, std::size_t n,
                                 double reduce_work,
                                 const std::function<std::vector<int>()>& cluster,
                                 mr::JobStats& stats) {
  obs::pipeline::StageScope stage(config.name);
  using ClusterJob =
      mr::Job<std::uint32_t, int, std::uint32_t, std::pair<std::uint32_t, int>>;
  ClusterJob job(
      config,
      [](const std::uint32_t& index, mr::Emitter<int, std::uint32_t>& emit) {
        emit.emit(0, index);
      },
      [&cluster](const int&, std::vector<std::uint32_t>& indices,
                 std::vector<std::pair<std::uint32_t, int>>& out,
                 mr::ReduceContext& context) {
        const std::vector<int> labels = cluster();
        std::sort(indices.begin(), indices.end());
        for (const std::uint32_t index : indices) {
          out.emplace_back(index, labels[index]);
        }
        context.count("clusters.formed",
                      static_cast<long>(count_clusters(labels)));
      });
  job.with_map_work([](const std::uint32_t&) { return 1e-7; });  // emit only
  job.with_reduce_work(
      [reduce_work](const int&, std::size_t) { return reduce_work; });

  std::vector<std::uint32_t> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = static_cast<std::uint32_t>(i);
  auto result = job.run(input);
  stats = std::move(result.stats);

  std::vector<int> labels(n, -1);
  for (const auto& [index, label] : result.output) labels[index] = label;
  return labels;
}

DendrogramLabels::DendrogramLabels(SimilarityMatrix matrix, Linkage linkage,
                                   double theta)
    : matrix_(std::move(matrix)), linkage_(linkage), theta_(theta) {}

std::vector<int> DendrogramLabels::operator()(common::ThreadPool* pool) {
  if (!dendrogram_) {
    MRMC_CHECK(!consumed_,
               "the similarity matrix went to an agglomerate that threw; "
               "no dendrogram is left to cut");
    consumed_ = true;
    dendrogram_ = agglomerate(std::move(matrix_), linkage_, pool);
  }
  return cut_dendrogram(*dendrogram_, theta_);
}

PairScoreLanes::PairScoreLanes(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    SketchEstimator estimator, std::size_t sketch_bits)
    : sketches_(std::move(sketches)),
      cols_(sketches_->cols()),
      score_(cols_) {
  // Set-based pairs re-compare sorted minima: sort every sketch once into a
  // store shared (read-only) by all map tasks.
  if (estimator == SketchEstimator::kSetBased) {
    store_ = std::make_shared<const SortedSketchStore>(*sketches_);
  } else if (sketch_bits < 64) {
    packed_ = std::make_shared<const kernels::PackedSketchMatrix>(
        kernels::PackedSketchMatrix::pack(*sketches_, sketch_bits));
  }
  // Match counts are ≤ K; set-based |∩| and |∪| are ≤ 2K.
  lane_bits_ = mr::min_lane_bits(store_ ? 2 * cols_ : cols_);
}

}  // namespace detail

CandidateJobResult run_candidate_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const candidates::Params& params, double theta,
    const ExecutionOptions& exec) {
  CandidateJobResult result;
  const std::size_t n = sketches->rows();
  if (n < 2) return result;

  if (params.backend == candidates::Backend::kExactAllPairs) {
    result.pairs = candidates::enumerate_pairs(*sketches, params, theta);
    return result;
  }

  obs::pipeline::StageScope stage("candidates");
  const std::size_t sketch_size = sketches->cols();
  const candidates::BandShape shape =
      candidates::resolve_band_shape(params, sketch_size, theta);
  result.shape = shape;
  const std::uint64_t seed = params.seed;
  MRMC_REQUIRE(n * shape.bands <= std::numeric_limits<std::uint32_t>::max(),
               "read ids and bucket entries must fit 32 bits");

  using BandJob = mr::Job<std::uint32_t, std::uint64_t, std::uint32_t,
                          std::vector<std::uint32_t>>;
  auto& bucket_hist =
      obs::Registry::global().histogram("pipeline.candidate_bucket_size");
  BandJob job(
      detail::job_config("candidates", exec, exec.records_per_split),
      [sketches, shape, seed](const std::uint32_t& id,
                              mr::Emitter<std::uint64_t, std::uint32_t>& emit) {
        const std::span<const std::uint64_t> sketch = sketches->row(id);
        for (std::size_t band = 0; band < shape.bands; ++band) {
          emit.emit(candidates::band_bucket_key(sketch, band, shape, seed), id);
        }
        emit.count("candidates.band_entries",
                   static_cast<long>(shape.bands));
      },
      [&bucket_hist](const std::uint64_t&, std::vector<std::uint32_t>& ids,
                     std::vector<std::vector<std::uint32_t>>& out,
                     mr::ReduceContext& context) {
        bucket_hist.observe(static_cast<double>(ids.size()));
        if (ids.size() < 2) return;
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        context.count("candidates.bucket_pairs",
                      static_cast<long>(ids.size() * (ids.size() - 1) / 2));
        if (ids.size() >= 2) out.push_back(std::move(ids));
      });
  job.with_map_work([sketch_size](const std::uint32_t&) {
    return cost::compare_work(sketch_size);  // one mix per component
  });
  job.with_reduce_work([](const std::uint64_t&, std::size_t count) {
    const auto m = static_cast<double>(count);
    return m * 20e-9 + m * (m - 1.0) * 1e-9;  // sort + pair emission
  });

  std::vector<std::uint32_t> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = static_cast<std::uint32_t>(i);
  auto run = job.run(input);
  result.stats = std::move(run.stats);

  // The driver expands the buckets row by row: the same pair may surface
  // from several bands (and reducers), and pairs_from_buckets dedups it per
  // row, so the candidate set does not depend on bucket order.
  candidates::BucketCsr buckets;
  for (const std::vector<std::uint32_t>& bucket : run.output) {
    buckets.ids.insert(buckets.ids.end(), bucket.begin(), bucket.end());
    buckets.offsets.push_back(static_cast<std::uint32_t>(buckets.ids.size()));
  }
  run.output = {};
  mr::runtime::PoolLease lease(exec.threads, false);
  result.pairs = candidates::pairs_from_buckets(buckets, n, &lease.pool());
  return result;
}

VerifyJobResult run_verify_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const std::vector<candidates::Pair>& pairs, SketchEstimator estimator,
    std::size_t sketch_bits, const ExecutionOptions& exec) {
  VerifyJobResult result;
  result.graph.num_vertices = sketches->rows();
  if (pairs.empty()) return result;

  obs::pipeline::StageScope stage("verify");
  // Splits partition the sorted unique pairs in order, so split s covers
  // pairs [s · per_split, ...) verbatim and the positional rejoin yields the
  // edges in canonical (a, b) order with no re-sort.  The sketch table plays
  // Pig's GROUP-ALL broadcast relation for every map task.
  const std::size_t num_hashes = sketches->cols();
  const detail::PairScoreLanes lanes(sketches, estimator, sketch_bits);
  const std::size_t per_split = std::max<std::size_t>(
      exec.records_per_split,
      pairs.size() / std::max<std::size_t>(1, exec.cluster.map_slots() * 4));
  const auto blocks = detail::run_block_job(
      "verify", exec, per_split, pairs,
      [lanes](std::span<const candidates::Pair> split,
              mr::Emitter<std::uint32_t, mr::BinaryBlock>& emit) {
        mr::BinaryBlock block = lanes.block(split.size());
        for (std::size_t r = 0; r < split.size(); ++r) {
          lanes.encode(block, r, split[r].first, split[r].second);
          emit.count("verify.pairs_scored");
        }
        return block;
      },
      [num_hashes](const candidates::Pair&) {
        return cost::compare_work(num_hashes);
      },
      result.stats);
  result.graph.edges.resize(pairs.size());
  for (const auto& [first, block] : blocks) {
    for (std::uint64_t r = 0; r < block.rows(); ++r) {
      const auto [a, b] = pairs[first + r];
      result.graph.edges[first + r] =
          candidates::Edge{a, b, lanes.decode(block, r)};
    }
  }
  return result;
}

}  // namespace mrmc::core
