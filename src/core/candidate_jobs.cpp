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

namespace {

mr::JobConfig job_config(const char* name, const ExecutionOptions& exec,
                         std::size_t records_per_split) {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers = std::max<std::size_t>(1, exec.cluster.reduce_slots());
  config.records_per_split = records_per_split;
  detail::apply_exec_options(config, exec);
  return config;
}

}  // namespace

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
  auto config = job_config("candidates", exec, exec.records_per_split);

  auto& bucket_hist =
      obs::Registry::global().histogram("pipeline.candidate_bucket_size");
  BandJob job(
      config,
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
  mr::runtime::PoolLease lease(exec.threads, exec.isolated_pool);
  result.pairs = candidates::pairs_from_buckets(buckets, n, &lease.pool());
  return result;
}

VerifyJobResult run_verify_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    std::vector<candidates::Pair> pairs, SketchEstimator estimator,
    std::size_t sketch_bits, const ExecutionOptions& exec) {
  VerifyJobResult result;
  result.graph.num_vertices = sketches->rows();
  if (pairs.empty()) return result;

  obs::pipeline::StageScope stage("verify");
  const std::size_t num_hashes = sketches->cols();

  // Shared read-only scoring structures, visible to every map task (the
  // sketch table plays Pig's GROUP-ALL broadcast relation).  Below 64 bits
  // the rows are b-bit packed and scored with the packed count_equal kernel
  // (the sketch job already truncated every value).
  const bool set_based = estimator == SketchEstimator::kSetBased;
  auto store = set_based ? std::make_shared<const SortedSketchStore>(*sketches)
                         : nullptr;
  auto packed = !set_based && sketch_bits < 64
                    ? std::make_shared<const kernels::PackedSketchMatrix>(
                          kernels::PackedSketchMatrix::pack(*sketches, sketch_bits))
                    : nullptr;
  const double inv_cols =
      num_hashes == 0 ? 0.0 : 1.0 / static_cast<double>(num_hashes);

  // Instead of one ((a, b), double) record per pair, each map task ships one
  // BinaryBlock of integer counts per split — match counts (≤ K) in one
  // column, or |∩|,|∪| (≤ 2K) in two — and the driver rebuilds the same
  // doubles positionally: `pairs` is sorted unique and splits partition it
  // in order, so split s covers pairs [s · per_split, ...) verbatim and the
  // final edge list needs no re-sort.
  const std::uint32_t lane_bits =
      mr::min_lane_bits(set_based ? 2 * num_hashes : num_hashes);
  using VerifyJob = mr::Job<candidates::Pair, std::uint32_t, mr::BinaryBlock,
                            std::pair<std::uint32_t, mr::BinaryBlock>>;
  const std::size_t per_split = std::max<std::size_t>(
      exec.records_per_split,
      pairs.size() / std::max<std::size_t>(1, exec.cluster.map_slots() * 4));
  auto config = job_config("verify", exec, per_split);

  VerifyJob job(
      config,
      [sketches, store, packed, set_based, lane_bits](
          std::span<const candidates::Pair> split, std::size_t split_index,
          mr::Emitter<std::uint32_t, mr::BinaryBlock>& emit) {
        mr::BinaryBlock block(lane_bits, split.size(), set_based ? 2 : 1);
        for (std::size_t r = 0; r < split.size(); ++r) {
          const auto [a, b] = split[r];
          if (set_based) {
            const auto [inter, uni] = store->jaccard_counts(a, b);
            block.set(0, r, inter);
            block.set(1, r, uni);
          } else if (packed != nullptr) {
            block.set(0, r, packed->count_equal_rows(a, b));
          } else if (sketches->cols() != 0) {
            block.set(0, r,
                      kernels::count_equal(sketches->row(a), sketches->row(b)));
          }
          emit.count("verify.pairs_scored");
        }
        emit.emit(static_cast<std::uint32_t>(split_index), std::move(block));
      },
      [](const std::uint32_t& key, std::vector<mr::BinaryBlock>& values,
         std::vector<std::pair<std::uint32_t, mr::BinaryBlock>>& out) {
        MRMC_CHECK(values.size() == 1, "one count block per pair split");
        out.emplace_back(key, std::move(values.front()));
      });
  job.with_map_work([num_hashes](const candidates::Pair&) {
    return cost::compare_work(num_hashes);
  });

  auto run = job.run(pairs);
  result.stats = std::move(run.stats);

  // Positional rejoin against the sorted-unique input pairs: edges come out
  // in canonical (a, b) order by construction.
  result.graph.edges.resize(pairs.size());
  for (const auto& [split_index, block] : run.output) {
    const std::size_t base = static_cast<std::size_t>(split_index) * per_split;
    for (std::uint64_t r = 0; r < block.rows(); ++r) {
      const auto [a, b] = pairs[base + r];
      double sim = 0.0;
      if (set_based) {
        sim = jaccard_from_counts(block.get(0, r), block.get(1, r));
      } else {
        sim = static_cast<double>(block.get(0, r)) * inv_cols;
      }
      result.graph.edges[base + r] = candidates::Edge{a, b, sim};
    }
  }
  return result;
}

}  // namespace mrmc::core
