#include "core/candidate_jobs.hpp"

#include <array>
#include <bit>
#include <limits>

namespace mrmc::core {

namespace detail {

mr::JobConfig job_config(const char* name, const ExecutionOptions& exec,
                         common::ThreadPool* pool,
                         std::size_t records_per_split,
                         std::size_t num_reducers) {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers =
      num_reducers != 0 ? num_reducers
                        : std::max<std::size_t>(1, exec.cluster.reduce_slots());
  config.records_per_split = records_per_split;
  config.pool = pool;
  config.fault_plan = exec.fault_plan;
  config.cluster = exec.cluster;
  return config;
}

std::vector<int> run_cluster_job(const mr::JobConfig& config, std::size_t n,
                                 double reduce_work,
                                 const std::function<std::vector<int>()>& cluster,
                                 mr::JobStats& stats) {
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

}  // namespace detail

CandidateJobResult run_candidate_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const candidates::Params& params, double theta,
    const ExecutionOptions& exec, common::ThreadPool* pool) {
  MRMC_REQUIRE(params.backend == candidates::Backend::kLshBanded,
               "only the LSH backend has a candidates stage");
  CandidateJobResult result;
  const std::size_t n = sketches->rows();
  const std::size_t sketch_size = sketches->cols();
  const candidates::BandShape shape =
      candidates::resolve_band_shape(params, sketch_size, theta);
  result.shape = shape;
  if (n < 2) return result;

  MRMC_REQUIRE(n * shape.bands <= std::numeric_limits<std::uint32_t>::max(),
               "read ids and bucket entries must fit 32 bits");

  // Reducer r owns parts [first_part(r), first_part(r + 1)); with more
  // reducers than parts some own none.  A map task ships each reducer its
  // split's entries in those parts as one block of byte lanes: lane b holds
  // byte b % 8 of the key (b < 8) or of the read id (b >= 8), and the id
  // gets as few lanes as the read count needs.  The map input is the row
  // ids in order, so a split is the row range starting at split.front().
  const mr::JobConfig config =
      detail::job_config("candidates", exec, pool, exec.records_per_split);
  const std::size_t reducers = config.num_reducers;
  auto first_part = [reducers](std::size_t r) {
    return candidates::kParts * r / reducers;
  };
  const auto lanes = static_cast<std::uint32_t>(
      8 + std::max<std::size_t>(1, (std::bit_width(n - 1) + 7) / 8));

  using CandidateJob = mr::Job<std::uint32_t, std::uint32_t, mr::BinaryBlock,
                               candidates::BucketCsr>;
  CandidateJob job(
      config,
      [sketches, shape, seed = params.seed, reducers, first_part, lanes](
          std::span<const std::uint32_t> split, std::size_t,
          mr::Emitter<std::uint32_t, mr::BinaryBlock>& emit) {
        std::vector<std::size_t> part_start;
        const std::vector<candidates::BucketEntry> entries =
            candidates::part_entries(*sketches, shape, seed, split.front(),
                                     split.front() + split.size(), part_start);
        for (std::size_t r = 0; r < reducers; ++r) {
          const std::size_t lo = part_start[first_part(r)];
          const std::size_t hi = part_start[first_part(r + 1)];
          if (lo == hi) continue;
          mr::BinaryBlock block(8, hi - lo, lanes);
          for (std::size_t e = lo; e < hi; ++e) {
            const std::uint64_t word[2] = {entries[e].first, entries[e].second};
            for (std::uint32_t b = 0; b < lanes; ++b) {
              block.set(b, e - lo, word[b / 8] >> (8 * (b % 8)));
            }
          }
          emit.emit(static_cast<std::uint32_t>(r), std::move(block));
        }
        emit.count("candidates.band_entries", std::ssize(entries));
      },
      [lanes](const std::uint32_t&, std::vector<mr::BinaryBlock>& blocks,
              std::vector<candidates::BucketCsr>& out,
              mr::ReduceContext& context) {
        // The blocks hold whole parts, so one sort of all their entries
        // gives the order the local enumerator's per-part sorts give.
        std::vector<candidates::BucketEntry> entries;
        for (const mr::BinaryBlock& block : blocks) {
          for (std::uint64_t e = 0; e < block.rows(); ++e) {
            std::uint64_t word[2] = {0, 0};
            for (std::uint32_t b = 0; b < lanes; ++b) {
              word[b / 8] |= block.get(b, e) << (8 * (b % 8));
            }
            entries.emplace_back(word[0], static_cast<std::uint32_t>(word[1]));
          }
        }
        candidates::BucketCsr slice = candidates::sort_and_compact(
            entries, std::array<std::size_t, 2>{0, entries.size()});
        long pairs = 0;
        for (std::size_t g = 0; g + 1 < slice.offsets.size(); ++g) {
          const long ids = slice.offsets[g + 1] - slice.offsets[g];
          pairs += ids * (ids - 1) / 2;
        }
        context.count("candidates.bucket_pairs", pairs);
        out.push_back(std::move(slice));
      });
  job.with_partitioner([](const std::uint32_t& r) { return r; });
  job.with_map_work([sketch_size](const std::uint32_t&) {
    return cost::compare_work(sketch_size);  // one mix per component
  });
  // The model sees only the block count: it charges the reducer's expected
  // share of the n · bands entries (keys hash uniformly over the parts) at
  // 20 ns each for the sort and compaction.
  job.with_reduce_work([=](const std::uint32_t& r, std::size_t) {
    return static_cast<double>(n * shape.bands) * 20e-9 *
           static_cast<double>(first_part(r + 1) - first_part(r)) /
           static_cast<double>(candidates::kParts);
  });

  std::vector<std::uint32_t> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = static_cast<std::uint32_t>(i);
  auto run = job.run(input);
  result.stats = std::move(run.stats);

  // The slices join in reducer order, which is part order: exactly the
  // local candidates::lsh_buckets CSR.  The join runs serially between jobs,
  // so it gets its own span.
  obs::Tracer::Span join_span(obs::Tracer::global(), "pipeline/candidates_join",
                              {{"slices", std::to_string(run.output.size())}});
  candidates::BucketCsr& buckets = result.buckets;
  for (const candidates::BucketCsr& slice : run.output) {
    const auto base = static_cast<std::uint32_t>(buckets.ids.size());
    buckets.ids.insert(buckets.ids.end(), slice.ids.begin(), slice.ids.end());
    for (std::size_t g = 1; g < slice.offsets.size(); ++g) {
      buckets.offsets.push_back(base + slice.offsets[g]);
    }
  }
  return result;
}

}  // namespace mrmc::core
