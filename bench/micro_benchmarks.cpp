// Google-benchmark microbenchmarks for the performance-critical kernels:
// k-mer extraction, universal hashing / sketching, sketch comparison,
// global alignment, similarity-matrix assembly, dendrogram construction,
// and MapReduce engine overhead.
//
// `--bench-json[=path]` switches to a self-timed scalar-vs-kernel comparison
// of the core::kernels hot loops against faithful replicas of the pre-kernel
// implementations (feature-outer per-hash sketching; per-pair vector<Sketch>
// matrix fill) and writes BENCH_kernels.json for the CI perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "bio/alignment.hpp"
#include "bio/kmer.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/kernels.hpp"
#include "core/minhash.hpp"
#include "mr/job.hpp"
#include "simdata/genome.hpp"

namespace {

using namespace mrmc;

std::string random_seq(std::size_t length, std::uint64_t seed) {
  return simdata::random_genome("b", length, 0.5, seed).seq;
}

void BM_KmerExtraction(benchmark::State& state) {
  const auto seq = random_seq(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::extract_kmers(seq, {.k = 15}));
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_KmerExtraction)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KmerSetCanonical(benchmark::State& state) {
  const auto seq = random_seq(1000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::kmer_set(seq, {.k = 5, .canonical = true}));
  }
}
BENCHMARK(BM_KmerSetCanonical);

void BM_MinHashSketch(benchmark::State& state) {
  const core::MinHasher hasher(
      {.kmer = 15, .num_hashes = static_cast<std::size_t>(state.range(0)), .seed = 3});
  const auto seq = random_seq(1000, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.sketch(seq));
  }
}
BENCHMARK(BM_MinHashSketch)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_SketchCompareComponent(benchmark::State& state) {
  const core::MinHasher hasher({.kmer = 15, .num_hashes = 100, .seed = 5});
  const auto a = hasher.sketch(random_seq(500, 6));
  const auto b = hasher.sketch(random_seq(500, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::component_match_similarity(a, b));
  }
}
BENCHMARK(BM_SketchCompareComponent);

void BM_SketchCompareSetBased(benchmark::State& state) {
  const core::MinHasher hasher({.kmer = 15, .num_hashes = 100, .seed = 5});
  const auto a = hasher.sketch(random_seq(500, 6));
  const auto b = hasher.sketch(random_seq(500, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::set_based_similarity(a, b));
  }
}
BENCHMARK(BM_SketchCompareSetBased);

void BM_GlobalAlignment(benchmark::State& state) {
  const auto a = random_seq(static_cast<std::size_t>(state.range(0)), 8);
  const auto b = random_seq(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::global_identity(a, b));
  }
}
BENCHMARK(BM_GlobalAlignment)->Arg(60)->Arg(100)->Arg(300);

void BM_GlobalAlignmentBanded(benchmark::State& state) {
  const auto a = random_seq(300, 10);
  std::string b = a;
  b[10] = 'A';
  b[200] = 'C';
  for (auto _ : state) {
    benchmark::DoNotOptimize(bio::global_identity(a, b, {.band = 16}));
  }
}
BENCHMARK(BM_GlobalAlignmentBanded);

core::kernels::SketchMatrix bench_sketches(std::size_t count) {
  common::Xoshiro256 rng(11);
  const core::MinHasher hasher({.kmer = 15, .num_hashes = 50, .seed = 12});
  std::vector<std::string> seqs;
  seqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seqs.push_back(random_seq(100, rng()));
  const std::vector<std::string_view> views(seqs.begin(), seqs.end());
  return hasher.sketch_matrix(views);
}

void BM_SimilarityMatrix(benchmark::State& state) {
  const auto sketches = bench_sketches(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pairwise_similarity_matrix(
        sketches, core::SketchEstimator::kComponentMatch, nullptr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimilarityMatrix)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_Agglomerate(benchmark::State& state) {
  const auto sketches = bench_sketches(static_cast<std::size_t>(state.range(0)));
  const auto matrix = core::pairwise_similarity_matrix(
      sketches, core::SketchEstimator::kComponentMatch, nullptr);
  for (auto _ : state) {
    // agglomerate consumes its matrix; the copy stays outside the timing.
    state.PauseTiming();
    core::SimilarityMatrix work = matrix;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        core::agglomerate(std::move(work), core::Linkage::kAverage));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Agglomerate)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_GreedyCluster(benchmark::State& state) {
  const auto sketches = bench_sketches(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_cluster(sketches, {.theta = 0.3}));
  }
}
BENCHMARK(BM_GreedyCluster)->Arg(100)->Arg(400);

void BM_MinSketchKernel(benchmark::State& state) {
  const core::kernels::Backend backend =
      state.range(1) == 0 ? core::kernels::Backend::kScalar
                          : core::kernels::Backend::kAvx2;
  if (!core::kernels::backend_available(backend)) {
    state.SkipWithError("backend unavailable");
    return;
  }
  const core::MinHasher hasher(
      {.kmer = 15, .num_hashes = static_cast<std::size_t>(state.range(0)), .seed = 3});
  const auto features = bio::kmer_set(random_seq(1000, 4), {.k = 15});
  std::vector<std::uint64_t> out(hasher.sketch_size());
  for (auto _ : state) {
    core::kernels::min_sketch(hasher.family().multipliers(),
                              hasher.family().offsets(),
                              hasher.family().modulus(), features, out, backend);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(features.size()) * state.range(0));
}
BENCHMARK(BM_MinSketchKernel)
    ->ArgsProduct({{25, 100, 200}, {0, 1}})
    ->ArgNames({"hashes", "avx2"});

void BM_ComponentMatchMatrix(benchmark::State& state) {
  const core::kernels::Backend backend =
      state.range(1) == 0 ? core::kernels::Backend::kScalar
                          : core::kernels::Backend::kAvx2;
  if (!core::kernels::backend_available(backend)) {
    state.SkipWithError("backend unavailable");
    return;
  }
  const auto matrix = bench_sketches(static_cast<std::size_t>(state.range(0)));
  core::SimilarityMatrix out(matrix.rows());
  for (auto _ : state) {
    core::kernels::component_match_matrix(matrix, out.mutable_data(),
                                          matrix.rows(), backend);
    benchmark::DoNotOptimize(out.mutable_data());
  }
  const long pairs = state.range(0) * (state.range(0) - 1) / 2;
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * pairs);
}
BENCHMARK(BM_ComponentMatchMatrix)
    ->ArgsProduct({{100, 400}, {0, 1}})
    ->ArgNames({"n", "avx2"});

void BM_MapReduceOverhead(benchmark::State& state) {
  // Fixed-size identity job: measures the engine's per-job overhead.
  using IdJob = mr::Job<int, int, int, std::pair<int, int>>;
  std::vector<int> input(1000);
  for (int i = 0; i < 1000; ++i) input[i] = i;
  common::ThreadPool pool(1);
  for (auto _ : state) {
    mr::JobConfig config;
    config.pool = &pool;
    IdJob job(
        config,
        [](const int& record, mr::Emitter<int, int>& emit) {
          emit.emit(record, record);
        },
        [](const int& key, std::vector<int>& values,
           std::vector<std::pair<int, int>>& out) {
          out.emplace_back(key, values.front());
        });
    benchmark::DoNotOptimize(job.run(input));
  }
}
BENCHMARK(BM_MapReduceOverhead);

// --------------------------------------------------------------------------
// --bench-json mode: scalar-vs-kernel speedup measurement with pre-kernel
// baseline replicas, written as BENCH_kernels.json.

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    common::Stopwatch watch;
    fn();
    best = std::min(best, watch.seconds());
  }
  return best;
}

int run_kernel_json_bench(const bench::Flags& flags) {
  using core::kernels::Backend;
  const auto n_reads = static_cast<std::size_t>(flags.num("reads", 512));
  const auto num_hashes = static_cast<std::size_t>(flags.num("hashes", 100));
  const int reps = static_cast<int>(flags.num("reps", 5));

  const core::MinHasher hasher({.kmer = 15, .num_hashes = num_hashes, .seed = 3});
  const auto& family = hasher.family();

  // Feature sets of simulated 1000 bp reads (the paper's shotgun regime).
  std::vector<std::vector<std::uint64_t>> feature_sets;
  feature_sets.reserve(n_reads);
  std::size_t total_features = 0;
  for (std::size_t i = 0; i < n_reads; ++i) {
    feature_sets.push_back(bio::kmer_set(random_seq(1000, 100 + i), {.k = 15}));
    total_features += feature_sets.back().size();
  }
  const double hash_evals =
      static_cast<double>(total_features) * static_cast<double>(num_hashes);

  // Baseline replica of the pre-kernel MinHasher::sketch_features: feature-
  // outer loop with one virtual-free but scalar family.hash() per (x, i).
  auto sketch_baseline = [&] {
    for (const auto& features : feature_sets) {
      core::Sketch sketch(num_hashes, core::kEmptyMin);
      for (const std::uint64_t x : features) {
        for (std::size_t i = 0; i < num_hashes; ++i) {
          const std::uint64_t h = family.hash(i, x);
          if (h < sketch[i]) sketch[i] = h;
        }
      }
      benchmark::DoNotOptimize(sketch.data());
    }
  };
  std::vector<std::uint64_t> out(num_hashes);
  auto sketch_kernel = [&](Backend backend) {
    for (const auto& features : feature_sets) {
      core::kernels::min_sketch(family.multipliers(), family.offsets(),
                                family.modulus(), features, out, backend);
      benchmark::DoNotOptimize(out.data());
    }
  };

  const Backend active = core::kernels::active_backend();
  const double sketch_base_s = best_seconds(reps, sketch_baseline);
  const double sketch_scalar_s =
      best_seconds(reps, [&] { sketch_kernel(Backend::kScalar); });
  const double sketch_active_s =
      best_seconds(reps, [&] { sketch_kernel(active); });

  // Matrix fill: pre-kernel per-pair loop over vector<Sketch> vs the blocked
  // kernel over the flat SketchMatrix.
  std::vector<core::Sketch> vec_sketches;
  vec_sketches.reserve(n_reads);
  for (const auto& features : feature_sets) {
    vec_sketches.push_back(hasher.sketch_features(features));
  }
  const auto matrix = core::kernels::SketchMatrix::from_sketches(vec_sketches);
  core::SimilarityMatrix sim(n_reads);
  auto matrix_baseline = [&] {
    for (std::size_t i = 0; i < n_reads; ++i) {
      sim.set(i, i, 1.0F);
      for (std::size_t j = i + 1; j < n_reads; ++j) {
        const core::Sketch& a = vec_sketches[i];
        const core::Sketch& b = vec_sketches[j];
        std::size_t matches = 0;
        for (std::size_t c = 0; c < a.size(); ++c) {
          if (a[c] == b[c]) ++matches;
        }
        sim.set(i, j, static_cast<float>(static_cast<double>(matches) /
                                         static_cast<double>(a.size())));
      }
    }
    benchmark::DoNotOptimize(sim.mutable_data());
  };
  auto matrix_kernel = [&](Backend backend) {
    core::kernels::component_match_matrix(matrix, sim.mutable_data(), n_reads,
                                          backend);
    benchmark::DoNotOptimize(sim.mutable_data());
  };
  const double pairs = static_cast<double>(n_reads) *
                       static_cast<double>(n_reads - 1) / 2.0;
  const double matrix_base_s = best_seconds(reps, matrix_baseline);
  const double matrix_scalar_s =
      best_seconds(reps, [&] { matrix_kernel(Backend::kScalar); });
  const double matrix_active_s =
      best_seconds(reps, [&] { matrix_kernel(active); });

  // GB/s: bytes of sketch data the loop must touch (8 bytes per hash eval;
  // 2 rows of cols 64-bit minima per pair).
  const auto sketch_gbs = [&](double s) { return hash_evals * 8e-9 / s; };
  const auto matrix_gbs = [&](double s) {
    return pairs * 2.0 * static_cast<double>(num_hashes) * 8e-9 / s;
  };

  bench::BenchRecord record("kernels", {"section", "variant"});
  auto add_row = [&](const char* section, const char* variant, double seconds,
                     double per_unit_ns, double gbs, double speedup) {
    record.row()
        .str("section", section)
        .str("variant", variant)
        .num("seconds", seconds)
        .num(section == std::string("sketch") ? "ns_per_kmer_hash" : "ns_per_pair",
             per_unit_ns)
        .num("gb_per_s", gbs)
        .num("speedup_vs_baseline", speedup);
  };
  add_row("sketch", "baseline_feature_outer", sketch_base_s,
          sketch_base_s * 1e9 / hash_evals, sketch_gbs(sketch_base_s), 1.0);
  add_row("sketch", "kernel_scalar", sketch_scalar_s,
          sketch_scalar_s * 1e9 / hash_evals, sketch_gbs(sketch_scalar_s),
          sketch_base_s / sketch_scalar_s);
  add_row("sketch", std::string("kernel_" + std::string(core::kernels::backend_name(active))).c_str(),
          sketch_active_s, sketch_active_s * 1e9 / hash_evals,
          sketch_gbs(sketch_active_s), sketch_base_s / sketch_active_s);
  add_row("matrix", "baseline_vector_sketch", matrix_base_s,
          matrix_base_s * 1e9 / pairs, matrix_gbs(matrix_base_s), 1.0);
  add_row("matrix", "kernel_scalar", matrix_scalar_s,
          matrix_scalar_s * 1e9 / pairs, matrix_gbs(matrix_scalar_s),
          matrix_base_s / matrix_scalar_s);
  add_row("matrix", std::string("kernel_" + std::string(core::kernels::backend_name(active))).c_str(),
          matrix_active_s, matrix_active_s * 1e9 / pairs,
          matrix_gbs(matrix_active_s), matrix_base_s / matrix_active_s);
  record.row()
      .str("section", "summary")
      .str("active_backend", core::kernels::backend_name(active))
      .num("reads", static_cast<long>(n_reads))
      .num("hashes", static_cast<long>(num_hashes))
      .num("sketch_speedup", sketch_base_s / sketch_active_s)
      .num("matrix_speedup", matrix_base_s / matrix_active_s);

  const std::string json = flags.str("bench-json", "");
  const std::string path = json.empty() || json == "1" ? record.default_path() : json;
  if (!record.write(path)) {
    std::cerr << "failed to write " << path << "\n";
    return 1;
  }
  std::cout << "kernel bench (" << n_reads << " reads, " << num_hashes
            << " hashes, backend " << core::kernels::backend_name(active)
            << ")\n"
            << "  sketch: baseline " << sketch_base_s * 1e9 / hash_evals
            << " ns/kmer-hash, kernel " << sketch_active_s * 1e9 / hash_evals
            << " ns/kmer-hash  -> " << sketch_base_s / sketch_active_s << "x\n"
            << "  matrix: baseline " << matrix_base_s * 1e9 / pairs
            << " ns/pair, kernel " << matrix_active_s * 1e9 / pairs
            << " ns/pair  -> " << matrix_base_s / matrix_active_s << "x\n"
            << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mrmc::bench::Flags flags(argc, argv);
  if (flags.flag("bench-json")) return run_kernel_json_bench(flags);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
