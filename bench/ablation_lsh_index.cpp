// Ablation — candidate generation (DESIGN.md §6): exact all-pairs vs the
// LSH-banded backend of core::candidates on a growing 16S amplicon sample.
// The exact rows show the super-linear all-pairs wall; the LSH rows stay
// near-linear, and every LSH row reports its candidate recall/precision
// against the exact >= θ oracle plus label agreement (ARI) with the
// exhaustive sweep.  This is also the driver for the 1 M-read run in
// EXPERIMENTS.md:
//
//   ./ablation_lsh_index [--max-reads=3200] [--min-reads=400]
//                        [--exact-max=N]       skip exact above N reads
//                                              (default: max-reads)
//                        [--theta=0.9] [--bands=0]   0 = auto from θ
//                        [--recall-sample=N]   oracle subsample; 0 = all rows
//                        [--seed=42] [--bench-json[=path]]
//
// With --bench-json the sweep lands in BENCH_lsh.json (schema v1, keys
// reads/backend/bands) for the perf-gate regress doctor: wall_s is a noisy
// wall-clock metric, recall_accuracy is tight (fully deterministic for a
// given seed), counters are informational.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "eval/candidate_recall.hpp"
#include "eval/external_indices.hpp"

using namespace mrmc;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  bench::apply_obs_flags(flags);
  const std::size_t max_reads = flags.num("max-reads", 3200);
  const std::size_t min_reads = flags.num("min-reads", 400);
  const std::size_t exact_max =
      flags.num("exact-max", static_cast<long>(max_reads));
  const double theta = flags.real("theta", 0.9);
  const std::size_t bands = flags.num("bands", 0);
  const std::size_t recall_sample = flags.num("recall-sample", 0);
  const std::uint64_t seed = flags.num("seed", 42);
  const auto estimator = core::SketchEstimator::kComponentMatch;

  common::ThreadPool pool;
  bench::BenchRecord record("lsh", {"reads", "backend", "bands"});
  common::TextTable table({"# Reads", "exact s", "lsh s", "cand pairs",
                           "recall", "precision", "ARI(exact,lsh)"});

  for (std::size_t reads = min_reads; reads <= max_reads; reads *= 2) {
    // Rich community: many OTUs so the sweep produces many clusters.
    const auto genes = simdata::generate_16s_genes(reads / 10, {}, seed);
    simdata::AmpliconParams amplicon;
    amplicon.errors = simdata::ErrorModel::uniform(0.01);
    amplicon.read_length = 80;
    const auto sample = simdata::amplicon_reads(
        genes, std::vector<double>(genes.size(), 1.0), reads, amplicon,
        seed + 1);

    const core::MinHasher hasher({.kmer = 12, .num_hashes = 40, .seed = seed});
    const core::kernels::SketchMatrix matrix =
        bench::sketch_reads(hasher, sample.reads, &pool);

    const core::GreedyParams greedy{.theta = theta, .estimator = estimator};

    // Exact oracle: today's all-pairs greedy sweep.  Above --exact-max the
    // quadratic scan is the experiment's control we deliberately skip.
    const bool run_exact = reads <= exact_max;
    core::GreedyResult exact;
    double exact_s = -1.0;
    if (run_exact) {
      common::Stopwatch watch;
      exact = core::greedy_cluster(matrix, greedy);
      exact_s = watch.seconds();
      record.row()
          .num("reads", static_cast<long>(reads))
          .str("backend", "exact")
          .num("bands", 0L)
          .num("wall_s", exact_s)
          .num("comparisons", static_cast<long>(exact.comparisons))
          .num("clusters", static_cast<long>(exact.num_clusters));
    }

    core::candidates::Params lsh;
    lsh.backend = core::candidates::Backend::kLshBanded;
    lsh.bands = bands;
    common::Stopwatch lsh_watch;
    const auto graph =
        core::candidates::build_graph(matrix, lsh, theta, estimator, &pool);
    const auto banded = core::greedy_cluster_graph(graph, greedy);
    const double lsh_s = lsh_watch.seconds();

    const auto shape =
        core::candidates::resolve_band_shape(lsh, matrix.cols(), theta);
    const eval::CandidateRecallReport recall = eval::candidate_recall(
        matrix, theta, lsh, estimator, recall_sample, &pool);
    const double ari =
        run_exact ? eval::adjusted_rand_index(exact.labels, banded.labels)
                  : -1.0;

    auto& row = record.row()
                    .num("reads", static_cast<long>(reads))
                    .str("backend", "lsh")
                    .num("bands", static_cast<long>(shape.bands))
                    .num("wall_s", lsh_s)
                    .num("candidate_pairs", static_cast<long>(graph.edges.size()))
                    .num("clusters", static_cast<long>(banded.num_clusters))
                    .num("recall_accuracy", recall.recall)
                    .num("candidate_precision", recall.precision)
                    .num("recall_sample_reads", static_cast<long>(recall.reads));
    if (run_exact) row.num("ari_vs_exact", ari);

    table.add_row(
        {std::to_string(reads),
         run_exact ? common::fmt_f(exact_s, 3) : "-",
         common::fmt_f(lsh_s, 3), std::to_string(graph.edges.size()),
         common::fmt_f(recall.recall, 4), common::fmt_f(recall.precision, 4),
         run_exact ? common::fmt_f(ari, 3) : "-"});
  }

  std::cout << "Ablation — LSH-banded candidates vs exact all-pairs (theta="
            << theta << ")\n";
  table.print(std::cout);

  if (flags.flag("bench-json")) {
    const std::string path =
        flags.str("bench-json", record.default_path());
    const std::string target = path == "1" ? record.default_path() : path;
    if (record.write(target)) {
      std::cout << "\nwrote bench record to " << target << "\n";
    } else {
      std::cerr << "failed to write " << target << "\n";
      return 1;
    }
  }
  bench::finish_obs(flags);
  return 0;
}
