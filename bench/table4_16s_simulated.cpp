// Table IV reproduction — clustering the simulated 16S benchmark (reads
// drawn from 43 reference genes) at 3% and 5% sequencing error, comparing
// all eight methods: MrMC-MinH^h/^g, MC-LSH, UCLUST, CD-HIT, ESPRIT,
// DOTUR, Mothur.  Reports #Cluster and W.Sim per method; ground truth is
// 43 genes.
//
// Paper parameters for MrMC-MinH on 16S data: k=15, 50 hash functions.
// The paper's theta is an alignment-identity threshold (0.95); sketch
// Jaccard lives on a different scale, so the MinHash methods take their
// own calibrated cuts (see EXPERIMENTS.md).
//
//   ./table4_16s_simulated [--reads=600] [--genomes=43] [--kmer=15]
//       [--hashes=50] [--theta-h=0.12] [--theta-g=0.05] [--identity=0.95]
//       [--nodes=8] [--seed=42]
//       [--trace=t4.json] [--metrics] [--report[=t4.txt]]  # obs outputs
#include <iostream>

#include "bench_util.hpp"

using namespace mrmc;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  bench::apply_obs_flags(flags);
  const std::size_t reads = flags.num("reads", 600);
  const std::size_t genomes = flags.num("genomes", 43);
  const int kmer = static_cast<int>(flags.num("kmer", 15));
  const std::size_t hashes = flags.num("hashes", 50);
  const double theta_h = flags.real("theta-h", 0.12);
  const double theta_g = flags.real("theta-g", 0.05);
  const double identity = flags.real("identity", 0.95);
  const std::size_t nodes = flags.num("nodes", 8);
  const std::uint64_t seed = flags.num("seed", 42);

  common::TextTable table(
      {"Method", "ErrorRate", "# Cluster", "W.Sim", "W.Acc", "Time"});

  for (const double error_rate : {0.03, 0.05}) {
    const auto sample = simdata::build_16s_simulated(
        {.genomes = genomes, .reads = reads, .error_rate = error_rate,
         .seed = seed});
    // Paper filter: 50-of-345k scaled to our read count.
    const std::size_t min_size = bench::scaled_min_cluster_size(reads, 345000);

    std::vector<bench::MethodResult> results;
    results.push_back(bench::run_mrmc(sample, core::Mode::kHierarchical, kmer,
                                      hashes, theta_h, nodes, seed,
                                      /*canonical=*/false));
    results.push_back(bench::run_mrmc(sample, core::Mode::kGreedy, kmer, hashes,
                                      theta_g, nodes, seed, /*canonical=*/false));
    results.push_back(bench::wrap_baseline(
        "MC-LSH", baselines::mclsh_cluster(
                      sample.reads, {.theta = theta_g, .kmer = kmer,
                                     .num_hashes = hashes, .bands = 10,
                                     .seed = seed})));
    results.push_back(bench::wrap_baseline(
        "UCLUST", baselines::uclust_cluster(sample.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "CD-HIT", baselines::cdhit_cluster(sample.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "ESPRIT", baselines::esprit_cluster(sample.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "DOTUR", baselines::dotur_cluster(sample.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "Mothur", baselines::mothur_cluster(sample.reads, {.identity = identity})));

    for (const auto& result : results) {
      const auto eval = bench::evaluate(result, sample, min_size, 16, 2);
      table.add_row({result.method, common::fmt_pct(error_rate, 0) + "%",
                     std::to_string(eval.clusters), common::fmt_pct(eval.wsim),
                     eval.wacc < 0 ? "-" : common::fmt_pct(eval.wacc),
                     common::format_duration(result.wall_s)});
      std::cerr << "done " << result.method << " @" << error_rate << "\n";
    }
  }

  std::cout << "Table IV — 16S simulated dataset (" << genomes
            << " reference genes, " << reads << " reads; ground truth = "
            << genomes << " clusters)\n"
            << "(MrMC/MC-LSH: k=" << kmer << ", n=" << hashes
            << "; alignment methods: identity=" << identity << ")\n";
  table.print(std::cout);
  bench::finish_obs(flags);
  return 0;
}
