// Table V reproduction — clustering the eight 16S environmental seawater
// samples (Sogin et al., Table I) with all eight methods, reporting
// #Cluster, W.Sim and Time per sample.  No ground truth (rare-biosphere
// community), exactly as in the paper.  Also regenerates Table I.
//
// Paper parameters: k=15, 50 hash functions, similarity threshold 95% for
// the alignment methods.  MinHash thresholds are sketch-Jaccard calibrated
// (see EXPERIMENTS.md).
//
//   ./table5_16s_environmental [--samples=53R,55R] [--scale=0.0166]
//       [--reads=N] [--kmer=15] [--hashes=50] [--theta-h=0.35]
//       [--theta-g=0.30] [--identity=0.95] [--nodes=8] [--seed=42]
//       [--trace=t5.json] [--metrics] [--report[=t5.txt]]  # obs outputs
#include <iostream>
#include <sstream>

#include "bench_util.hpp"

using namespace mrmc;

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

void print_table1(const std::vector<simdata::EnvSampleSpec>& specs) {
  common::TextTable table(
      {"SID", "Site", "La N, Lo W", "Dep", "T", "Reads"});
  for (const auto& spec : specs) {
    table.add_row({spec.sid, spec.site,
                   common::fmt_f(spec.lat, 3) + "," + common::fmt_f(spec.lon, 3),
                   std::to_string(spec.depth_m), common::fmt_f(spec.temp_c, 1),
                   std::to_string(spec.paper_reads)});
  }
  std::cout << "Table I — environmental DNA samples\n";
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  bench::apply_obs_flags(flags);
  const double scale = flags.real("scale", 1.0 / 60.0);
  const std::size_t fixed_reads = flags.num("reads", 0);
  const int kmer = static_cast<int>(flags.num("kmer", 15));
  const std::size_t hashes = flags.num("hashes", 50);
  const double theta_h = flags.real("theta-h", 0.35);
  const double theta_g = flags.real("theta-g", 0.30);
  const double identity = flags.real("identity", 0.95);
  const std::size_t nodes = flags.num("nodes", 8);
  const std::uint64_t seed = flags.num("seed", 42);

  std::vector<simdata::EnvSampleSpec> specs;
  if (flags.flag("samples")) {
    for (const auto& sid : split_csv(flags.str("samples", ""))) {
      specs.push_back(simdata::environmental_spec(sid));
    }
  } else {
    specs = simdata::environmental_registry();
  }
  print_table1(specs);

  common::TextTable table(
      {"Approach", "SID", "# Cluster", "W.Sim", "Time (s)", "SimTime (s)"});

  for (const auto& spec : specs) {
    simdata::Env16sOptions options;
    options.scale = scale;
    options.reads = fixed_reads;
    options.seed = seed;
    const auto sample = simdata::build_environmental(spec, options);
    // The environmental samples have no ground truth; hide the latent
    // labels from evaluation like the paper does.
    simdata::LabeledReads unlabeled = sample;
    unlabeled.labels.clear();
    const std::size_t min_size =
        bench::scaled_min_cluster_size(sample.size(), spec.paper_reads);

    std::vector<bench::MethodResult> results;
    results.push_back(bench::run_mrmc(unlabeled, core::Mode::kHierarchical, kmer,
                                      hashes, theta_h, nodes, seed,
                                      /*canonical=*/false));
    results.push_back(bench::run_mrmc(unlabeled, core::Mode::kGreedy, kmer,
                                      hashes, theta_g, nodes, seed,
                                      /*canonical=*/false));
    results.push_back(bench::wrap_baseline(
        "MC-LSH", baselines::mclsh_cluster(
                      unlabeled.reads, {.theta = theta_g, .kmer = kmer,
                                        .num_hashes = hashes, .bands = 10,
                                        .seed = seed})));
    results.push_back(bench::wrap_baseline(
        "UCLUST",
        baselines::uclust_cluster(unlabeled.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "CD-HIT",
        baselines::cdhit_cluster(unlabeled.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "ESPRIT",
        baselines::esprit_cluster(unlabeled.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "DOTUR",
        baselines::dotur_cluster(unlabeled.reads, {.identity = identity})));
    results.push_back(bench::wrap_baseline(
        "Mothur",
        baselines::mothur_cluster(unlabeled.reads, {.identity = identity})));

    for (const auto& result : results) {
      const auto eval = bench::evaluate(result, unlabeled, min_size, 16, 2);
      table.add_row({result.method, spec.sid, std::to_string(eval.clusters),
                     common::fmt_pct(eval.wsim), common::fmt_f(result.wall_s, 2),
                     result.sim_s < 0 ? "-" : common::fmt_f(result.sim_s, 1)});
    }
    std::cerr << "done " << spec.sid << " (" << sample.size() << " reads)\n";
  }

  std::cout << "Table V — 16S environmental samples\n"
            << "(MrMC/MC-LSH: k=" << kmer << ", n=" << hashes
            << "; alignment methods: identity=" << identity
            << "; Time = this process, SimTime = simulated cluster)\n";
  table.print(std::cout);
  bench::finish_obs(flags);
  return 0;
}
