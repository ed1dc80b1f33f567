// Table III reproduction — clustering performance on simulated (S1-S14) and
// real (R1) whole-metagenome reads: MrMC-MinH^h vs MrMC-MinH^g vs
// MetaCluster, reporting #Cluster, W.Acc, W.Sim and Time.  Also regenerates
// the Table II sample registry.
//
// Paper parameters: k=5, 100 hash functions, 8 EMR nodes.  Samples are
// synthesized at --scale of the paper's read counts (DESIGN.md §2).
//
//   ./table3_whole_metagenome [--samples=S1,S2] [--scale=0.02] [--reads=N]
//       [--theta-h=0.50] [--theta-g=0.32] [--kmer=5] [--hashes=100]
//       [--nodes=8] [--seed=42]
//       [--trace=t3.json] [--metrics] [--report[=t3.txt]]  # obs outputs
#include <iostream>
#include <sstream>

#include "bench_util.hpp"

namespace {

using namespace mrmc;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

void print_table2(const std::vector<simdata::WholeMetagenomeSpec>& specs) {
  common::TextTable table({"SID", "Species", "Ratio", "Taxonomic Difference",
                           "# Cluster", "# Reads"});
  for (const auto& spec : specs) {
    std::string species, ratio;
    for (std::size_t i = 0; i < spec.species.size(); ++i) {
      if (i) {
        species += ", ";
        ratio += ":";
      }
      species += spec.species[i].name + " [" +
                 common::fmt_f(spec.species[i].gc, 2) + "]";
      ratio += std::to_string(spec.species[i].ratio);
    }
    table.add_row({spec.sid, species, ratio, spec.taxonomic_difference,
                   spec.ground_truth_clusters < 0
                       ? "-"
                       : std::to_string(spec.ground_truth_clusters),
                   std::to_string(spec.paper_reads)});
  }
  std::cout << "Table II — whole-metagenome sample registry\n";
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  bench::apply_obs_flags(flags);
  const double scale = flags.real("scale", 0.02);
  const std::size_t fixed_reads = flags.num("reads", 0);
  const double theta_h = flags.real("theta-h", 0.50);
  const double theta_g = flags.real("theta-g", 0.32);
  const int kmer = static_cast<int>(flags.num("kmer", 5));
  const std::size_t hashes = flags.num("hashes", 100);
  const std::size_t nodes = flags.num("nodes", 8);
  const std::uint64_t seed = flags.num("seed", 42);

  std::vector<simdata::WholeMetagenomeSpec> specs;
  if (flags.flag("samples")) {
    for (const auto& sid : split_csv(flags.str("samples", ""))) {
      specs.push_back(simdata::whole_metagenome_spec(sid));
    }
  } else {
    specs = simdata::whole_metagenome_registry();
  }
  print_table2(specs);

  common::TextTable table({"SID", "Method", "# Cluster", "W.Acc", "W.Sim",
                           "Time", "SimTime"});
  for (const auto& spec : specs) {
    simdata::WholeMetagenomeOptions options;
    options.scale = scale;
    options.reads = fixed_reads;
    options.seed = seed;
    const auto sample = simdata::build_whole_metagenome(spec, options);
    const std::size_t min_size =
        bench::scaled_min_cluster_size(sample.size(), spec.paper_reads);

    std::vector<bench::MethodResult> results;
    results.push_back(bench::run_mrmc(sample, core::Mode::kHierarchical, kmer,
                                      hashes, theta_h, nodes, seed));
    results.push_back(bench::run_mrmc(sample, core::Mode::kGreedy, kmer, hashes,
                                      theta_g, nodes, seed));
    {
      common::Stopwatch watch;
      // word_size 3 and a loose merge threshold model MetaCluster's
      // published resolution on short noisy reads (it was designed for
      // contigs; the paper shows it slightly below MrMC-MinH^h).
      auto metacluster = baselines::metacluster_cluster(
          sample.reads, {.word_size = 3,
                         .max_group = std::max<std::size_t>(
                             16, sample.size() / 24),
                         .merge_distance = 0.10, .kmeans_rounds = 30, .seed = seed});
      auto wrapped = bench::wrap_baseline("MetaCluster", std::move(metacluster));
      wrapped.wall_s = watch.seconds();
      results.push_back(std::move(wrapped));
    }

    for (const auto& result : results) {
      const auto eval = bench::evaluate(result, sample, min_size);
      table.add_row({spec.sid, result.method, std::to_string(eval.clusters),
                     eval.wacc < 0 ? "-" : common::fmt_pct(eval.wacc),
                     common::fmt_pct(eval.wsim),
                     common::format_duration(result.wall_s),
                     result.sim_s < 0 ? "-" : common::format_duration(result.sim_s)});
    }
    std::cerr << "done " << spec.sid << " (" << sample.size() << " reads, "
              << "min cluster size " << min_size << ")\n";
  }

  std::cout << "Table III — clustering performance on whole-metagenome reads\n"
            << "(k=" << kmer << ", n=" << hashes << " hashes, theta_h=" << theta_h
            << ", theta_g=" << theta_g << ", " << nodes
            << " simulated nodes; Time = this process, SimTime = simulated "
               "cluster)\n";
  table.print(std::cout);
  bench::finish_obs(flags);
  return 0;
}
