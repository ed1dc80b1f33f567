// Environmental 16S binning — the paper's motivating workflow: cluster an
// unlabeled seawater amplicon sample into OTUs, then derive the community
// statistics microbial ecologists actually want (OTU abundance profile,
// Shannon diversity, Chao1 richness — the Sogin et al. "rare biosphere"
// analysis).
//
//   ./env16s_binning [sample-id] [theta]      (default: 53R 0.35)
#include <algorithm>
#include <iostream>

#include "cli.hpp"
#include "common/table.hpp"
#include "core/mrmc.hpp"
#include "eval/metrics.hpp"
#include "simdata/datasets.hpp"

int main(int argc, char** argv) {
  using namespace mrmc;

  return examples::run_main("env16s_binning", [&] {
    const std::string sid = argc > 1 ? argv[1] : "53R";
    const double theta =
        argc > 2 ? examples::parse_arg("theta", argv[2], 0.0, 1.0) : 0.35;

    const auto& spec = simdata::environmental_spec(sid);
    std::cout << "Sample " << spec.sid << " — " << spec.site << " ("
              << spec.depth_m << " m, " << spec.temp_c << " C, paper reads: "
              << spec.paper_reads << ")\n";

    const auto sample = simdata::build_environmental(spec, {});
    std::cout << "synthesized " << sample.size() << " reads (avg "
              << [&] {
                   std::size_t total = 0;
                   for (const auto& read : sample.reads) total += read.seq.size();
                   return total / sample.size();
                 }()
              << " bp)\n\n";

    // Cluster with the paper's 16S parameters: k=15, 50 hash functions,
    // agglomerative hierarchical clustering on the simulated cluster.
    core::PipelineParams params;
    params.minhash = {.kmer = 15, .num_hashes = 50, .seed = 7};
    params.mode = core::Mode::kHierarchical;
    params.theta = theta;
    core::ExecutionOptions exec;
    exec.cluster.nodes = 8;

    const auto result = core::run_pipeline(sample.reads, params, exec);
    std::cout << "clustered into " << result.num_clusters << " OTUs in "
              << common::format_duration(result.wall_s) << " (simulated 8-node "
              << "cluster time " << common::format_duration(result.sim_total_s)
              << ")\n\n";

    // OTU abundance profile: top 10 plus the tail.
    const auto sizes = eval::cluster_sizes(result.labels);
    std::vector<std::size_t> order(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return sizes[a] > sizes[b]; });

    std::cout << "OTU abundance profile (top 10):\n";
    for (std::size_t rank = 0; rank < std::min<std::size_t>(10, order.size());
         ++rank) {
      const std::size_t otu = order[rank];
      const double fraction =
          static_cast<double>(sizes[otu]) / static_cast<double>(sample.size());
      std::cout << "  OTU_" << otu << "  " << sizes[otu] << " reads  ("
                << common::fmt_pct(fraction, 1) << "%)  "
                << std::string(static_cast<std::size_t>(fraction * 60), '#') << "\n";
    }
    const std::size_t singletons =
        std::count(sizes.begin(), sizes.end(), std::size_t{1});
    std::cout << "  ... " << singletons
              << " singleton OTUs (the rare biosphere)\n\n";

    std::cout << "diversity estimates:\n"
              << "  Shannon index H' = "
              << common::fmt_f(eval::shannon_index(result.labels), 3) << "\n"
              << "  Chao1 richness   = "
              << common::fmt_f(eval::chao1_richness(result.labels), 1)
              << " (observed " << result.num_clusters << ")\n";
    return 0;
  });
}
