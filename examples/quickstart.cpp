// Quickstart: generate a tiny two-species metagenome, cluster it with both
// MrMC-MinH variants, and print quality metrics.
//
//   ./quickstart [reads] [theta] [greedy-theta]
#include <iostream>

#include "cli.hpp"
#include "core/mrmc.hpp"
#include "eval/metrics.hpp"
#include "simdata/datasets.hpp"

int main(int argc, char** argv) {
  using namespace mrmc;

  return examples::run_main("quickstart", [&] {
    const std::size_t reads =
        argc > 1 ? examples::parse_arg<std::size_t>("reads", argv[1], 1,
                                                    examples::kMaxReads)
                 : 400;
    // theta is estimator-scale dependent: the dendrogram cut wants a higher
    // threshold than the greedy representative test (see EXPERIMENTS.md).
    const double theta_hier =
        argc > 2 ? examples::parse_arg("theta", argv[2], 0.0, 1.0) : 0.54;
    const double theta_greedy =
        argc > 3 ? examples::parse_arg("greedy theta", argv[3], 0.0, 1.0)
                 : 0.32;

    // Build an S1-style sample: two species at species-level divergence.
    const auto& spec = simdata::whole_metagenome_spec("S1");
    simdata::WholeMetagenomeOptions options;
    options.reads = reads;
    const simdata::LabeledReads sample = simdata::build_whole_metagenome(spec, options);
    std::cout << "sample " << spec.sid << ": " << sample.size() << " reads from "
              << sample.species.size() << " species\n";

    core::PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 100, .canonical = true, .seed = 1};

    for (const core::Mode mode : {core::Mode::kHierarchical, core::Mode::kGreedy}) {
      params.mode = mode;
      params.theta = mode == core::Mode::kHierarchical ? theta_hier : theta_greedy;
      const core::PipelineResult result = core::run_pipeline(sample.reads, params);

      const double acc =
          eval::weighted_cluster_accuracy(result.labels, sample.labels);
      std::cout << core::mode_name(mode) << ": clusters=" << result.num_clusters
                << " W.Acc=" << acc * 100.0
                << " wall=" << common::format_duration(result.wall_s)
                << " sim-cluster-time=" << common::format_duration(result.sim_total_s)
                << "\n";
    }
    return 0;
  });
}
