// Whole-metagenome binning through the Pig dataflow — runs the paper's
// Algorithm 3 script end to end on the simulated Hadoop substrate:
// the FASTA sample is written into SimDFS, every dataflow statement
// executes as a MapReduce job, and both clustering outputs (hierarchical
// and greedy) land back in the DFS.  Prints the per-job breakdown.
//
//   ./pig_metagenome [sample-id] [cutoff]      (default: S9 0.5)
#include <iostream>
#include <map>

#include "cli.hpp"
#include "common/table.hpp"
#include "eval/metrics.hpp"
#include "pig/pig.hpp"
#include "simdata/datasets.hpp"

int main(int argc, char** argv) {
  using namespace mrmc;

  return examples::run_main("pig_metagenome", [&] {
    const std::string sid = argc > 1 ? argv[1] : "S9";
    const double cutoff =
        argc > 2 ? examples::parse_arg("cutoff", argv[2], 0.0, 1.0) : 0.5;

    const auto& spec = simdata::whole_metagenome_spec(sid);
    const auto sample =
        simdata::build_whole_metagenome(spec, {.reads = 300, .seed = 11});
    std::cout << "Sample " << spec.sid << " (" << spec.taxonomic_difference
              << "): " << sample.size() << " reads from "
              << sample.species.size() << " species\n\n";

    // Stand up the simulated HDFS and stage the input.
    mr::SimDfs dfs({.nodes = 8, .block_size = 64 * 1024, .replication = 3});
    dfs.write("/user/mrmc/input.fa", bio::write_fasta_string(sample.reads));
    std::cout << "staged " << dfs.stat("/user/mrmc/input.fa").blocks.size()
              << " DFS blocks (" << dfs.total_bytes() / 1024 << " KiB, 3x "
              << "replication across 8 nodes)\n\n";

    // Run Algorithm 3.
    pig::Algorithm3Params params;
    params.kmer = 5;
    params.num_hashes = 100;
    params.cutoff = cutoff;
    params.linkage = core::Linkage::kAverage;
    const auto result =
        pig::run_algorithm3(dfs, "/user/mrmc/input.fa", "/user/mrmc/out_hier",
                            "/user/mrmc/out_greedy", params, {.nodes = 8});

    std::cout << "Pig script finished: " << result.jobs_run
              << " MapReduce jobs, simulated cluster time "
              << common::format_duration(result.sim_time_s) << "\n";

    // Evaluate both outputs against the ground truth labels.
    auto evaluate = [&](const char* name,
                        const std::vector<std::pair<std::string, int>>& labeled) {
      std::map<std::string, int> by_id(labeled.begin(), labeled.end());
      std::vector<int> labels;
      labels.reserve(sample.size());
      for (const auto& read : sample.reads) labels.push_back(by_id.at(read.id));
      std::cout << "  " << name << ": "
                << eval::clusters_at_least(labels, 2) << " clusters (>=2 reads), "
                << "W.Acc "
                << common::fmt_pct(
                       eval::weighted_cluster_accuracy(labels, sample.labels))
                << "%\n";
    };
    evaluate("hierarchical", result.hierarchical);
    evaluate("greedy      ", result.greedy);

    std::cout << "\nDFS output files:\n";
    for (const auto& path : dfs.list("/user/mrmc/out")) {
      std::cout << "  " << path << "  (" << dfs.stat(path).size << " bytes)\n";
    }
    std::cout << "\nfirst lines of " << "/user/mrmc/out_hier" << ":\n";
    const std::string text = dfs.read("/user/mrmc/out_hier");
    std::size_t shown = 0, pos = 0;
    while (shown < 5 && pos < text.size()) {
      const auto end = text.find('\n', pos);
      std::cout << "  " << text.substr(pos, end - pos) << "\n";
      pos = end + 1;
      ++shown;
    }
    return 0;
  });
}
