// make_dataset — generate the paper's benchmark datasets as FASTA/FASTQ
// files on disk, for feeding cluster_fasta or external tools.
//
//   ./make_dataset table2 S9 out.fa [--reads=N] [--seed=S]
//   ./make_dataset table1 53R out.fa [--reads=N] [--seed=S]
//   ./make_dataset 16s 0.03 out.fa [--reads=N] [--seed=S]
//   ./make_dataset 16s 0.05 out.fq --fastq [--reads=N]   (with qualities)
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "bio/seq_stats.hpp"
#include "cli.hpp"
#include "common/table.hpp"
#include "simdata/datasets.hpp"
#include "simdata/fastq_sim.hpp"

namespace {

using namespace mrmc;

int usage() {
  std::cerr << "usage: make_dataset <table2|table1|16s> <sid|error-rate> "
               "<out-file> [--reads=N] [--seed=S] [--fastq]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string kind = argv[1];
  const std::string selector = argv[2];
  const std::string out_path = argv[3];

  return examples::run_main("make_dataset", [&] {
    std::size_t reads = 0;  // 0: the sample's default size
    std::uint64_t seed = 42;
    bool fastq = false;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--reads=", 0) == 0) {
        reads = examples::parse_arg<std::size_t>("--reads", arg.substr(8), 1,
                                                 examples::kMaxReads);
      } else if (arg.rfind("--seed=", 0) == 0) {
        seed = examples::parse_arg<std::uint64_t>(
            "--seed", arg.substr(7), 0,
            std::numeric_limits<std::uint64_t>::max());
      } else if (arg == "--fastq") {
        fastq = true;
      } else {
        return usage();
      }
    }

    simdata::LabeledReads sample;
    if (kind == "table2") {
      simdata::WholeMetagenomeOptions options;
      options.reads = reads;
      options.seed = seed;
      sample = simdata::build_whole_metagenome(
          simdata::whole_metagenome_spec(selector), options);
    } else if (kind == "table1") {
      simdata::Env16sOptions options;
      options.reads = reads;
      options.seed = seed;
      sample = simdata::build_environmental(
          simdata::environmental_spec(selector), options);
    } else if (kind == "16s") {
      simdata::Sim16sOptions options;
      if (reads != 0) options.reads = reads;
      options.error_rate =
          examples::parse_arg("error rate", selector, 0.0, 1.0);
      options.seed = seed;
      sample = simdata::build_16s_simulated(options);
    } else {
      return usage();
    }

    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "make_dataset: cannot write " << out_path << "\n";
      return 1;
    }
    if (fastq) {
      // The builders already injected errors; emit uniformly clean-looking
      // qualities for those reads (positions unknown at this layer).
      const auto records = simdata::attach_qualities(
          sample.reads,
          std::vector<std::vector<std::size_t>>(sample.size()), {}, seed);
      bio::write_fastq(out, records);
    } else {
      bio::write_fasta(out, sample.reads);
    }

    std::cerr << "wrote " << out_path << ": "
              << bio::compute_stats(sample.reads).summary() << "\n";
    if (sample.has_labels()) {
      std::cerr << "ground truth: " << sample.species.size()
                << " source organisms (labels in read headers)\n";
    }
    return 0;
  });
}
