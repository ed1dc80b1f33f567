// cluster_fasta — a small command-line clustering tool over the public API:
// reads any FASTA file, clusters it with MrMC-MinH, and writes a TSV of
// (read id, cluster label) to stdout.  Demonstrates using the library on
// your own data rather than the synthetic benchmarks.
//
//   ./cluster_fasta <reads.fa> [--mode=hier|greedy] [--kmer=15] [--hashes=50]
//       [--theta=0.35] [--linkage=single|average|complete] [--nodes=8]
//       [--local] [--seed=1] [--summary]
//
// Try it on a generated sample:
//   ./pig_metagenome   # or write your own FASTA
#include <charconv>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "common/table.hpp"
#include "core/mrmc.hpp"
#include "eval/metrics.hpp"

namespace {

using namespace mrmc;

int usage() {
  std::cerr << "usage: cluster_fasta <reads.fa> [--mode=hier|greedy] "
               "[--kmer=K] [--hashes=N] [--theta=T] "
               "[--linkage=single|average|complete] [--nodes=N] [--local] "
               "[--seed=S] [--summary]\n";
  return 2;
}

std::string opt_value(const std::string& arg) {
  const auto eq = arg.find('=');
  return eq == std::string::npos ? "" : arg.substr(eq + 1);
}

/// The whole of `value` as a number in [lo, hi], or nothing: a trailing
/// character, a sign an unsigned type cannot take, NaN or an out-of-range
/// value all read as nothing.
template <typename T>
std::optional<T> parse_in(const std::string& value, T lo, T hi) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end || !(out >= lo && out <= hi)) {
    return std::nullopt;
  }
  return out;
}

/// Pig's $NUMHASH bound: far above the paper's 50 and 100.
constexpr std::size_t kMaxHashes = std::size_t{1} << 16;

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]).rfind("--", 0) == 0) return usage();
  const std::string path = argv[1];

  core::PipelineParams params;
  params.minhash = {.kmer = 15, .num_hashes = 50, .seed = 1};
  params.theta = 0.35;
  core::ExecutionOptions exec;
  exec.cluster.nodes = 8;
  bool summary = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string value = opt_value(arg);
    if (arg.rfind("--mode=", 0) == 0) {
      if (value == "greedy") {
        params.mode = core::Mode::kGreedy;
      } else if (value == "hier") {
        params.mode = core::Mode::kHierarchical;
      } else {
        return usage();
      }
    } else if (arg.rfind("--kmer=", 0) == 0) {
      const auto kmer = parse_in(value, 1, bio::kMaxKmerK);
      if (!kmer) return usage();
      params.minhash.kmer = *kmer;
    } else if (arg.rfind("--hashes=", 0) == 0) {
      const auto hashes = parse_in<std::size_t>(value, 1, kMaxHashes);
      if (!hashes) return usage();
      params.minhash.num_hashes = *hashes;
    } else if (arg.rfind("--theta=", 0) == 0) {
      const auto theta = parse_in(value, 0.0, 1.0);
      if (!theta) return usage();
      params.theta = *theta;
    } else if (arg.rfind("--linkage=", 0) == 0) {
      if (value == "single") {
        params.linkage = core::Linkage::kSingle;
      } else if (value == "average") {
        params.linkage = core::Linkage::kAverage;
      } else if (value == "complete") {
        params.linkage = core::Linkage::kComplete;
      } else {
        return usage();
      }
    } else if (arg.rfind("--nodes=", 0) == 0) {
      const auto nodes = parse_in<std::size_t>(
          value, 1, std::numeric_limits<std::size_t>::max());
      if (!nodes) return usage();
      exec.cluster.nodes = *nodes;
    } else if (arg == "--local") {
      exec.distributed = false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      const auto seed = parse_in<std::uint64_t>(
          value, 0, std::numeric_limits<std::uint64_t>::max());
      if (!seed) return usage();
      params.minhash.seed = *seed;
    } else if (arg == "--summary") {
      summary = true;
    } else {
      return usage();
    }
  }

  try {
    const auto reads = bio::read_fasta_file(path);
    if (reads.empty()) {
      std::cerr << "cluster_fasta: no records in " << path << "\n";
      return 1;
    }
    const auto result = core::run_pipeline(reads, params, exec);

    for (std::size_t i = 0; i < reads.size(); ++i) {
      std::cout << reads[i].id << '\t' << result.labels[i] << '\n';
    }
    if (summary) {
      std::cerr << reads.size() << " reads -> " << result.num_clusters
                << " clusters (" << core::mode_name(params.mode)
                << ", theta=" << params.theta << ", k=" << params.minhash.kmer
                << ", n=" << params.minhash.num_hashes << ") in "
                << common::format_duration(result.wall_s)
                << "; Shannon H' = "
                << common::fmt_f(eval::shannon_index(result.labels), 3) << "\n";
    }
  } catch (const common::Error& error) {
    std::cerr << "cluster_fasta: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
