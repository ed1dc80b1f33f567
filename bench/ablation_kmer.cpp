// Ablation — k-mer size vs clustering quality, on both data regimes:
//  * whole-metagenome (compositional signal, paper uses k=5),
//  * 16S amplicons (overlap signal, paper uses k=15).
// Shows why the paper picks small k for shotgun composition and large k for
// amplicon identity: shotgun accuracy degrades as k grows past the
// composition scale, amplicon separation needs k large enough to be
// error-discriminative.
//
//   ./ablation_kmer [--reads=300] [--seed=42]
#include <iostream>

#include "bench_util.hpp"

using namespace mrmc;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t reads = flags.num("reads", 300);
  const std::uint64_t seed = flags.num("seed", 42);

  common::TextTable table({"dataset", "k", "# Cluster", "W.Acc"});

  const auto shotgun = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = reads, .seed = seed});
  for (const int k : {3, 5, 7, 9, 11, 15}) {
    const core::MinHasher hasher(
        {.kmer = k, .num_hashes = 100, .canonical = true, .seed = seed});
    const auto result = core::hierarchical_cluster(
        bench::sketch_reads(hasher, shotgun.reads), {.theta = 0.5, .linkage = core::Linkage::kAverage,
                   .estimator = core::SketchEstimator::kComponentMatch});
    table.add_row({"whole-metagenome S8", std::to_string(k),
                   std::to_string(result.num_clusters),
                   common::fmt_pct(eval::weighted_cluster_accuracy(
                       result.labels, shotgun.labels))});
  }

  const auto amplicon = simdata::build_16s_simulated(
      {.reads = reads, .error_rate = 0.03, .seed = seed});
  for (const int k : {5, 9, 12, 15, 21}) {
    const core::MinHasher hasher({.kmer = k, .num_hashes = 50, .seed = seed});
    const auto result = core::hierarchical_cluster(
        bench::sketch_reads(hasher, amplicon.reads), {.theta = 0.12, .linkage = core::Linkage::kAverage,
                   .estimator = core::SketchEstimator::kComponentMatch});
    table.add_row({"16S simulated 3%", std::to_string(k),
                   std::to_string(result.num_clusters),
                   common::fmt_pct(eval::weighted_cluster_accuracy(
                       result.labels, amplicon.labels))});
  }

  std::cout << "Ablation — k-mer size (" << reads << " reads per dataset)\n";
  table.print(std::cout);
  return 0;
}
