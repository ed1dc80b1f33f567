// Ablation — linkage policy (single / average / complete) on the same
// sketch-similarity matrix, across a theta sweep.  The paper's $LINK
// parameter offers all three; this shows their cluster-count and accuracy
// trade-offs (single chains and under-splits, complete over-splits,
// average sits between).
//
//   ./ablation_linkage [--reads=300] [--seed=42]
#include <iostream>
#include <utility>

#include "bench_util.hpp"

using namespace mrmc;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t reads = flags.num("reads", 300);
  const std::uint64_t seed = flags.num("seed", 42);

  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S9"), {.reads = reads, .seed = seed});
  const core::MinHasher hasher(
      {.kmer = 5, .num_hashes = 100, .canonical = true, .seed = seed});
  auto matrix = core::pairwise_similarity_matrix(
      bench::sketch_reads(hasher, sample.reads),
      core::SketchEstimator::kComponentMatch, nullptr);

  common::TextTable table({"linkage", "theta", "# Cluster", "W.Acc"});
  for (const auto linkage : {core::Linkage::kSingle, core::Linkage::kAverage,
                             core::Linkage::kComplete}) {
    // agglomerate consumes its matrix: the last linkage takes this one.
    const auto dendrogram = core::agglomerate(
        linkage == core::Linkage::kComplete ? std::move(matrix) : matrix, linkage);
    for (const double theta : {0.40, 0.45, 0.50, 0.55, 0.60}) {
      const auto labels = core::cut_dendrogram(dendrogram, theta);
      table.add_row({core::linkage_name(linkage), common::fmt_f(theta, 2),
                     std::to_string(core::count_clusters(labels)),
                     common::fmt_pct(eval::weighted_cluster_accuracy(
                         labels, sample.labels))});
    }
  }

  std::cout << "Ablation — linkage policy on S9 (" << reads << " reads)\n";
  table.print(std::cout);
  return 0;
}
