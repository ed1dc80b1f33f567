// Ablation — sketch size n vs estimator quality and clustering accuracy.
// Sweeps the number of hash functions over {10, 25, 50, 100, 200}:
//  * RMSE of the sketch Jaccard estimate against exact k-mer-set Jaccard
//    (both estimators),
//  * end-to-end W.Acc of hierarchical clustering on an S8-style sample,
//  * sketching throughput.
// Motivates the paper's n=100 (shotgun) / n=50 (16S) choices: accuracy
// saturates around there while cost keeps growing linearly.
//
//   ./ablation_sketch [--reads=300] [--pairs=2000] [--seed=42]
//                     [--bench-json[=path]]   write BENCH_ablation_sketch.json
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "bio/kmer.hpp"

using namespace mrmc;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t reads = flags.num("reads", 300);
  const std::size_t pairs = flags.num("pairs", 2000);
  const std::uint64_t seed = flags.num("seed", 42);

  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = reads, .seed = seed});

  // Exact k-mer sets for the RMSE reference.
  std::vector<std::vector<std::uint64_t>> feature_sets;
  feature_sets.reserve(sample.size());
  for (const auto& read : sample.reads) {
    feature_sets.push_back(bio::kmer_set(read.seq, {.k = 5, .canonical = true}));
  }

  common::TextTable table({"n hashes", "RMSE comp", "RMSE set", "W.Acc",
                           "sketch us/read"});
  bench::BenchRecord record("ablation_sketch", {"hashes"});
  for (const std::size_t hashes : {10u, 25u, 50u, 100u, 200u}) {
    const core::MinHasher hasher(
        {.kmer = 5, .num_hashes = hashes, .canonical = true, .seed = seed});

    common::Stopwatch sketch_watch;
    const core::kernels::SketchMatrix sketches =
        bench::sketch_reads(hasher, sample.reads);
    const double us_per_read = sketch_watch.seconds() * 1e6 /
                               static_cast<double>(sample.size());

    // RMSE over a fixed deterministic pair sample.
    common::Xoshiro256 rng(seed ^ hashes);
    const core::SketchPairSimilarity component(
        sketches, core::SketchEstimator::kComponentMatch);
    const core::SketchPairSimilarity set_based(sketches,
                                               core::SketchEstimator::kSetBased);
    double sq_comp = 0, sq_set = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t i = rng.bounded(sample.size());
      const std::size_t j = rng.bounded(sample.size());
      const double exact = bio::exact_jaccard(feature_sets[i], feature_sets[j]);
      const double comp = component(i, j);
      const double set = set_based(i, j);
      sq_comp += (comp - exact) * (comp - exact);
      sq_set += (set - exact) * (set - exact);
    }

    const auto hier = core::hierarchical_cluster(
        sketches, {.theta = 0.5, .linkage = core::Linkage::kAverage,
                   .estimator = core::SketchEstimator::kComponentMatch});
    const double wacc =
        eval::weighted_cluster_accuracy(hier.labels, sample.labels);

    table.add_row({std::to_string(hashes),
                   common::fmt_f(std::sqrt(sq_comp / pairs), 4),
                   common::fmt_f(std::sqrt(sq_set / pairs), 4),
                   common::fmt_pct(wacc), common::fmt_f(us_per_read, 1)});
    record.row()
        .num("hashes", static_cast<long>(hashes))
        .num("rmse_component", std::sqrt(sq_comp / pairs))
        .num("rmse_set_based", std::sqrt(sq_set / pairs))
        .num("wacc", wacc)
        .num("sketch_us_per_read", us_per_read)
        .str("backend", core::kernels::backend_name(core::kernels::active_backend()));
  }

  std::cout << "Ablation — sketch size vs estimator error and accuracy (S8, "
            << reads << " reads)\n";
  table.print(std::cout);
  if (flags.flag("bench-json")) {
    const std::string json = flags.str("bench-json", "");
    const std::string path =
        json.empty() || json == "1" ? record.default_path() : json;
    if (!record.write(path)) {
      std::cerr << "failed to write " << path << "\n";
      return 1;
    }
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}
