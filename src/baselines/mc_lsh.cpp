#include "baselines/mc_lsh.hpp"

#include <utility>

#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/minhash.hpp"

namespace mrmc::baselines {

BaselineResult mclsh_cluster(std::span<const bio::FastaRecord> reads,
                             const McLshParams& params) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  // The shape check rejects a band count that does not divide num_hashes.
  const core::candidates::BandShape shape =
      core::candidates::validated_band_shape(params.num_hashes, params.bands);
  common::Stopwatch watch;
  const core::MinHasher hasher(
      {params.kmer, params.num_hashes, false, params.seed});

  // Feature sets, for exact verification, and their signatures.
  std::vector<std::vector<std::uint64_t>> features;
  features.reserve(reads.size());
  auto signatures =
      core::kernels::SketchMatrix::for_overwrite(reads.size(), params.num_hashes);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    features.push_back(bio::kmer_set(reads[i].seq, {.k = params.kmer}));
    hasher.sketch_features_into(features[i], signatures.row(i));
  }

  // Algorithm 1 over the signatures' buckets, verified by exact Jaccard.
  core::GreedyResult swept = core::sweep_buckets(
      core::candidates::lsh_buckets(signatures, shape,
                                    core::candidates::Params{}.seed),
      reads.size(), 0, [&](std::size_t rep, std::size_t read) {
        return bio::exact_jaccard(features[rep], features[read]) >=
               params.theta;
      });

  BaselineResult result;
  result.labels = std::move(swept.labels);
  result.num_clusters = swept.num_clusters;
  result.comparisons = swept.comparisons;
  result.wall_s = watch.seconds();
  return result;
}

}  // namespace mrmc::baselines
