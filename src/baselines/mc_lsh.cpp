#include "baselines/mc_lsh.hpp"

#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/candidates.hpp"
#include "core/minhash.hpp"

namespace mrmc::baselines {

BaselineResult mclsh_cluster(std::span<const bio::FastaRecord> reads,
                             const McLshParams& params) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  // Representatives' signatures, indexed by cluster id; a query's
  // candidates come back lowest cluster first.  The shape check rejects a
  // band count that does not divide num_hashes.
  core::candidates::LshBucketIndex buckets(
      params.num_hashes,
      core::candidates::validated_band_shape(params.num_hashes, params.bands),
      core::candidates::Params{}.seed);
  common::Stopwatch watch;
  BaselineResult result;
  result.labels.assign(reads.size(), -1);
  if (reads.empty()) return result;

  const core::MinHasher hasher(
      {params.kmer, params.num_hashes, false, params.seed});

  // Feature sets, for exact verification.
  std::vector<std::vector<std::uint64_t>> features;
  features.reserve(reads.size());
  for (const auto& read : reads) {
    features.push_back(bio::kmer_set(read.seq, {.k = params.kmer}));
  }

  std::vector<std::size_t> rep_read;  // cluster id -> representative read

  for (std::size_t query = 0; query < reads.size(); ++query) {
    const core::Sketch signature = hasher.sketch_features(features[query]);
    int assigned = -1;
    for (const int cluster : buckets.candidates(signature)) {
      ++result.comparisons;
      const double jaccard =
          bio::exact_jaccard(features[rep_read[cluster]], features[query]);
      if (jaccard >= params.theta) {
        assigned = cluster;
        break;
      }
    }
    if (assigned < 0) {
      assigned = static_cast<int>(rep_read.size());
      rep_read.push_back(query);
      buckets.insert(assigned, signature);
    }
    result.labels[query] = assigned;
  }

  result.num_clusters = rep_read.size();
  result.wall_s = watch.seconds();
  return result;
}

}  // namespace mrmc::baselines
