#include "baselines/metacluster_like.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "baselines/word_stats.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/timer.hpp"
#include "core/hierarchical.hpp"

namespace mrmc::baselines {

namespace {

using Vec = std::vector<double>;

Vec centroid_of(const std::vector<Vec>& freqs, std::span<const std::size_t> members) {
  Vec centroid(freqs.front().size(), 0.0);
  for (const std::size_t m : members) {
    for (std::size_t w = 0; w < centroid.size(); ++w) centroid[w] += freqs[m][w];
  }
  for (double& v : centroid) v /= static_cast<double>(members.size());
  return centroid;
}

/// 2-medoid-style bisection: seed two centroids from the group's farthest
/// Spearman pair approximation, then run a few assignment/update rounds.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> bisect(
    const std::vector<Vec>& freqs, const std::vector<std::size_t>& group,
    std::size_t rounds, common::Xoshiro256& rng, std::size_t* comparisons) {
  // Seed: a random member and the member farthest from it.
  const std::size_t seed_a = group[rng.bounded(group.size())];
  std::size_t seed_b = group.front();
  double farthest = -1.0;
  for (const std::size_t m : group) {
    ++*comparisons;
    const double d = spearman_distance(freqs[seed_a], freqs[m]);
    if (d > farthest) {
      farthest = d;
      seed_b = m;
    }
  }

  Vec centroid_a = freqs[seed_a];
  Vec centroid_b = freqs[seed_b];
  std::vector<std::size_t> left, right;
  for (std::size_t round = 0; round < rounds; ++round) {
    left.clear();
    right.clear();
    for (const std::size_t m : group) {
      *comparisons += 2;
      const double da = spearman_distance(centroid_a, freqs[m]);
      const double db = spearman_distance(centroid_b, freqs[m]);
      (da <= db ? left : right).push_back(m);
    }
    if (left.empty() || right.empty()) break;
    centroid_a = centroid_of(freqs, left);
    centroid_b = centroid_of(freqs, right);
  }
  if (left.empty() || right.empty()) {
    // Degenerate split: halve deterministically to guarantee progress.
    left.assign(group.begin(), group.begin() + static_cast<long>(group.size() / 2));
    right.assign(group.begin() + static_cast<long>(group.size() / 2), group.end());
  }
  return {std::move(left), std::move(right)};
}

}  // namespace

BaselineResult metacluster_cluster(std::span<const bio::FastaRecord> reads,
                                   const MetaClusterParams& params) {
  MRMC_REQUIRE(params.max_group >= 2, "max_group must be >= 2");
  common::Stopwatch watch;
  BaselineResult result;
  const std::size_t n = reads.size();
  result.labels.assign(n, -1);
  if (n == 0) return result;

  std::vector<Vec> freqs;
  freqs.reserve(n);
  for (const auto& read : reads) {
    freqs.push_back(word_frequencies(read.seq, params.word_size));
  }

  // ---------------------------------------------------- phase 1: top-down
  common::Xoshiro256 rng(params.seed);
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::vector<std::size_t>> work;
  {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    work.push_back(std::move(all));
  }
  while (!work.empty()) {
    std::vector<std::size_t> group = std::move(work.back());
    work.pop_back();
    if (group.size() <= params.max_group) {
      groups.push_back(std::move(group));
      continue;
    }
    auto [left, right] =
        bisect(freqs, group, params.kmeans_rounds, rng, &result.comparisons);
    work.push_back(std::move(left));
    work.push_back(std::move(right));
  }

  // --------------------------------------------------- phase 2: bottom-up
  // Merge group centroids agglomeratively (complete linkage) while their
  // Spearman distance stays below the merge threshold.
  const std::size_t g = groups.size();
  std::vector<Vec> centroids;
  centroids.reserve(g);
  for (const auto& group : groups) centroids.push_back(centroid_of(freqs, group));

  core::SimilarityMatrix matrix(g, 0.0F);
  for (std::size_t i = 0; i < g; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < g; ++j) {
      ++result.comparisons;
      const double d = spearman_distance(centroids[i], centroids[j]);
      matrix.set(i, j, static_cast<float>(1.0 - d));
    }
  }
  const core::Dendrogram dendrogram =
      core::agglomerate(std::move(matrix), core::Linkage::kComplete);
  const std::vector<int> group_labels =
      core::cut_dendrogram(dendrogram, 1.0 - params.merge_distance);

  for (std::size_t gi = 0; gi < g; ++gi) {
    for (const std::size_t member : groups[gi]) {
      result.labels[member] = group_labels[gi];
    }
  }
  result.num_clusters = core::count_clusters(result.labels);
  result.wall_s = watch.seconds();
  return result;
}

}  // namespace mrmc::baselines
