// Greedy clustering — Algorithm 1 of the paper (MrMC-MinH^g).
//
// Incremental procedure: pick the first unassigned sequence, open a new
// cluster with it as representative, and sweep the remaining unassigned
// sequences, absorbing every one whose sketch similarity to the
// representative is >= theta.  Repeat until all sequences are assigned.
// Worst case O(N * #clusters) sketch comparisons; the input set shrinks
// every pass, which is why the paper's greedy variant is ~2x faster than
// the hierarchical one.  Over LSH buckets the same rule is one sweep,
// sweep_buckets, which the LSH pipeline, IncrementalClusterer and the
// MC-LSH baseline share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/candidates.hpp"
#include "core/minhash.hpp"

namespace mrmc::core {

struct GreedyParams {
  double theta = 0.9;  ///< similarity threshold θ
  SketchEstimator estimator = SketchEstimator::kSetBased;
};

struct GreedyResult {
  std::vector<int> labels;       ///< cluster id per input sequence, 0-based
  std::size_t num_clusters = 0;
  std::vector<std::size_t> representatives;  ///< input index anchoring each cluster
  std::size_t comparisons = 0;   ///< sketch comparisons performed
};

/// Greedy sweep over the flat sketch store, scored by SketchPairSimilarity:
/// component-match comparisons, and set-based ones on a slot-disjoint
/// stamped table, run the batched count_equal kernel over contiguous rows;
/// set-based on an unstamped table pre-sorts every sketch once into a
/// SortedSketchStore.  When `pool` is non-null the
/// store sorts on it and each pass scores its representative against the
/// whole pending list on it; the passes themselves stay in order.  Labels,
/// representatives and the comparison count are identical at any thread
/// count, with or without the stamp.
GreedyResult greedy_cluster(const kernels::SketchMatrix& sketches,
                            const GreedyParams& params,
                            common::ThreadPool* pool = nullptr);

/// Algorithm 1 over LSH buckets, the one sweep behind the LSH pipeline's
/// greedy stage, IncrementalClusterer and the MC-LSH baseline.  Rows are
/// taken in id order.  The first `seeded` rows are already the
/// representatives of labels 0..seeded-1: each is recorded in its buckets
/// without being tested.  Every later row is tested with `joins(rep, row)`
/// only against the representatives already recorded in its own buckets,
/// lowest id first, each once, and joins the first that passes; otherwise
/// it becomes a representative and is recorded in each of its buckets.
/// `comparisons` counts `joins` calls.  Serial; `buckets` must pass
/// candidates::validate_buckets over `rows` and `seeded` may not exceed
/// `rows` (InvalidArgument otherwise).
template <typename Joins>
GreedyResult sweep_buckets(const candidates::BucketCsr& buckets,
                           std::size_t rows, std::size_t seeded,
                           Joins&& joins) {
  MRMC_REQUIRE(seeded <= rows, "more seeded representatives than rows");
  const std::vector<std::uint32_t>& offsets = buckets.offsets;
  const std::vector<std::uint32_t>& ids = buckets.ids;
  candidates::validate_buckets(buckets, rows);

  // Row index: row i's buckets are bucket_of[row_start[i], row_start[i + 1]).
  std::vector<std::uint32_t> row_start(rows + 1, 0);
  for (const std::uint32_t id : ids) ++row_start[id + 1];
  std::partial_sum(row_start.begin(), row_start.end(), row_start.begin());
  std::vector<std::uint32_t> bucket_of(ids.size());
  std::vector<std::uint32_t> cursor(row_start.begin(), row_start.end() - 1);
  for (std::uint32_t g = 0; g + 1 < offsets.size(); ++g) {
    for (std::uint32_t p = offsets[g]; p < offsets[g + 1]; ++p) {
      bucket_of[cursor[ids[p]]++] = g;
    }
  }

  // Bucket g's representatives so far, in id order: reps[offsets[g],
  // rep_end[g]).  `lists` holds one [next, end) range of them per bucket of
  // the current row.
  std::vector<std::uint32_t> reps(ids.size());
  std::vector<std::uint32_t> rep_end(offsets.begin(), offsets.end() - 1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lists;
  GreedyResult result;
  result.labels.assign(rows, -1);
  for (std::size_t i = 0; i < rows; ++i) {
    lists.clear();
    if (i >= seeded) {
      for (std::uint32_t s = row_start[i]; s < row_start[i + 1]; ++s) {
        lists.emplace_back(offsets[bucket_of[s]], rep_end[bucket_of[s]]);
      }
    }
    // Merge the lists: test the lowest head once, advancing every list
    // that holds it, until one joins or the lists run out.
    while (result.labels[i] < 0) {
      std::size_t rep = rows;
      for (const auto& [next, end] : lists) {
        if (next < end) rep = std::min<std::size_t>(rep, reps[next]);
      }
      if (rep == rows) break;
      for (auto& [next, end] : lists) next += next < end && reps[next] == rep;
      ++result.comparisons;
      if (joins(rep, i)) result.labels[i] = result.labels[rep];
    }
    if (result.labels[i] < 0) {
      result.labels[i] = static_cast<int>(result.representatives.size());
      result.representatives.push_back(i);
      for (std::uint32_t s = row_start[i]; s < row_start[i + 1]; ++s) {
        reps[rep_end[bucket_of[s]]++] = static_cast<std::uint32_t>(i);
      }
    }
  }
  result.num_clusters = result.representatives.size();
  return result;
}

/// Algorithm 1 over LSH buckets for a sketch table (the LSH backend's
/// greedy stage): sweep_buckets with nothing seeded, joining at
/// SketchPairSimilarity >= theta.  Labels, representatives and
/// `comparisons` (similarity evaluations) equal greedy_cluster_graph's over
/// the verified pairs of the same buckets, but no pair list or graph is
/// built.  `buckets` must pass candidates::validate_buckets over the
/// matrix's rows (InvalidArgument otherwise).
GreedyResult greedy_cluster_buckets(const kernels::SketchMatrix& sketches,
                                    const candidates::BucketCsr& buckets,
                                    const GreedyParams& params);

/// Algorithm 1 over a verified candidate graph instead of raw sketches, the
/// oracle greedy_cluster_buckets is tested against: a sequence only ever
/// joins a representative it shares a graph edge with, so the sweep is
/// O(V + E) instead of O(N * #clusters) comparisons.  It
/// walks `graph.edges` in place with one cursor (each representative's
/// edges to later reads are one contiguous run) and allocates nothing
/// proportional to E; edges that are not strictly ascending by (a, b) with
/// a < b < num_vertices throw InvalidArgument.  When
/// the graph contains every pair with similarity >= theta (always true for
/// the exact backend), labels, representatives and cluster count are
/// identical to greedy_cluster on the underlying sketches; `comparisons`
/// counts edge inspections.  `params.estimator` is unused — similarities
/// were fixed at verification time.
GreedyResult greedy_cluster_graph(const candidates::SparseSimilarityGraph& graph,
                                  const GreedyParams& params);

}  // namespace mrmc::core
