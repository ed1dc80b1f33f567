// Greedy clustering — Algorithm 1 of the paper (MrMC-MinH^g).
//
// Incremental procedure: pick the first unassigned sequence, open a new
// cluster with it as representative, and sweep the remaining unassigned
// sequences, absorbing every one whose sketch similarity to the
// representative is >= theta.  Repeat until all sequences are assigned.
// Worst case O(N * #clusters) sketch comparisons; the input set shrinks
// every pass, which is why the paper's greedy variant is ~2x faster than
// the hierarchical one.
#pragma once

#include <cstddef>
#include <vector>

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

/// Algorithm 1 over LSH buckets (the LSH backend's greedy stage): reads are
/// taken in id order, and each is scored only against the representatives
/// already recorded in its own buckets, lowest id first, each once.  It
/// joins the first one at similarity >= theta; otherwise it becomes a
/// representative and is recorded in each of its buckets.  Labels,
/// representatives and `comparisons` (similarity evaluations) equal
/// greedy_cluster_graph's over the verified pairs of the same buckets, but
/// no pair list or graph is built.  Serial; `buckets` must pass
/// candidates::validate_buckets over the matrix's rows (InvalidArgument
/// otherwise).
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
