// Incremental clustering — absorb new reads into an existing clustering
// without re-running it, the operational mode for longitudinal studies
// where samples arrive sequencing-run by sequencing-run.  New reads are
// matched against existing cluster representatives through the LSH index,
// lowest label first, and join the first at >= θ (Algorithm 1's rule, as
// greedy_cluster_buckets applies it in batch); unmatched reads found new
// clusters.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/minhash.hpp"

namespace mrmc::core {

class IncrementalClusterer {
 public:
  /// `hasher` defines the sketch space; `theta` and `estimator` follow
  /// Algorithm 1's join rule; `bands` (which must divide the sketch length)
  /// shapes the LSH index that proposes representatives.
  IncrementalClusterer(MinHashParams hasher, GreedyParams greedy,
                       std::size_t bands = 10);

  /// Add one read; returns its (possibly new) cluster label.
  int add(std::string_view seq);

  /// Add many reads; returns their labels in order.
  std::vector<int> add_all(std::span<const std::string_view> seqs);

  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return representatives_.size();
  }
  [[nodiscard]] std::size_t num_reads() const noexcept { return reads_added_; }

  /// Sketch of the representative anchoring `label`.
  [[nodiscard]] const Sketch& representative_sketch(int label) const;

  /// Current per-cluster sizes, indexed by label.
  [[nodiscard]] const std::vector<std::size_t>& cluster_sizes() const noexcept {
    return sizes_;
  }

 private:
  MinHasher hasher_;
  GreedyParams greedy_;
  candidates::LshBucketIndex index_;
  std::vector<Sketch> representatives_;
  std::vector<std::size_t> sizes_;
  std::size_t reads_added_ = 0;
};

}  // namespace mrmc::core
