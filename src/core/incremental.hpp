// Incremental clustering — absorb new reads into an existing clustering
// without re-running it, the operational mode for longitudinal studies
// where samples arrive sequencing-run by sequencing-run.  Each batch is
// stacked below the existing cluster representatives and run through
// Algorithm 1's bucket sweep (sweep_buckets) with the representatives
// seeded: a new read is tested against the representatives in its LSH
// buckets, lowest label first, and joins the first at >= θ; unmatched reads
// found new clusters.  Adding b1 then b2 gives the labels of one
// greedy_cluster_buckets run over b1 followed by b2.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/minhash.hpp"

namespace mrmc::core {

class IncrementalClusterer {
 public:
  /// `hasher` defines the sketch space; `theta` (in [0, 1], InvalidArgument
  /// otherwise) and `estimator` follow Algorithm 1's join rule; `bands`
  /// (which must divide the sketch length) shapes the LSH buckets that
  /// propose representatives.
  IncrementalClusterer(MinHashParams hasher, GreedyParams greedy,
                       std::size_t bands = 10);

  /// Add a batch of reads; returns their (possibly new) cluster labels in
  /// order.
  std::vector<int> add_all(std::span<const std::string_view> seqs);

  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return representatives_.rows();
  }
  [[nodiscard]] std::size_t num_reads() const noexcept { return reads_added_; }

  /// Sketch of the representative anchoring `label`, as values.
  [[nodiscard]] Sketch representative_sketch(int label) const;

  /// Current per-cluster sizes, indexed by label.
  [[nodiscard]] const std::vector<std::size_t>& cluster_sizes() const noexcept {
    return sizes_;
  }

 private:
  MinHasher hasher_;
  GreedyParams greedy_;
  candidates::BandShape shape_;
  /// Row l: the sketch of label l's representative, in the hasher's cells.
  kernels::SketchMatrix representatives_;
  std::vector<std::size_t> sizes_;
  std::size_t reads_added_ = 0;
};

}  // namespace mrmc::core
