// Agglomerative hierarchical clustering — Algorithm 2 of the paper
// (MrMC-MinH^h).
//
// An all-pairs sketch-similarity matrix is converted to distances
// (d = 1 - sim) and agglomerated bottom-up with the nearest-neighbour-chain
// algorithm (O(N^2) time, one N^2 double buffer), supporting the paper's
// three linkage policies (single / average / complete) via Lance-Williams
// updates.  A merge rewrites only the surviving cluster's row; the live
// rows are repacked in place whenever half of them have retired (DESIGN.md
// §10).  The resulting dendrogram is cut at similarity threshold θ:
// all merges with similarity >= θ are applied, so for complete linkage no
// pair of sequences within a flat cluster is less than θ similar — the
// paper's stated cutoff semantics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/candidates.hpp"
#include "core/minhash.hpp"

namespace mrmc::core {

enum class Linkage { kSingle, kAverage, kComplete };

[[nodiscard]] const char* linkage_name(Linkage linkage) noexcept;

/// Dense square matrix of pairwise similarities in [0, 1].
class SimilarityMatrix {
 public:
  SimilarityMatrix() = default;
  explicit SimilarityMatrix(std::size_t n, float fill = 0.0F);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] float at(std::size_t i, std::size_t j) const noexcept {
    return data_[i * n_ + j];
  }
  void set(std::size_t i, std::size_t j, float value) noexcept {
    data_[i * n_ + j] = value;
    data_[j * n_ + i] = value;
  }
  [[nodiscard]] std::span<const float> row(std::size_t i) const noexcept {
    return {data_.data() + i * n_, n_};
  }
  /// Raw n×n storage for the blocked fill kernel.
  [[nodiscard]] float* mutable_data() noexcept { return data_.data(); }

 private:
  std::size_t n_ = 0;
  std::vector<float> data_;
};

/// All-pairs sketch similarity over the flat sketch store.  Component-match
/// runs the cache-blocked SIMD tile kernel; set-based pre-sorts once into a
/// SortedSketchStore.  When `pool` is non-null blocks/rows are computed in
/// parallel (the paper's row-wise partition, Section III-C); the result is
/// identical at any thread count.
SimilarityMatrix pairwise_similarity_matrix(const kernels::SketchMatrix& sketches,
                                            SketchEstimator estimator,
                                            common::ThreadPool* pool = nullptr);

/// Densify a verified candidate graph for the agglomerative path: edge
/// similarities land in their cells, the diagonal is 1, and absent pairs
/// stay 0 (i.e. maximally distant — candidate pruning can only keep
/// clusters apart, never merge them).  With an exact-backend graph this
/// reproduces pairwise_similarity_matrix bit-for-bit.  Note the dendrogram
/// stage remains O(n^2) memory; LSH only removes the pair-scoring wall.
SimilarityMatrix similarity_matrix_from_graph(
    const candidates::SparseSimilarityGraph& graph);

/// Bottom-up merge tree.  Leaves are 0..num_leaves-1; the i-th merge creates
/// node num_leaves + i.
struct Dendrogram {
  struct Merge {
    int left = -1;        ///< node id merged
    int right = -1;       ///< node id merged
    double distance = 0;  ///< linkage distance (1 - similarity) of the merge
    std::size_t size = 0; ///< leaves under the new node
  };
  std::size_t num_leaves = 0;
  std::vector<Merge> merges;  ///< in merge order (monotone non-decreasing distance)
};

/// NN-chain agglomeration over a similarity matrix.  Nearest-neighbour ties
/// go to the cluster with the lowest smallest leaf; when a tie makes the
/// chain tip's nearest neighbour an earlier chain element, the tip merges
/// with the previous element instead, which attains the same minimum.
Dendrogram agglomerate(const SimilarityMatrix& matrix, Linkage linkage);

/// Flat clusters: apply every merge whose similarity (1 - distance) is
/// >= theta.  Returns 0-based labels ordered by first occurrence.  O(n + m)
/// for n leaves and m merges.
std::vector<int> cut_dendrogram(const Dendrogram& dendrogram, double theta);

struct HierarchicalParams {
  double theta = 0.9;
  Linkage linkage = Linkage::kAverage;
  SketchEstimator estimator = SketchEstimator::kComponentMatch;
};

struct HierarchicalResult {
  std::vector<int> labels;
  std::size_t num_clusters = 0;
  Dendrogram dendrogram;
};

/// Convenience: matrix + agglomerate + cut in one call.
HierarchicalResult hierarchical_cluster(const kernels::SketchMatrix& sketches,
                                        const HierarchicalParams& params,
                                        common::ThreadPool* pool = nullptr);

/// Number of distinct labels in a labeling (labels must be 0-based dense or
/// arbitrary ints; counts unique values).
std::size_t count_clusters(std::span<const int> labels);

}  // namespace mrmc::core
