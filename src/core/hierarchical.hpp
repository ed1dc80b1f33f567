// Agglomerative hierarchical clustering — Algorithm 2 of the paper
// (MrMC-MinH^h).
//
// An all-pairs sketch-similarity matrix is agglomerated bottom-up with the
// nearest-neighbour-chain algorithm (O(N^2) time) under the paper's three
// linkage policies (single / average / complete) via Lance-Williams
// updates.  The matrix is the run's one N^2 buffer: its double cells are
// written once by the similarity fill, and agglomerate() takes the matrix by
// value and rewrites the same cells to distances (d = 1 - sim) in place.  A
// merge rewrites only the surviving cluster's row; the live rows are
// repacked in place whenever half of them have retired (DESIGN.md §10).
// The resulting dendrogram is cut at similarity threshold θ: all merges
// with similarity >= θ are applied, so for complete linkage no pair of
// sequences within a flat cluster is less than θ similar — the paper's
// stated cutoff semantics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/candidates.hpp"
#include "core/large_array.hpp"
#include "core/minhash.hpp"

namespace mrmc::core {

enum class Linkage { kSingle, kAverage, kComplete };

[[nodiscard]] const char* linkage_name(Linkage linkage) noexcept;

/// Dense square matrix of pairwise similarities in [0, 1].  Cells are
/// doubles that each hold a float value (set() narrows), so the distances
/// agglomerate() derives in place equal 1 - double(float(sim)) on every
/// path, and the f32 checkpoint bytes lose nothing.  The cells are one
/// LargeArray (huge pages at n >= 512).  Copies are deep; a moved-from
/// matrix is empty.
class SimilarityMatrix {
 public:
  SimilarityMatrix() = default;
  /// n×n with every cell `fill`.
  explicit SimilarityMatrix(std::size_t n, float fill = 0.0F);
  /// n×n, cells uninitialised: for producers that write every cell, so the
  /// pages are first touched by the (pooled) fill instead of a zero pass.
  [[nodiscard]] static SimilarityMatrix for_overwrite(std::size_t n);

  SimilarityMatrix(const SimilarityMatrix& other) = default;
  SimilarityMatrix(SimilarityMatrix&& other) noexcept;
  SimilarityMatrix& operator=(SimilarityMatrix other) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] float at(std::size_t i, std::size_t j) const noexcept {
    return static_cast<float>(data_[i * n_ + j]);
  }
  void set(std::size_t i, std::size_t j, float value) noexcept {
    data_[i * n_ + j] = value;
    data_[j * n_ + i] = value;
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
    return {data_.data() + i * n_, n_};
  }
  /// Raw n×n row-major storage.  Writers store float values only.
  [[nodiscard]] double* mutable_data() noexcept { return data_.data(); }

 private:
  std::size_t n_ = 0;
  LargeArray<double> data_;
};

/// All-pairs sketch similarity over the flat sketch store.  Component-match
/// runs the cache-blocked SIMD tile kernel; set-based pre-sorts once into a
/// SortedSketchStore.  When `pool` is non-null blocks/rows are computed in
/// parallel (the paper's row-wise partition, Section III-C); the result is
/// identical at any thread count.  The fill writes every cell, so the matrix
/// is the one n² allocation and no zero pass precedes it.
SimilarityMatrix pairwise_similarity_matrix(const kernels::SketchMatrix& sketches,
                                            SketchEstimator estimator,
                                            common::ThreadPool* pool = nullptr);

/// Densify a verified candidate graph for the agglomerative path: edge
/// similarities land in their cells, the diagonal is 1, and absent pairs
/// stay 0 (i.e. maximally distant — candidate pruning can only keep
/// clusters apart, never merge them).  With an exact-backend graph this
/// reproduces pairwise_similarity_matrix bit-for-bit.  Note the dendrogram
/// stage remains O(n^2) memory (8 B per cell, the one buffer agglomerate
/// works in); LSH only removes the pair-scoring wall.
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

/// NN-chain agglomeration over a similarity matrix.  The matrix is taken by
/// value and its cells become the working distances, so a caller that
/// moves its matrix in allocates no second n² buffer (an lvalue argument is
/// copied).  `pool`, when non-null, converts the rows in parallel; merges
/// are identical either way.  Nearest-neighbour ties go to the cluster with
/// the lowest smallest leaf; when a tie makes the chain tip's nearest
/// neighbour an earlier chain element, the tip merges with the previous
/// element instead, which attains the same minimum.
Dendrogram agglomerate(SimilarityMatrix matrix, Linkage linkage,
                       common::ThreadPool* pool = nullptr);

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
