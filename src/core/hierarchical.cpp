#include "core/hierarchical.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace mrmc::core {

const char* linkage_name(Linkage linkage) noexcept {
  switch (linkage) {
    case Linkage::kSingle: return "single";
    case Linkage::kAverage: return "average";
    case Linkage::kComplete: return "complete";
  }
  return "?";
}

SimilarityMatrix::SimilarityMatrix(std::size_t n, float fill)
    : n_(n), data_(n * n, static_cast<double>(fill)) {}

SimilarityMatrix SimilarityMatrix::for_overwrite(std::size_t n) {
  SimilarityMatrix matrix;
  matrix.n_ = n;
  matrix.data_ = LargeArray<double>::for_overwrite(n * n);
  return matrix;
}

SimilarityMatrix::SimilarityMatrix(SimilarityMatrix&& other) noexcept
    : n_(std::exchange(other.n_, 0)), data_(std::move(other.data_)) {}

SimilarityMatrix& SimilarityMatrix::operator=(SimilarityMatrix other) noexcept {
  n_ = std::exchange(other.n_, 0);
  data_ = std::move(other.data_);
  return *this;
}

SimilarityMatrix pairwise_similarity_matrix(const kernels::SketchMatrix& sketches,
                                            SketchEstimator estimator,
                                            common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  // Both fills below write every cell, diagonal included.
  SimilarityMatrix matrix = SimilarityMatrix::for_overwrite(n);
  if (n == 0) return matrix;

  if (estimator == SketchEstimator::kComponentMatch) {
    // Cache-blocked SIMD fill straight into the matrix storage.
    kernels::component_match_matrix(sketches, matrix.mutable_data(), n,
                                    kernels::active_backend(), pool);
    return matrix;
  }

  // Set-based: pre-sort once so each comparison is a linear merge.
  const SortedSketchStore store(sketches, pool);
  auto fill_row = [&](std::size_t i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      matrix.set(i, j, static_cast<float>(store.jaccard(i, j)));
    }
  };
  common::parallel_for(n > 64 ? pool : nullptr, n, fill_row);
  return matrix;
}

SimilarityMatrix similarity_matrix_from_graph(
    const candidates::SparseSimilarityGraph& graph) {
  SimilarityMatrix matrix(graph.num_vertices, 0.0F);
  for (std::size_t i = 0; i < graph.num_vertices; ++i) matrix.set(i, i, 1.0F);
  for (const auto& edge : graph.edges) {
    MRMC_REQUIRE(edge.a < edge.b && edge.b < graph.num_vertices,
                 "graph edge out of range");
    // The one float narrowing in the sparse path — the same cast the dense
    // similarity job applies, so exact-backend graphs densify bit-for-bit.
    matrix.set(edge.a, edge.b, static_cast<float>(edge.similarity));
  }
  return matrix;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The NN-chain's working distances, 1 - similarity in double, held in the
/// similarity matrix's own cells.  The n×n buffer holds a stride×stride
/// square over the slots; slot order is leaf order, so the first-minimum
/// scan breaks ties towards the lowest leaf.
///
/// Owner-row rule: a merge of (a, b) rewrites row a only, which is
/// contiguous; no column is ever written.  Row t is current as of merge
/// `current_as_of_[t]` of `log_` (the merges since the last compaction), and
/// a cell (i, j) is current in whichever of rows i, j is current as of the
/// later merge.  `current_row` brings a row up to date by walking the log
/// entries it has not seen: a surviving slot's cell is read from that slot's
/// own row, a retired slot's cell becomes +inf.
///
/// When the live slots fall to half the stride, `compact` repacks them into
/// a live×live square at the front of the same buffer, in slot order, and
/// clears the log.
class ChainDistances {
 public:
  ChainDistances(SimilarityMatrix matrix, common::ThreadPool* pool)
      : stride_(matrix.size()),
        live_(stride_),
        matrix_(std::move(matrix)),
        dist_(matrix_.mutable_data()),
        current_as_of_(stride_, 0),
        last_merge_(stride_, kNever) {
    // Each cell holds a float value, so 1 - cell is 1 - double(float(sim)).
    auto to_distances = [this](std::size_t i) {
      double* row = dist_ + i * stride_;
      for (std::size_t j = 0; j < stride_; ++j) row[j] = 1.0 - row[j];
      row[i] = kInf;
    };
    common::parallel_for(stride_ > 64 ? pool : nullptr, stride_, to_distances);
  }

  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  [[nodiscard]] bool retired(std::size_t slot) const noexcept {
    return last_merge_[slot] == kRetired;
  }

  /// Row `t` with every cell current: the diagonal and retired slots +inf.
  std::span<double> current_row(std::size_t t) {
    double* row = dist_ + t * stride_;
    for (std::size_t i = current_as_of_[t]; i < log_.size(); ++i) {
      const auto [a, b] = log_[i];
      if (last_merge_[a] == i) row[a] = dist_[a * stride_ + t];
      row[b] = kInf;
    }
    current_as_of_[t] = log_.size();
    return {row, stride_};
  }

  /// Lance-Williams update of (a, b) into row a; slot b retires.
  void merge(std::size_t a, std::size_t b, double size_a, double size_b,
             Linkage linkage) {
    double* row_a = current_row(a).data();
    const double* row_b = current_row(b).data();
    // Retired slots are +inf in both rows and stay +inf under every linkage.
    switch (linkage) {
      case Linkage::kSingle:
        for (std::size_t k = 0; k < stride_; ++k) {
          row_a[k] = std::min(row_a[k], row_b[k]);
        }
        break;
      case Linkage::kComplete:
        for (std::size_t k = 0; k < stride_; ++k) {
          row_a[k] = std::max(row_a[k], row_b[k]);
        }
        break;
      case Linkage::kAverage: {
        const double total = size_a + size_b;
        for (std::size_t k = 0; k < stride_; ++k) {
          row_a[k] = (size_a * row_a[k] + size_b * row_b[k]) / total;
        }
        break;
      }
    }
    row_a[a] = kInf;
    row_a[b] = kInf;
    last_merge_[a] = log_.size();
    last_merge_[b] = kRetired;
    log_.push_back({a, b});
    current_as_of_[a] = log_.size();
    --live_;
  }

  /// Repack the live slots, in slot order, into a live×live square at the
  /// front of the buffer.  Returns the old slot of each new slot.
  std::vector<std::size_t> compact() {
    std::vector<std::size_t> keep;
    keep.reserve(live_);
    for (std::size_t slot = 0; slot < stride_; ++slot) {
      if (!retired(slot)) keep.push_back(slot);
    }
    // New row r ends before old row keep[r + 1] begins, and within row r
    // cell c is written after its source keep[r] * stride + keep[c] >=
    // r * live + c is read: no cell is overwritten before its last read.
    // Cells left of the diagonal copy the new rows already written.
    for (std::size_t r = 0; r < live_; ++r) {
      double* out = dist_ + r * live_;
      for (std::size_t c = 0; c < r; ++c) out[c] = dist_[c * live_ + r];
      out[r] = kInf;
      const std::size_t i = keep[r];
      for (std::size_t c = r + 1; c < live_; ++c) {
        const std::size_t j = keep[c];
        out[c] = current_as_of_[i] >= current_as_of_[j] ? dist_[i * stride_ + j]
                                                        : dist_[j * stride_ + i];
      }
    }
    stride_ = live_;
    std::fill_n(current_as_of_.begin(), stride_, 0);
    std::fill_n(last_merge_.begin(), stride_, kNever);
    log_.clear();
    return keep;
  }

 private:
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max() - 1;
  static constexpr std::size_t kRetired = std::numeric_limits<std::size_t>::max();

  std::size_t stride_;
  std::size_t live_;
  SimilarityMatrix matrix_;  ///< owns the cells
  double* dist_;             ///< matrix_'s cells, rewritten to distances
  std::vector<std::size_t> current_as_of_;  ///< log entries row t reflects
  std::vector<std::size_t> last_merge_;     ///< log index, kNever or kRetired
  std::vector<std::pair<std::size_t, std::size_t>> log_;  ///< (kept, retired)
};

}  // namespace

Dendrogram agglomerate(SimilarityMatrix matrix, Linkage linkage,
                       common::ThreadPool* pool) {
  const std::size_t n = matrix.size();
  Dendrogram dendrogram;
  dendrogram.num_leaves = n;
  if (n <= 1) return dendrogram;
  dendrogram.merges.reserve(n - 1);

  ChainDistances dist(std::move(matrix), pool);
  std::vector<std::size_t> cluster_size(n, 1);
  std::vector<int> node_id(n);  // dendrogram node currently in each slot
  std::iota(node_id.begin(), node_id.end(), 0);

  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::vector<char> in_chain(n, 0);
  std::size_t merges_done = 0;
  std::size_t scan_start = 0;  // earliest possibly-live slot

  while (merges_done < n - 1) {
    if (chain.empty()) {
      while (dist.retired(scan_start)) ++scan_start;
      chain.push_back(scan_start);
      in_chain[scan_start] = 1;
    }
    // Grow the chain until its tip's nearest neighbour is already on it.
    std::size_t tip = 0;
    std::size_t nn = 0;
    double d = 0;
    for (;;) {
      tip = chain.back();
      const std::span<const double> row = dist.current_row(tip);
      nn = kernels::argmin(row);
      MRMC_CHECK(nn < row.size() && row[nn] < kInf, "no active neighbour found");
      if (in_chain[nn]) {
        // Normally nn is the previous element: a reciprocal pair.  Under
        // ties the first minimum can name an earlier chain element; the
        // previous one attains the same minimum, so merge with it instead.
        nn = chain[chain.size() - 2];
        d = row[nn];
        break;
      }
      chain.push_back(nn);
      in_chain[nn] = 1;
    }

    const std::size_t a = std::min(tip, nn);
    const std::size_t b = std::max(tip, nn);
    dendrogram.merges.push_back({.left = node_id[a],
                                 .right = node_id[b],
                                 .distance = d,
                                 .size = cluster_size[a] + cluster_size[b]});
    dist.merge(a, b, static_cast<double>(cluster_size[a]),
               static_cast<double>(cluster_size[b]), linkage);
    cluster_size[a] += cluster_size[b];
    node_id[a] = static_cast<int>(n + merges_done);
    ++merges_done;
    in_chain[tip] = 0;
    in_chain[nn] = 0;
    chain.resize(chain.size() - 2);

    if (merges_done < n - 1 && 2 * dist.live() <= dist.stride()) {
      const std::vector<std::size_t> keep = dist.compact();
      for (std::size_t r = 0; r < keep.size(); ++r) {
        cluster_size[r] = cluster_size[keep[r]];
        node_id[r] = node_id[keep[r]];
      }
      // Chain elements are live, so each is found in keep.
      for (auto& slot : chain) {
        in_chain[slot] = 0;
        slot = static_cast<std::size_t>(
            std::lower_bound(keep.begin(), keep.end(), slot) - keep.begin());
      }
      for (const std::size_t slot : chain) in_chain[slot] = 1;
      scan_start = 0;
    }
  }

  // Merges are recorded in creation order: children always precede parents
  // (node n + i exists only after merge i).  Heights may interleave across
  // chain restarts; consumers that need height order sort by distance.
  return dendrogram;
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<int> cut_dendrogram(const Dendrogram& dendrogram, double theta) {
  MRMC_REQUIRE(theta >= 0.0 && theta <= 1.0, "theta in [0, 1]");
  const std::size_t n = dendrogram.num_leaves;
  const double max_distance = 1.0 - theta + 1e-12;

  // Merges are in creation order (children precede parents: node n + i only
  // exists after merge i), so one forward pass resolves every node to a
  // representative leaf.  A merge within the cutoff unites its two sides.
  UnionFind uf(n);
  std::vector<int> rep(n + dendrogram.merges.size(), -1);
  for (std::size_t i = 0; i < n; ++i) rep[i] = static_cast<int>(i);

  for (std::size_t idx = 0; idx < dendrogram.merges.size(); ++idx) {
    const auto& merge = dendrogram.merges[idx];
    const int left_rep = rep[merge.left];
    const int right_rep = rep[merge.right];
    MRMC_CHECK(left_rep >= 0 && right_rep >= 0,
               "dendrogram children must precede parents");
    if (merge.distance <= max_distance) {
      uf.unite(static_cast<std::size_t>(left_rep),
               static_cast<std::size_t>(right_rep));
    }
    rep[n + idx] = left_rep;
  }

  // Compact labels in order of first appearance.
  std::vector<int> labels(n);
  std::vector<int> root_label(n, -1);
  int next_label = 0;
  for (std::size_t i = 0; i < n; ++i) {
    int& label = root_label[uf.find(i)];
    if (label < 0) label = next_label++;
    labels[i] = label;
  }
  return labels;
}


namespace {

HierarchicalResult cluster_from_matrix(SimilarityMatrix matrix,
                                       const HierarchicalParams& params,
                                       common::ThreadPool* pool) {
  HierarchicalResult result;
  result.dendrogram = agglomerate(std::move(matrix), params.linkage, pool);
  result.labels = cut_dendrogram(result.dendrogram, params.theta);
  result.num_clusters = count_clusters(result.labels);
  return result;
}

}  // namespace

HierarchicalResult hierarchical_cluster(const kernels::SketchMatrix& sketches,
                                        const HierarchicalParams& params,
                                        common::ThreadPool* pool) {
  if (sketches.empty()) return {};
  return cluster_from_matrix(
      pairwise_similarity_matrix(sketches, params.estimator, pool), params, pool);
}

std::size_t count_clusters(std::span<const int> labels) {
  std::unordered_set<int> unique(labels.begin(), labels.end());
  return unique.size();
}

}  // namespace mrmc::core
