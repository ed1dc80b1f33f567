#include "core/hierarchical.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

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
    : n_(n), data_(n * n, fill) {}

SimilarityMatrix pairwise_similarity_matrix(const kernels::SketchMatrix& sketches,
                                            SketchEstimator estimator,
                                            common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  SimilarityMatrix matrix(n, 0.0F);
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
  if (pool != nullptr && n > 64) {
    pool->parallel_for(n, fill_row);
  } else {
    for (std::size_t i = 0; i < n; ++i) fill_row(i);
  }
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

Dendrogram agglomerate(const SimilarityMatrix& matrix, Linkage linkage) {
  const std::size_t n = matrix.size();
  Dendrogram dendrogram;
  dendrogram.num_leaves = n;
  if (n <= 1) return dendrogram;
  dendrogram.merges.reserve(n - 1);

  // Working distance matrix, mutated in place by Lance-Williams updates.
  // Dead slots and the diagonal hold +inf so the nearest-neighbour scan is a
  // pure vectorizable min-reduction with no per-slot branch.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dist[i * n + j] = i == j ? kInf : 1.0 - static_cast<double>(matrix.at(i, j));
    }
  }

  std::vector<bool> active(n, true);
  std::vector<std::size_t> cluster_size(n, 1);
  std::vector<int> node_id(n);  // dendrogram node currently in each slot
  std::iota(node_id.begin(), node_id.end(), 0);

  auto nearest = [&](std::size_t slot) {
    const std::span<const double> row(dist.data() + slot * n, n);
    const std::size_t best = kernels::argmin(row);
    MRMC_CHECK(best < n && row[best] < kInf, "no active neighbour found");
    return std::pair{best, row[best]};
  };

  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::size_t merges_done = 0;
  std::size_t scan_start = 0;  // earliest possibly-active slot

  while (merges_done < n - 1) {
    if (chain.empty()) {
      while (!active[scan_start]) ++scan_start;
      chain.push_back(scan_start);
    }
    // Grow the chain until a reciprocal nearest-neighbour pair appears.
    for (;;) {
      const std::size_t tip = chain.back();
      const auto [nn, d] = nearest(tip);
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        // Reciprocal pair (tip, nn): merge.
        const std::size_t a = std::min(tip, nn);
        const std::size_t b = std::max(tip, nn);

        Dendrogram::Merge merge;
        merge.left = node_id[a];
        merge.right = node_id[b];
        merge.distance = d;
        merge.size = cluster_size[a] + cluster_size[b];
        dendrogram.merges.push_back(merge);

        // Lance-Williams update into slot a; slot b dies.
        const auto size_a = static_cast<double>(cluster_size[a]);
        const auto size_b = static_cast<double>(cluster_size[b]);
        for (std::size_t k = 0; k < n; ++k) {
          if (!active[k] || k == a || k == b) continue;
          const double dak = dist[a * n + k];
          const double dbk = dist[b * n + k];
          double updated = 0;
          switch (linkage) {
            case Linkage::kSingle: updated = std::min(dak, dbk); break;
            case Linkage::kComplete: updated = std::max(dak, dbk); break;
            case Linkage::kAverage:
              updated = (size_a * dak + size_b * dbk) / (size_a + size_b);
              break;
          }
          dist[a * n + k] = updated;
          dist[k * n + a] = updated;
        }
        active[b] = false;
        // Retire slot b: +inf across its row and column keeps it invisible
        // to the branch-free min scans.
        std::fill(dist.begin() + static_cast<std::ptrdiff_t>(b * n),
                  dist.begin() + static_cast<std::ptrdiff_t>((b + 1) * n), kInf);
        for (std::size_t k = 0; k < n; ++k) dist[k * n + b] = kInf;
        cluster_size[a] += cluster_size[b];
        node_id[a] = static_cast<int>(n + merges_done);
        ++merges_done;

        chain.pop_back();
        chain.pop_back();
        break;
      }
      chain.push_back(nn);
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
  std::vector<int> labels(n, -1);
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf.find(i);
    auto it = std::find(roots.begin(), roots.end(), root);
    if (it == roots.end()) {
      roots.push_back(root);
      labels[i] = static_cast<int>(roots.size() - 1);
    } else {
      labels[i] = static_cast<int>(it - roots.begin());
    }
  }
  return labels;
}


namespace {

HierarchicalResult cluster_from_matrix(const SimilarityMatrix& matrix,
                                       const HierarchicalParams& params) {
  HierarchicalResult result;
  result.dendrogram = agglomerate(matrix, params.linkage);
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
      pairwise_similarity_matrix(sketches, params.estimator, pool), params);
}

std::size_t count_clusters(std::span<const int> labels) {
  std::unordered_set<int> unique(labels.begin(), labels.end());
  return unique.size();
}

}  // namespace mrmc::core
