#include "core/greedy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mrmc::core {

GreedyResult greedy_cluster(const kernels::SketchMatrix& sketches,
                            const GreedyParams& params,
                            common::ThreadPool* pool) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  const std::size_t n = sketches.rows();
  const SketchPairSimilarity similarity(sketches, params.estimator, pool);
  GreedyResult result;
  result.labels.assign(n, -1);
  if (n == 0) return result;

  // `pending` holds the indices of still-unassigned sequences, in input
  // order; each pass removes the new representative and everything it
  // absorbs (Algorithm 1 lines 5-14).
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;

  int next_label = 0;
  while (!pending.empty()) {
    const std::size_t rep = pending.front();
    const int label = next_label++;
    result.labels[rep] = label;
    result.representatives.push_back(rep);

    std::vector<std::size_t> still_pending;
    still_pending.reserve(pending.size());
    for (std::size_t idx = 1; idx < pending.size(); ++idx) {
      const std::size_t candidate = pending[idx];
      ++result.comparisons;
      if (similarity(rep, candidate) >= params.theta) {
        result.labels[candidate] = label;
      } else {
        still_pending.push_back(candidate);
      }
    }
    pending = std::move(still_pending);
  }

  result.num_clusters = static_cast<std::size_t>(next_label);
  return result;
}

GreedyResult greedy_cluster_graph(const candidates::SparseSimilarityGraph& graph,
                                  const GreedyParams& params) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  const std::size_t n = graph.num_vertices;
  GreedyResult result;
  result.labels.assign(n, -1);
  if (n == 0) return result;

  // CSR adjacency over both edge directions.  Edges arrive sorted by
  // (a, b) with a < b, so each vertex's neighbor list comes out ascending:
  // smaller neighbors (as edge targets) land before larger ones (as edge
  // sources).
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const auto& edge : graph.edges) {
    MRMC_REQUIRE(edge.a < edge.b && edge.b < n, "graph edge out of range");
    ++offsets[edge.a + 1];
    ++offsets[edge.b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::pair<std::uint32_t, double>> adjacency(offsets[n]);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& edge : graph.edges) {
      adjacency[cursor[edge.a]++] = {edge.b, edge.similarity};
      adjacency[cursor[edge.b]++] = {edge.a, edge.similarity};
    }
  }

  // Equivalent formulation of Algorithm 1's pending-list sweep: by the time
  // index i is reached every j < i is already assigned (absorbed earlier or
  // a representative itself), so a new representative i only needs to test
  // its *graph neighbors* j > i that are still unassigned.
  int next_label = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.labels[i] >= 0) continue;
    const int label = next_label++;
    result.labels[i] = label;
    result.representatives.push_back(i);
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const auto [neighbor, similarity] = adjacency[e];
      if (neighbor < i || result.labels[neighbor] >= 0) continue;
      ++result.comparisons;
      if (similarity >= params.theta) result.labels[neighbor] = label;
    }
  }
  result.num_clusters = static_cast<std::size_t>(next_label);
  return result;
}

}  // namespace mrmc::core
