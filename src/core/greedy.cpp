#include "core/greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

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
  // absorbs (Algorithm 1 lines 5-14).  A pass scores the whole list into
  // `absorbed` (on `pool` when non-null), then compacts `pending` in place,
  // keeping order.
  std::vector<std::size_t> pending(n);
  for (std::size_t i = 0; i < n; ++i) pending[i] = i;
  std::vector<std::uint8_t> absorbed(n);

  int next_label = 0;
  while (!pending.empty()) {
    const std::size_t rep = pending.front();
    const int label = next_label++;
    result.labels[rep] = label;
    result.representatives.push_back(rep);

    const std::size_t others = pending.size() - 1;
    const auto score = [&](std::size_t idx) {
      absorbed[idx] = similarity(rep, pending[idx + 1]) >= params.theta;
    };
    common::parallel_for(pool, others, score);
    result.comparisons += others;

    std::size_t kept = 0;
    for (std::size_t idx = 0; idx < others; ++idx) {
      const std::size_t candidate = pending[idx + 1];
      if (absorbed[idx] != 0) {
        result.labels[candidate] = label;
      } else {
        pending[kept++] = candidate;
      }
    }
    pending.resize(kept);
  }

  result.num_clusters = static_cast<std::size_t>(next_label);
  return result;
}

GreedyResult greedy_cluster_buckets(const kernels::SketchMatrix& sketches,
                                    const candidates::BucketCsr& buckets,
                                    const GreedyParams& params) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  const SketchPairSimilarity similarity(sketches, params.estimator);
  return sweep_buckets(buckets, sketches.rows(), 0,
                       [&](std::size_t rep, std::size_t read) {
                         return similarity(rep, read) >= params.theta;
                       });
}

GreedyResult greedy_cluster_graph(const candidates::SparseSimilarityGraph& graph,
                                  const GreedyParams& params) {
  MRMC_REQUIRE(params.theta >= 0.0 && params.theta <= 1.0, "theta in [0, 1]");
  const std::size_t n = graph.num_vertices;
  GreedyResult result;
  result.labels.assign(n, -1);

  // Equivalent formulation of Algorithm 1's pending-list sweep: by the time
  // index i is reached every j < i is already assigned (absorbed earlier or
  // a representative itself), so a new representative i only needs to test
  // its *graph neighbors* j > i that are still unassigned.  Edges are sorted
  // by (a, b) with a < b, so those neighbors are the run of edges with
  // a == i, and one cursor walks the runs in order.  An edge the cursor
  // never reaches broke that order.
  const std::vector<candidates::Edge>& edges = graph.edges;
  int next_label = 0;
  std::size_t e = 0;
  for (std::size_t i = 0; i < n; ++i) {
    int label = -1;  // stays -1 unless i opens a cluster
    if (result.labels[i] < 0) {
      label = next_label++;
      result.labels[i] = label;
      result.representatives.push_back(i);
    }
    for (; e < edges.size() && edges[e].a == i; ++e) {
      const std::uint32_t neighbor = edges[e].b;
      MRMC_REQUIRE(neighbor > i && neighbor < n &&
                       (e == 0 || edges[e - 1].a != i ||
                        edges[e - 1].b < neighbor),
                   "graph edges not strictly ascending with a < b < n");
      if (label < 0 || result.labels[neighbor] >= 0) continue;
      ++result.comparisons;
      if (edges[e].similarity >= params.theta) result.labels[neighbor] = label;
    }
  }
  MRMC_REQUIRE(e == edges.size(),
               "graph edges not strictly ascending with a < b < n");
  result.num_clusters = static_cast<std::size_t>(next_label);
  return result;
}

}  // namespace mrmc::core
