// core::candidates — the pair-enumeration layer.  Covers the S-curve
// properties, band-shape selection and validation, the incremental bucket
// index and greedy over LSH candidates, backend equivalence
// (exact graphs reproduce the dense all-pairs matrix bit-for-bit and the
// graph greedy sweep reproduces the exhaustive sweep), determinism of the
// candidate MapReduce job across thread counts / split sizes / fault plans /
// kernel backends, the bucket-to-pairs expansion against a brute-force
// oracle on duplicate-heavy input, and the recall harness in eval/.  Kept as its own binary
// so the TSan leg can build and run it in isolation.
#include "core/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "core/candidate_jobs.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"
#include "eval/candidate_recall.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::core {
namespace {

kernels::SketchMatrix family_matrix(std::size_t families, std::size_t per_family,
                                    std::size_t length, double noise,
                                    std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<Sketch> sketches;
  for (std::size_t f = 0; f < families; ++f) {
    Sketch base(length);
    for (auto& v : base) v = rng();
    for (std::size_t m = 0; m < per_family; ++m) {
      Sketch member = base;
      for (auto& v : member) {
        if (rng.chance(noise)) v = rng();
      }
      sketches.push_back(std::move(member));
    }
  }
  return kernels::SketchMatrix::from_sketches(sketches);
}

// ---------------------------------------------------------------- the S-curve

TEST(LshCollisionProbability, BoundaryValues) {
  EXPECT_DOUBLE_EQ(candidates::lsh_collision_probability(0.0, 10, 5), 0.0);
  EXPECT_DOUBLE_EQ(candidates::lsh_collision_probability(1.0, 10, 5), 1.0);
}

TEST(CollisionProbability, MonotoneInSimilarity) {
  for (const auto& [bands, rows] :
       {std::pair<std::size_t, std::size_t>{8, 5}, {20, 2}, {4, 10}}) {
    double previous = -1.0;
    for (double j = 0.0; j <= 1.0; j += 0.05) {
      const double p = candidates::lsh_collision_probability(j, bands, rows);
      EXPECT_GE(p, previous) << "bands=" << bands << " J=" << j;
      previous = p;
    }
  }
}

TEST(CollisionProbability, MonotoneInBandCountAtFixedRows) {
  // More bands = more chances to collide, at every similarity level.
  for (double j = 0.1; j < 1.0; j += 0.2) {
    double previous = -1.0;
    for (std::size_t bands = 1; bands <= 32; bands *= 2) {
      const double p = candidates::lsh_collision_probability(j, bands, 4);
      EXPECT_GE(p, previous) << "J=" << j << " bands=" << bands;
      previous = p;
    }
  }
}

TEST(CollisionProbability, ThresholdIsTheSCurveMidpoint) {
  // At J = lsh_threshold the collision probability approaches
  // 1 - (1 - 1/b)^b, which lives in (0.5, 0.75) for b >= 2.
  for (const auto& [bands, rows] :
       {std::pair<std::size_t, std::size_t>{8, 5}, {10, 4}, {20, 2}}) {
    const double mid = candidates::lsh_collision_probability(
        candidates::lsh_threshold(bands, rows), bands, rows);
    EXPECT_GT(mid, 0.5) << "bands=" << bands;
    EXPECT_LT(mid, 0.75) << "bands=" << bands;
  }
}

// ------------------------------------------------------------ shape selection

TEST(BandShape, ValidationErrors) {
  EXPECT_THROW((void)candidates::validated_band_shape(40, 0),
               common::InvalidArgument);
  EXPECT_THROW((void)candidates::validated_band_shape(40, 7),
               common::InvalidArgument);
  EXPECT_THROW((void)candidates::validated_band_shape(0, 1),
               common::InvalidArgument);
  const auto shape = candidates::validated_band_shape(40, 8);
  EXPECT_EQ(shape.bands, 8u);
  EXPECT_EQ(shape.rows, 5u);
}

TEST(BandShape, SelectionMeetsTheRecallTargetAtTheta) {
  for (const double theta : {0.5, 0.7, 0.9, 0.95}) {
    const auto shape = candidates::select_band_shape(40, theta, 0.95);
    EXPECT_EQ(shape.bands * shape.rows, 40u);
    EXPECT_GE(candidates::lsh_collision_probability(theta, shape.bands,
                                                    shape.rows),
              0.95)
        << "theta=" << theta;
  }
}

TEST(BandShape, SelectionPrefersTheCheapestQualifyingShape) {
  // 40 hashes at theta 0.9: (4,10) catches only ~0.82, (5,8) ~0.945,
  // (8,5) ~0.9992 — the first shape at or above 0.95 recall is bands=8.
  const auto shape = candidates::select_band_shape(40, 0.9, 0.95);
  EXPECT_EQ(shape.bands, 8u);
  EXPECT_EQ(shape.rows, 5u);
  // Everything collides at any banding when theta = 1.
  EXPECT_EQ(candidates::select_band_shape(40, 1.0, 0.95).bands, 1u);
}

TEST(BandShape, LowThetaNeedsMoreBands) {
  const auto high = candidates::select_band_shape(40, 0.9, 0.95);
  const auto low = candidates::select_band_shape(40, 0.5, 0.95);
  EXPECT_GT(low.bands, high.bands);
}

TEST(BandShape, ResolveHonorsExplicitBands) {
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  params.bands = 20;
  const auto shape = candidates::resolve_band_shape(params, 40, 0.9);
  EXPECT_EQ(shape.bands, 20u);
  params.bands = 6;  // does not divide 40
  EXPECT_THROW((void)candidates::resolve_band_shape(params, 40, 0.9),
               common::InvalidArgument);
}

// -------------------------------------------------------------- enumeration

TEST(EnumeratePairs, ExactBackendIsAllPairs) {
  const auto matrix = family_matrix(3, 4, 40, 0.1, 11);
  const auto pairs = candidates::enumerate_pairs(matrix, {}, 0.9);
  ASSERT_EQ(pairs.size(), 12u * 11u / 2u);
  std::size_t k = 0;
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t j = i + 1; j < 12; ++j) {
      EXPECT_EQ(pairs[k++], (candidates::Pair{i, j}));
    }
  }
}

TEST(EnumeratePairs, LshIsASortedUniqueSubsetContainingTruePairs) {
  const auto matrix = family_matrix(8, 6, 40, 0.02, 12);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  const auto pairs = candidates::enumerate_pairs(matrix, params, 0.9);
  EXPECT_LT(pairs.size(), 48u * 47u / 2u);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(a, b);
    EXPECT_LT(b, matrix.rows());
  }
  // Identical sketches collide in every band, so within-family pairs of the
  // low-noise families must all be present.
  std::size_t family_pairs = 0;
  for (const auto& [a, b] : pairs) family_pairs += a / 6 == b / 6 ? 1 : 0;
  EXPECT_GE(family_pairs, 8u * 3u);  // well over half of each family's 15
}

TEST(EnumeratePairs, IdenticalAtAnyPoolSize) {
  const auto matrix = family_matrix(6, 5, 40, 0.05, 13);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  const auto serial = candidates::enumerate_pairs(matrix, params, 0.9);
  EXPECT_EQ(candidates::enumerate_pairs(matrix, params, 0.9, &one), serial);
  EXPECT_EQ(candidates::enumerate_pairs(matrix, params, 0.9, &four), serial);
}

// ------------------------------------------------------------- verification

TEST(VerifyPairs, ExactGraphReproducesTheDenseMatrixBitForBit) {
  const auto matrix = family_matrix(4, 5, 40, 0.2, 14);
  for (const auto estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const auto graph = candidates::build_graph(matrix, {}, 0.9, estimator);
    const SimilarityMatrix dense = pairwise_similarity_matrix(matrix, estimator);
    ASSERT_EQ(graph.edges.size(), 20u * 19u / 2u);
    for (const auto& edge : graph.edges) {
      // One float narrowing, exactly like the dense fill.
      EXPECT_EQ(static_cast<float>(edge.similarity), dense.at(edge.a, edge.b));
    }
    const SimilarityMatrix densified =
        similarity_matrix_from_graph(graph);
    ASSERT_EQ(densified.size(), dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) {
      for (std::size_t j = 0; j < dense.size(); ++j) {
        EXPECT_EQ(densified.at(i, j), dense.at(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(VerifyPairs, IdenticalUnderScalarAndActiveKernelBackends) {
  const auto matrix = family_matrix(5, 6, 40, 0.1, 15);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  const auto active = candidates::build_graph(
      matrix, params, 0.9, SketchEstimator::kComponentMatch);
  kernels::ScopedBackendOverride scalar(kernels::Backend::kScalar);
  const auto forced = candidates::build_graph(
      matrix, params, 0.9, SketchEstimator::kComponentMatch);
  EXPECT_EQ(active.edges, forced.edges);
}

// ------------------------------------------------------------- graph greedy

TEST(GreedyClusterGraph, MatchesExhaustiveSweepOnTheExactGraph) {
  const auto matrix = family_matrix(6, 7, 40, 0.15, 16);
  for (const auto estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const GreedyParams params{.theta = 0.6, .estimator = estimator};
    const auto graph = candidates::build_graph(matrix, {}, 0.6, estimator);
    const auto from_graph = greedy_cluster_graph(graph, params);
    const auto exhaustive = greedy_cluster(matrix, params);
    EXPECT_EQ(from_graph.labels, exhaustive.labels);
    EXPECT_EQ(from_graph.num_clusters, exhaustive.num_clusters);
    EXPECT_EQ(from_graph.representatives, exhaustive.representatives);
  }
}

TEST(GreedyClusterGraph, MatchesExhaustiveSweepWhenAnEdgeTiesTheta) {
  // K = 12, two rows sharing 5 components, θ = 5/12.  m / K and m · (1/K)
  // differ in the last bit here (0.41666666666666669 vs ...663): the sweep
  // and the graph must score the pair with the same rounding, or one joins
  // the rows and the other keeps them apart.
  kernels::SketchMatrix matrix(2, 12);
  for (std::size_t k = 0; k < 12; ++k) {
    matrix.row(0)[k] = 100 + k;
    matrix.row(1)[k] = k < 5 ? 100 + k : 200 + k;
  }
  const double theta = 5.0 / 12.0;
  const GreedyParams params{.theta = theta,
                            .estimator = SketchEstimator::kComponentMatch};
  const auto graph = candidates::build_graph(matrix, {}, theta,
                                             SketchEstimator::kComponentMatch);
  ASSERT_EQ(graph.edges.size(), 1u);
  const auto from_graph = greedy_cluster_graph(graph, params);
  const auto exhaustive = greedy_cluster(matrix, params);
  EXPECT_EQ(from_graph.labels, exhaustive.labels);
  EXPECT_EQ(from_graph.num_clusters, exhaustive.num_clusters);
}

TEST(ComponentMatchScore, EveryScorerUsesTheReciprocalRounding) {
  // For every K ≤ 256 and m ≤ K, the per-pair estimators, verification and
  // the dense matrix all produce kernels::MatchScore(K)(m) = m · (1/K).
  for (std::size_t k = 1; k <= 256; ++k) {
    kernels::SketchMatrix matrix(k + 1, k);
    for (std::size_t m = 0; m <= k; ++m) {
      // Row m > 0 shares its first m components with row 0.
      for (std::size_t c = 0; c < k; ++c) {
        matrix.row(m)[c] = m == 0 || c < m ? c + 1 : (m + 1) * 1000 + c;
      }
    }
    const SketchPairSimilarity pair_score(matrix,
                                          SketchEstimator::kComponentMatch);
    std::vector<candidates::Pair> pairs;
    for (std::uint32_t m = 1; m <= k; ++m) pairs.emplace_back(0, m);
    const auto graph = candidates::verify_pairs(
        matrix, pairs, SketchEstimator::kComponentMatch);
    for (std::size_t m = 1; m <= k; ++m) {
      const double expected = kernels::MatchScore(k)(m);
      ASSERT_EQ(expected, static_cast<double>(m) * (1.0 / static_cast<double>(k)));
      ASSERT_EQ(pair_score(0, m), expected) << "K=" << k << " m=" << m;
      ASSERT_EQ(graph.edges[m - 1].similarity, expected) << "K=" << k;
      const Sketch a(matrix.row(0).begin(), matrix.row(0).end());
      const Sketch b(matrix.row(m).begin(), matrix.row(m).end());
      ASSERT_EQ(component_match_similarity(a, b), expected) << "K=" << k;
    }
  }
}

TEST(GreedyClusterGraph, EmptyGraphIsAllSingletons) {
  candidates::SparseSimilarityGraph graph;
  graph.num_vertices = 4;
  const auto result = greedy_cluster_graph(graph, {.theta = 0.9});
  EXPECT_EQ(result.num_clusters, 4u);
  EXPECT_EQ(result.labels, (std::vector<int>{0, 1, 2, 3}));
}

// --------------------------------------------------------- LshBucketIndex
// The incremental index IncrementalClusterer queries, with the default seed.

constexpr std::uint64_t kIndexSeed = candidates::Params{}.seed;

Sketch random_sketch(std::size_t length, common::Xoshiro256& rng) {
  Sketch sketch(length);
  for (auto& v : sketch) v = rng();
  return sketch;
}

TEST(LshIndex, RejectsBadShapes) {
  // The shape must tile the sketch exactly, and every sketch must fit it.
  const candidates::BandShape ragged{7, 7};
  const candidates::BandShape empty{0, 5};
  EXPECT_THROW(candidates::LshBucketIndex(50, ragged, kIndexSeed),
               common::InvalidArgument);
  EXPECT_THROW(candidates::LshBucketIndex(50, empty, kIndexSeed),
               common::InvalidArgument);
  candidates::LshBucketIndex index(50, {10, 5}, kIndexSeed);
  EXPECT_THROW(index.insert(0, Sketch(49)), common::InvalidArgument);
  EXPECT_THROW((void)index.candidates(Sketch(49)), common::InvalidArgument);
}

TEST(LshIndex, IdenticalSketchesAlwaysCandidates) {
  candidates::LshBucketIndex index(40, {8, 5}, kIndexSeed);
  common::Xoshiro256 rng(1);
  const Sketch sketch = random_sketch(40, rng);
  index.insert(7, sketch);
  const auto found = index.candidates(sketch);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], 7);
  EXPECT_EQ(index.size(), 1u);
}

TEST(LshIndex, DisjointSketchesRarelyCollide) {
  candidates::LshBucketIndex index(40, {8, 5}, kIndexSeed);
  common::Xoshiro256 rng(2);
  for (int id = 0; id < 50; ++id) index.insert(id, random_sketch(40, rng));
  EXPECT_LT(index.candidates(random_sketch(40, rng)).size(), 3u);
}

TEST(LshIndex, SimilarSketchesCollide) {
  candidates::LshBucketIndex index(40, {20, 2}, kIndexSeed);  // sensitive
  common::Xoshiro256 rng(3);
  const Sketch base = random_sketch(40, rng);
  index.insert(0, base);
  Sketch similar = base;
  for (std::size_t i = 0; i < 4; ++i) similar[i * 10] = rng();  // J ~ 0.9
  const auto found = index.candidates(similar);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0], 0);
}

TEST(LshIndex, CandidatesDedupAcrossBands) {
  candidates::LshBucketIndex index(40, {8, 5}, kIndexSeed);
  common::Xoshiro256 rng(4);
  const Sketch sketch = random_sketch(40, rng);
  index.insert(1, sketch);
  // The same id collides in all 8 bands but must be returned once.
  EXPECT_EQ(index.candidates(sketch).size(), 1u);
}

// ------------------------------------------------ bucket-to-pairs expansion

/// A duplicate-heavy table: 2 100 rows, of which 700 (a third) are exact
/// copies of one sketch, 300 are near-copies of it (two components
/// redrawn), and the rest are families of five and loose pairs, so buckets
/// range from two ids to ~1 000.
kernels::SketchMatrix duplicate_heavy_matrix() {
  common::Xoshiro256 rng(41);
  Sketch base(40);
  for (auto& v : base) v = rng();
  std::vector<Sketch> rows(700, base);
  for (std::size_t i = 0; i < 300; ++i) {
    Sketch near = base;
    near[rng.bounded(40)] = rng();
    near[rng.bounded(40)] = rng();
    rows.push_back(std::move(near));
  }
  for (const auto& families : {family_matrix(150, 5, 40, 0.05, 42),
                                family_matrix(175, 2, 40, 0.15, 45)}) {
    for (std::size_t i = 0; i < families.rows(); ++i) {
      const auto row = families.row(i);
      rows.emplace_back(row.begin(), row.end());
    }
  }
  // Interleave so the copies are not one contiguous id range.
  for (std::size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.bounded(i + 1)]);
  }
  return kernels::SketchMatrix::from_sketches(rows);
}

/// The definition of the LSH candidate set, written out directly: every pair
/// of bucket-mates over all bands, then sort + unique.
std::vector<candidates::Pair> brute_force_lsh_pairs(
    const kernels::SketchMatrix& matrix, const candidates::Params& params,
    double theta) {
  const auto shape =
      candidates::resolve_band_shape(params, matrix.cols(), theta);
  std::map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  for (std::uint32_t i = 0; i < matrix.rows(); ++i) {
    for (std::size_t band = 0; band < shape.bands; ++band) {
      buckets[candidates::band_bucket_key(matrix.row(i), band, shape,
                                          params.seed)]
          .push_back(i);
    }
  }
  std::vector<candidates::Pair> pairs;
  for (const auto& [key, ids] : buckets) {
    for (const std::uint32_t a : ids) {
      for (const std::uint32_t b : ids) {
        if (a < b) pairs.emplace_back(a, b);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

candidates::Params lsh_params() {
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  return params;
}

TEST(PairsFromBuckets, DuplicateHeavyMatrixMatchesTheBruteForceOracle) {
  const auto matrix = duplicate_heavy_matrix();
  ASSERT_GE(matrix.rows(), 2000u);
  const auto oracle = brute_force_lsh_pairs(matrix, lsh_params(), 0.9);
  // The 700 copies alone are 700 · 699 / 2 pairs.
  ASSERT_GT(oracle.size(), 700u * 699u / 2u);
  EXPECT_EQ(candidates::enumerate_pairs(matrix, lsh_params(), 0.9), oracle);
}

TEST(PairsFromBuckets, DuplicateHeavyIdenticalWithoutAPoolAndAtOneAndFourThreads) {
  const auto matrix = duplicate_heavy_matrix();
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  const auto serial = candidates::enumerate_pairs(matrix, lsh_params(), 0.9);
  EXPECT_EQ(candidates::enumerate_pairs(matrix, lsh_params(), 0.9, &one),
            serial);
  EXPECT_EQ(candidates::enumerate_pairs(matrix, lsh_params(), 0.9, &four),
            serial);
}

TEST(PairsFromBuckets, DuplicateHeavyCandidateJobMatchesLocalEnumeration) {
  const auto sketches =
      std::make_shared<const kernels::SketchMatrix>(duplicate_heavy_matrix());
  ExecutionOptions exec;
  exec.threads = 3;
  exec.records_per_split = 256;
  exec.cluster.nodes = 4;
  EXPECT_EQ(run_candidate_job(sketches, lsh_params(), 0.9, exec).pairs,
            candidates::enumerate_pairs(*sketches, lsh_params(), 0.9));
}

/// A two-band sketch whose bands hash to one key: the last component of band
/// 1 is chosen so both bands feed the same value into their final mix.
Sketch self_colliding_sketch(const candidates::BandShape& shape,
                             std::uint64_t seed) {
  common::Xoshiro256 rng(43);
  Sketch sketch(shape.bands * shape.rows);
  for (auto& v : sketch) v = rng();
  auto chain_before_last = [&](std::size_t band) {
    std::uint64_t h = common::mix64(seed ^ (band * 0x9e3779b97f4a7c15ULL));
    for (std::size_t r = band * shape.rows; r + 1 < (band + 1) * shape.rows; ++r) {
      h = common::mix64(h ^ sketch[r]);
    }
    return h;
  };
  sketch[2 * shape.rows - 1] =
      chain_before_last(0) ^ sketch[shape.rows - 1] ^ chain_before_last(1);
  return sketch;
}

TEST(PairsFromBuckets, TwoBandsOfOneRowOnOneKeyMakeNoSelfPair) {
  candidates::Params params = lsh_params();
  params.bands = 8;
  const candidates::BandShape shape{8, 5};
  const Sketch colliding = self_colliding_sketch(shape, params.seed);
  ASSERT_EQ(candidates::band_bucket_key(colliding, 0, shape, params.seed),
            candidates::band_bucket_key(colliding, 1, shape, params.seed));

  common::Xoshiro256 rng(44);
  const Sketch other = random_sketch(40, rng);
  // Alone with an unrelated row: the shared bucket holds one distinct id.
  const auto lone = std::make_shared<const kernels::SketchMatrix>(
      kernels::SketchMatrix::from_sketches(std::vector<Sketch>{colliding, other}));
  common::ThreadPool pool(2);
  EXPECT_TRUE(candidates::enumerate_pairs(*lone, params, 0.9).empty());
  EXPECT_TRUE(candidates::enumerate_pairs(*lone, params, 0.9, &pool).empty());
  // One read per split, so colliding copies meet only in the reducer.
  ExecutionOptions per_read;
  per_read.records_per_split = 1;
  EXPECT_TRUE(run_candidate_job(lone, params, 0.9, per_read).pairs.empty());

  // With a copy of itself: exactly the one cross pair, never (i, i).
  const auto twice = std::make_shared<const kernels::SketchMatrix>(
      kernels::SketchMatrix::from_sketches(
          std::vector<Sketch>{other, colliding, colliding}));
  const std::vector<candidates::Pair> expected{{1, 2}};
  EXPECT_EQ(candidates::enumerate_pairs(*twice, params, 0.9), expected);
  EXPECT_EQ(candidates::enumerate_pairs(*twice, params, 0.9, &pool), expected);
  EXPECT_EQ(run_candidate_job(twice, params, 0.9, per_read).pairs, expected);
}

TEST(PairsFromBuckets, ExpandsHandBuiltBucketsRowByRow) {
  // Buckets {0, 2, 5}, {2, 5}, {1, 3}: (2, 5) surfaces twice.
  candidates::BucketCsr buckets;
  buckets.ids = {0, 2, 5, 2, 5, 1, 3};
  buckets.offsets = {0, 3, 5, 7};
  const std::vector<candidates::Pair> expected{
      {0, 2}, {0, 5}, {1, 3}, {2, 5}};
  EXPECT_EQ(candidates::pairs_from_buckets(buckets, 6), expected);
  common::ThreadPool pool(3);
  EXPECT_EQ(candidates::pairs_from_buckets(buckets, 6, &pool), expected);
  EXPECT_TRUE(candidates::pairs_from_buckets({}, 6).empty());
}

TEST(PairsFromBuckets, RejectsMalformedBuckets) {
  const auto expand = [](std::vector<std::uint32_t> offsets,
                         std::vector<std::uint32_t> ids, std::size_t rows) {
    candidates::BucketCsr buckets;
    buckets.offsets = std::move(offsets);
    buckets.ids = std::move(ids);
    return candidates::pairs_from_buckets(buckets, rows);
  };
  EXPECT_THROW((void)expand({0, 2}, {1, 9}, 5), common::InvalidArgument);
  EXPECT_THROW((void)expand({0, 2}, {3, 1}, 5), common::InvalidArgument);
  EXPECT_THROW((void)expand({0, 2}, {1, 1}, 5), common::InvalidArgument);
  EXPECT_THROW((void)expand({0, 1, 3}, {0, 1, 2}, 5), common::InvalidArgument);
  EXPECT_THROW((void)expand({0, 2}, {0, 1, 2}, 5), common::InvalidArgument);
  EXPECT_THROW((void)expand({}, {}, 5), common::InvalidArgument);
}

// ------------------------------------------------------ indexed greedy
// Algorithm 1 over LSH-banded candidates: greedy_cluster_graph on the
// kLshBanded graph, the batch counterpart of IncrementalClusterer.

GreedyResult indexed_greedy(const kernels::SketchMatrix& sketches,
                            const GreedyParams& params, std::size_t bands) {
  candidates::Params lsh;
  lsh.backend = candidates::Backend::kLshBanded;
  lsh.bands = bands;
  return greedy_cluster_graph(
      candidates::build_graph(sketches, lsh, params.theta, params.estimator),
      params);
}

TEST(GreedyClusterIndexed, MatchesExactGreedyOnSeparatedData) {
  const auto sketches = family_matrix(5, 12, 40, 0.05, 5);
  const GreedyParams params{.theta = 0.5,
                            .estimator = SketchEstimator::kComponentMatch};
  const auto exact = greedy_cluster(sketches, params);
  const auto indexed = indexed_greedy(sketches, params, 20);
  EXPECT_EQ(indexed.labels, exact.labels);
  EXPECT_EQ(indexed.num_clusters, exact.num_clusters);
}

TEST(GreedyClusterIndexed, FarFewerComparisonsThanExact) {
  const auto sketches = family_matrix(40, 10, 40, 0.05, 6);
  const GreedyParams params{.theta = 0.5,
                            .estimator = SketchEstimator::kComponentMatch};
  const auto exact = greedy_cluster(sketches, params);
  const auto indexed = indexed_greedy(sketches, params, 20);
  EXPECT_EQ(indexed.num_clusters, exact.num_clusters);
  EXPECT_LT(indexed.comparisons, exact.comparisons / 4);
}

TEST(GreedyClusterIndexed, EmptyAndSingle) {
  EXPECT_TRUE(indexed_greedy({}, {}, 8).labels.empty());
  const kernels::SketchMatrix one(1, 40, 1);
  EXPECT_EQ(indexed_greedy(one, {.theta = 0.5}, 8).num_clusters, 1u);
}

TEST(GreedyClusterIndexed, LabelsAreDense) {
  const auto sketches = family_matrix(6, 6, 40, 0.3, 7);
  const auto result = indexed_greedy(sketches, {.theta = 0.6}, 10);
  std::set<int> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), result.num_clusters);
  for (const int label : result.labels) EXPECT_GE(label, 0);
}

TEST(GreedyClusterGraph, RejectsOutOfRangeEdges) {
  // The sweep walks the edge list in place, so every edge must be in range
  // and the list strictly ascending by (a, b) with a < b.
  const std::vector<std::vector<candidates::Edge>> bad = {
      {{1, 5, 0.9}},                          // b >= num_vertices
      {{1, 2, 0.9}, {0, 2, 0.9}},             // unsorted by a
      {{0, 2, 0.9}, {0, 1, 0.9}},             // unsorted by b within a run
      {{0, 1, 0.9}, {0, 1, 0.9}},             // duplicate
      {{0, 1, 0.9}, {1, 2, 0.9}, {1, 2, 0.4}},  // duplicate after a skip
      {{2, 1, 0.9}},                          // a > b
      {{1, 1, 0.9}},                          // a == b
  };
  for (const auto& edges : bad) {
    candidates::SparseSimilarityGraph graph;
    graph.num_vertices = 3;
    graph.edges = edges;
    EXPECT_THROW((void)greedy_cluster_graph(graph, {.theta = 0.5}),
                 common::InvalidArgument)
        << edges.size() << " edges, first (" << edges.front().a << ", "
        << edges.front().b << ")";
  }
  candidates::SparseSimilarityGraph empty;
  empty.edges.push_back({0, 1, 0.9});
  EXPECT_THROW((void)greedy_cluster_graph(empty, {.theta = 0.5}),
               common::InvalidArgument);
}

// ----------------------------------------------------- the MapReduce shape

class CandidateJobTest : public ::testing::Test {
 protected:
  static std::shared_ptr<const kernels::SketchMatrix> shared_family(
      std::uint64_t seed) {
    return std::make_shared<const kernels::SketchMatrix>(
        family_matrix(7, 6, 40, 0.05, seed));
  }

  static candidates::Params lsh_params() {
    candidates::Params params;
    params.backend = candidates::Backend::kLshBanded;
    return params;
  }
};

TEST_F(CandidateJobTest, MatchesLocalEnumerationExactAndLsh) {
  const auto sketches = shared_family(21);
  const kernels::SketchMatrix& matrix = *sketches;
  ExecutionOptions exec;

  const auto exact = run_candidate_job(sketches, {}, 0.9, exec);
  EXPECT_EQ(exact.pairs, candidates::enumerate_pairs(matrix, {}, 0.9));

  const auto lsh = run_candidate_job(sketches, lsh_params(), 0.9, exec);
  EXPECT_EQ(lsh.pairs, candidates::enumerate_pairs(matrix, lsh_params(), 0.9));
  EXPECT_EQ(lsh.shape.bands, 8u);
  EXPECT_GT(lsh.stats.input_records, 0u);
}

TEST_F(CandidateJobTest, ByteIdenticalAcrossThreadsSplitsAndNodes) {
  const auto sketches = shared_family(22);
  ExecutionOptions base;
  base.records_per_split = 16;
  const auto reference = run_candidate_job(sketches, lsh_params(), 0.9, base);
  ASSERT_FALSE(reference.pairs.empty());

  for (const std::size_t threads : {1, 3}) {
    for (const std::size_t split : {5, 11, 64}) {
      // 3 nodes run 6 reducers, which do not divide the 256 key parts;
      // 130 nodes run 260, so some reducers own no part.
      for (const std::size_t nodes : {1, 3, 4, 130}) {
        ExecutionOptions exec;
        exec.threads = threads;
        exec.records_per_split = split;
        exec.cluster.nodes = nodes;
        const auto got = run_candidate_job(sketches, lsh_params(), 0.9, exec);
        EXPECT_EQ(got.pairs, reference.pairs)
            << "threads=" << threads << " split=" << split
            << " nodes=" << nodes;
      }
    }
  }
}

TEST_F(CandidateJobTest, ThreeByteIdLanesMatchLocalEnumeration) {
  // Past 2^16 rows a read id takes three byte lanes of the shuffled blocks.
  const auto sketches = std::make_shared<const kernels::SketchMatrix>(
      family_matrix(13108, 5, 8, 0.05, 25));
  ASSERT_GT(sketches->rows(), std::size_t{1} << 16);
  ExecutionOptions exec;
  exec.threads = 2;
  exec.records_per_split = 4096;
  exec.cluster.nodes = 4;
  const auto job = run_candidate_job(sketches, lsh_params(), 0.9, exec);
  ASSERT_FALSE(job.pairs.empty());
  EXPECT_GT(job.pairs.back().second, 0xFFFFu);
  EXPECT_EQ(job.pairs,
            candidates::enumerate_pairs(*sketches, lsh_params(), 0.9));
}

TEST_F(CandidateJobTest, VerifyJobMatchesLocalScoring) {
  const auto sketches = shared_family(23);
  const kernels::SketchMatrix& matrix = *sketches;
  ExecutionOptions exec;
  exec.records_per_split = 16;
  for (const auto estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const auto pairs = candidates::enumerate_pairs(matrix, lsh_params(), 0.9);
    const auto local = candidates::verify_pairs(matrix, pairs, estimator);
    const auto job = run_verify_job(sketches, pairs, estimator, exec);
    EXPECT_EQ(job.graph.num_vertices, local.num_vertices);
    EXPECT_EQ(job.graph.edges, local.edges);
  }
}

TEST_F(CandidateJobTest, FaultPlanLeavesCandidatesAndEdgesIdentical) {
  const auto sketches = shared_family(24);
  ExecutionOptions healthy;
  healthy.records_per_split = 8;
  const auto reference =
      run_candidate_job(sketches, lsh_params(), 0.9, healthy);
  const auto reference_edges =
      run_verify_job(sketches, reference.pairs,
                     SketchEstimator::kComponentMatch, healthy);

  // Node 1 crashes early and never recovers; with 4 nodes at least one
  // stays up and the job replays the lost splits.
  ExecutionOptions faulty = healthy;
  faulty.fault_plan =
      mr::faults::FaultPlan({{1, 0.0001, mr::faults::kNever}});
  const auto chaos = run_candidate_job(sketches, lsh_params(), 0.9, faulty);
  EXPECT_EQ(chaos.pairs, reference.pairs);
  const auto chaos_edges = run_verify_job(
      sketches, chaos.pairs, SketchEstimator::kComponentMatch, faulty);
  EXPECT_EQ(chaos_edges.graph.edges, reference_edges.graph.edges);
}

// ---------------------------------------------------------- pipeline routing

class LshPipelineTest : public ::testing::Test {
 protected:
  static std::vector<bio::FastaRecord> sample_reads() {
    return simdata::build_whole_metagenome(
               simdata::whole_metagenome_spec("S8"), {.reads = 80, .seed = 1})
        .reads;
  }

  static PipelineParams lsh_pipeline_params(Mode mode) {
    PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 64, .canonical = true,
                      .seed = 1};
    params.mode = mode;
    params.theta = mode == Mode::kGreedy ? 0.34 : 0.5;
    params.candidates.backend = candidates::Backend::kLshBanded;
    return params;
  }
};

TEST_F(LshPipelineTest, DistributedMatchesLocalInBothModes) {
  const auto reads = sample_reads();
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    const auto params = lsh_pipeline_params(mode);
    ExecutionOptions distributed;
    distributed.distributed = true;
    distributed.cluster.nodes = 4;
    distributed.records_per_split = 16;
    ExecutionOptions local;
    local.distributed = false;
    const auto a = run_pipeline(reads, params, distributed);
    const auto b = run_pipeline(reads, params, local);
    EXPECT_EQ(a.labels, b.labels) << mode_name(mode);
    EXPECT_EQ(a.num_clusters, b.num_clusters);
    EXPECT_GT(a.candidate_stats.input_records, 0u);
    EXPECT_GT(a.verify_stats.input_records, 0u);
    EXPECT_GT(a.candidate_pairs, 0u);
  }
}

TEST_F(LshPipelineTest, ByteIdenticalAcrossThreadCountsAndSplits) {
  const auto reads = sample_reads();
  const auto params = lsh_pipeline_params(Mode::kGreedy);
  ExecutionOptions base;
  base.records_per_split = 16;
  const auto reference = run_pipeline(reads, params, base);
  for (const std::size_t threads : {1, 3}) {
    for (const std::size_t split : {7, 40}) {
      ExecutionOptions exec;
      exec.threads = threads;
      exec.records_per_split = split;
      const auto got = run_pipeline(reads, params, exec);
      EXPECT_EQ(got.labels, reference.labels)
          << "threads=" << threads << " split=" << split;
    }
  }
}

TEST_F(LshPipelineTest, ExactBackendKeepsTodaysOutputs) {
  // The default params (exact backend) must route through the legacy jobs
  // and reproduce the pre-candidates pipeline exactly.
  const auto reads = sample_reads();
  PipelineParams params = lsh_pipeline_params(Mode::kHierarchical);
  params.candidates = {};  // back to kExactAllPairs
  ExecutionOptions exec;
  exec.records_per_split = 16;
  const auto result = run_pipeline(reads, params, exec);
  EXPECT_EQ(result.candidate_stats.input_records, 0u);  // no candidate job ran
  EXPECT_GT(result.similarity_stats.input_records, 0u);
  EXPECT_EQ(result.candidate_pairs, 0u);
}

// ------------------------------------------------------------ recall harness

TEST(CandidateRecall, ExactBackendIsPerfect) {
  const auto matrix = family_matrix(5, 5, 40, 0.1, 31);
  const auto report = eval::candidate_recall(
      matrix, 0.9, {}, SketchEstimator::kComponentMatch);
  EXPECT_EQ(report.reads, 25u);
  EXPECT_EQ(report.candidate_pairs, 25u * 24u / 2u);
  EXPECT_EQ(report.recovered_pairs, report.true_pairs);
  EXPECT_DOUBLE_EQ(report.recall, 1.0);
}

TEST(CandidateRecall, LshMeetsTheTargetOnFamilyData) {
  const auto matrix = family_matrix(10, 6, 40, 0.02, 32);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  const auto report = eval::candidate_recall(
      matrix, 0.9, params, SketchEstimator::kComponentMatch);
  EXPECT_GT(report.true_pairs, 0u);
  EXPECT_GE(report.recall, 0.95);
  EXPECT_GT(report.precision, 0.0);
  EXPECT_EQ(report.shape.bands, 8u);
}

TEST(CandidateRecall, SubsamplesAndParallelScoringAgree) {
  const auto matrix = family_matrix(8, 8, 40, 0.1, 33);
  candidates::Params params;
  params.backend = candidates::Backend::kLshBanded;
  common::ThreadPool pool(4);
  const auto serial = eval::candidate_recall(
      matrix, 0.8, params, SketchEstimator::kSetBased, 40);
  const auto parallel = eval::candidate_recall(
      matrix, 0.8, params, SketchEstimator::kSetBased, 40, &pool);
  EXPECT_EQ(serial.reads, 40u);
  EXPECT_EQ(serial.true_pairs, parallel.true_pairs);
  EXPECT_EQ(serial.candidate_pairs, parallel.candidate_pairs);
  EXPECT_EQ(serial.recovered_pairs, parallel.recovered_pairs);
}

}  // namespace
}  // namespace mrmc::core
