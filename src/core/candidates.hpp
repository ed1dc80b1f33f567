// core::candidates — the pair-enumeration layer every clustering path goes
// through.  The paper (and the seed reproduction) compares all O(n^2) sketch
// pairs in the similarity job, the greedy sweep, and the hierarchical
// matrix; this layer makes "which pairs do we even score?" a first-class,
// swappable decision with two backends behind one interface:
//
//   * kExactAllPairs — every (i, j), i < j.  Today's behavior, the default
//     for small inputs, and the recall oracle the LSH backend is measured
//     against (eval/candidate_recall).
//   * kLshBanded — minhash sketches are split into `bands` bands of `rows`
//     components; two sketches land in the same bucket of some band with
//     probability 1 - (1 - J^rows)^bands (the classic S-curve), so only
//     bucket-mates become candidate pairs.  Near-linear in practice where
//     all-pairs is quadratic (bench/ablation_lsh_index).
//
// The LSH backend's product is the bucket CSR (lsh_buckets, or the
// candidate MapReduce job's joined slices).  Algorithm 1 runs straight off
// it (sweep_buckets: the pipeline's greedy_cluster_buckets,
// IncrementalClusterer and the MC-LSH baseline), checking each read against
// the representatives in its buckets only.  The hierarchical path expands it
// into pairs (pairs_from_buckets) and *verifies* them: every pair is scored
// into a SparseSimilarityGraph that similarity_matrix_from_graph densifies
// and pig's CalculatePairwiseSimilarity consumes.  enumerate_pairs,
// build_graph and greedy_cluster_graph compose the same pieces into the
// pair-list path the tests and benches compare against.  The S-curve /
// band-shape math lives here and only here.
//
// Everything in this header is deterministic: bucket lists, candidate sets
// and edge lists are sorted and deduplicated, so they are byte-identical
// across thread counts, record split orders, local vs distributed
// execution, and scalar vs AVX2 kernel backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "core/minhash.hpp"

namespace mrmc::core::candidates {

enum class Backend {
  kExactAllPairs,  ///< every pair; the recall oracle
  kLshBanded,      ///< banded minhash buckets propose pairs
};

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// A resolved banding: bands * rows == sketch_size.
struct BandShape {
  std::size_t bands = 0;
  std::size_t rows = 0;
};

/// Probability that two sketches with Jaccard similarity `jaccard` collide
/// in at least one band: 1 - (1 - J^rows)^bands.
[[nodiscard]] double lsh_collision_probability(double jaccard, std::size_t bands,
                                               std::size_t rows) noexcept;

/// The similarity at which the S-curve crosses 1/2 — the banding's effective
/// threshold: (1/bands)^(1/rows) approximately.
[[nodiscard]] double lsh_threshold(std::size_t bands, std::size_t rows) noexcept;

/// Validates an explicit band count against the sketch length.  Throws
/// common::InvalidArgument unless bands >= 1 and bands divides sketch_size.
[[nodiscard]] BandShape validated_band_shape(std::size_t sketch_size,
                                             std::size_t bands);

/// θ-driven shape selection: among the divisor pairs (bands, rows) with
/// bands * rows == sketch_size, pick the cheapest banding (fewest bands —
/// fewest buckets, fewest candidates) whose S-curve still recovers pairs at
/// similarity `theta` with probability >= `target_recall`.  The collision
/// probability at fixed J rises monotonically with the band count, so the
/// answer is unique; when even the most sensitive shape (rows == 1) misses
/// the target, that shape is returned.
[[nodiscard]] BandShape select_band_shape(std::size_t sketch_size, double theta,
                                          double target_recall = 0.95);

struct Params {
  Backend backend = Backend::kExactAllPairs;
  /// Explicit band count for the LSH backend; 0 = choose from θ via
  /// select_band_shape.  Must divide the sketch length when nonzero.
  std::size_t bands = 0;
  /// Auto band-shape target: minimum S-curve collision probability at θ.
  double target_recall = 0.95;
  std::uint64_t seed = 0x5ca1ab1eULL;
};

/// Resolve `params` against a concrete sketch length (validates explicit
/// band counts, runs the S-curve selection for bands == 0).
[[nodiscard]] BandShape resolve_band_shape(const Params& params,
                                           std::size_t sketch_size,
                                           double theta);

/// The banding hash: bucket key of `sketch`'s band `band` under `shape`,
/// one mix64 round per cell.  The batch bucketing and the candidate
/// MapReduce job both call it through part_entries, so their bucket
/// structure (and therefore their candidate sets) agree.  `sketch` is a row
/// of 64-bit values or of 16-bit codes, whose zero-extended codes it mixes:
/// a band of codes shares a key with exactly the rows sharing its values,
/// since a stamped hasher's h_i is one to one.
template <typename Cells>
[[nodiscard]] std::uint64_t band_bucket_key(const Cells& sketch, std::size_t band,
                                            const BandShape& shape,
                                            std::uint64_t seed) noexcept {
  std::uint64_t h = common::mix64(seed ^ (band * 0x9e3779b97f4a7c15ULL));
  for (std::size_t r = band * shape.rows; r < (band + 1) * shape.rows; ++r) {
    h = common::mix64(h ^ sketch[r]);
  }
  return h;
}

/// An unordered candidate pair, stored with a < b.
using Pair = std::pair<std::uint32_t, std::uint32_t>;

/// Enumerate candidate pairs for the whole sketch matrix under `params`:
/// all pairs (exact backend) or bucket-mates in at least one band (LSH
/// backend: lsh_buckets, then pairs_from_buckets).  The result is sorted by
/// (a, b) and deduplicated — identical at any `pool` size, and identical to
/// the expansion of the candidate MapReduce job's buckets for the same
/// inputs.  Read ids are 32-bit: the matrix may hold at most 2^32 - 1 rows,
/// and for the LSH backend rows × bands must also stay below 2^32 (both are
/// checked; InvalidArgument otherwise).
[[nodiscard]] std::vector<Pair> enumerate_pairs(
    const kernels::SketchMatrix& sketches, const Params& params, double theta,
    common::ThreadPool* pool = nullptr);

/// LSH buckets in CSR form: bucket g holds ids[offsets[g], offsets[g + 1]),
/// strictly ascending, at least two ids each.  A bucket is every (read,
/// band) entry sharing one band_bucket_key, across all bands, with repeated
/// ids (two bands of one read landing on the same key) collapsed.
struct BucketCsr {
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> ids;

  /// Wire size for the MapReduce byte accounting: both arrays as u32s.
  [[nodiscard]] double approx_serialized_bytes() const noexcept {
    return 4.0 * static_cast<double>(offsets.size() + ids.size());
  }

  friend bool operator==(const BucketCsr&, const BucketCsr&) = default;
};

/// Bucket entries are partitioned on the top kPartBits of their key: equal
/// keys share a part, so sorting every part on its own gives the global
/// (key, id) order, and a contiguous run of parts compacts into a CSR slice
/// that joins its neighbours' without a merge.
inline constexpr unsigned kPartBits = 8;
inline constexpr std::size_t kParts = std::size_t{1} << kPartBits;

/// One (read, band) bucket entry: (band_bucket_key, read id).
using BucketEntry = std::pair<std::uint64_t, std::uint32_t>;

/// The bucket entries of rows [begin, end) — one per (row, band) — laid out
/// part by part, each part in row then band order, with part p at
/// [part_start[p], part_start[p + 1]).  `shape` must tile the sketch rows
/// (bands >= 1, bands × rows == sketches.cols(); InvalidArgument otherwise).  The rows are cut into blocks hashed
/// on `pool` when there is one, twice (once to size each part, once to fill
/// it), so the returned array, allocated on the calling thread, is the only
/// per-entry buffer.
[[nodiscard]] std::vector<BucketEntry> part_entries(
    const kernels::SketchMatrix& sketches, const BandShape& shape,
    std::uint64_t seed, std::size_t begin, std::size_t end,
    std::vector<std::size_t>& part_start, common::ThreadPool* pool = nullptr);

/// Sorts each part of a run of whole parts — part i is entries
/// [part_start[i], part_start[i + 1]), with part_start spanning all of
/// `entries` — and compacts the run into a CSR slice: one bucket per key,
/// ids ascending, a repeated id (two bands of one read on one key) kept
/// once, buckets with fewer than two distinct ids dropped.  Parts are
/// sorted and compacted on `pool` when there is one; the slice is allocated
/// on the calling thread.  A run of parts may also be passed as one part
/// ({0, entries.size()}): sorted whole, it has the same order.
[[nodiscard]] BucketCsr sort_and_compact(
    std::span<BucketEntry> entries, std::span<const std::size_t> part_start,
    common::ThreadPool* pool = nullptr);

/// The LSH buckets of the whole sketch matrix under `shape`: part_entries
/// over every row, then sort_and_compact — the local candidates stage, and
/// the CSR the candidate MapReduce job's joined slices reproduce byte for
/// byte.  rows × bands must stay below 2^32 (InvalidArgument otherwise).
[[nodiscard]] BucketCsr lsh_buckets(const kernels::SketchMatrix& sketches,
                                    const BandShape& shape, std::uint64_t seed,
                                    common::ThreadPool* pool = nullptr);

/// Throws InvalidArgument unless `buckets` is a CSR lsh_buckets could have
/// built over `rows` reads: offsets frame the ids, and every bucket holds
/// at least two ids, strictly ascending, each < rows.
void validate_buckets(const BucketCsr& buckets, std::size_t rows);

/// Every pair of bucket-mates among `rows` reads, sorted by (a, b), unique,
/// a < b: the one bucket-to-pairs routine enumerate_pairs and the
/// hierarchical pipeline's verify stage share.  Rows are split into
/// contiguous blocks of roughly equal pair work; each row gathers its mates
/// b > a from its buckets, deduplicates them and writes them in ascending
/// order, so the output is identical at any `pool` size.  Requires a CSR
/// that passes validate_buckets, rows < 2^32 and fewer than 2^32 ids
/// (InvalidArgument otherwise).
[[nodiscard]] std::vector<Pair> pairs_from_buckets(
    const BucketCsr& buckets, std::size_t rows,
    common::ThreadPool* pool = nullptr);

/// A verified candidate edge.  `similarity` is kept in double, computed with
/// the same reciprocal-multiply the batched kernels use, so densifying an
/// exact-backend graph (one float cast per edge) reproduces the all-pairs
/// similarity matrix bit-for-bit, while threshold comparisons in the graph
/// sweep see the same doubles the exhaustive sweep sees.
struct Edge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double similarity = 0.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// The sparse output of candidate verification: edges sorted by (a, b),
/// a < b, unique.  Consumed by similarity_matrix_from_graph (hierarchical),
/// by pig's CalculatePairwiseSimilarity, and by greedy_cluster_graph.
struct SparseSimilarityGraph {
  std::size_t num_vertices = 0;
  std::vector<Edge> edges;
};

/// The verify body of verify_pairs and of the pipeline's verify stage in
/// both modes: edges[p] = pairs[p] scored by `scorer`, for p in
/// [first, last).  A pair must hold a < b < the table's rows
/// (InvalidArgument otherwise).
void verify_rows(const SketchPairSimilarity& scorer, std::span<const Pair> pairs,
                 std::span<Edge> edges, std::size_t first, std::size_t last);

/// Score every candidate pair with the sketch kernels: verify_rows, pair by
/// pair on `pool`.  Pairs must be sorted unique (enumerate_pairs output);
/// edges come back in the same order.  Bit-identical at any pool size, with
/// or without the table's slot-disjoint stamp (see SketchPairSimilarity),
/// and under scalar or AVX2 kernel dispatch.
[[nodiscard]] SparseSimilarityGraph verify_pairs(
    const kernels::SketchMatrix& sketches, std::span<const Pair> pairs,
    SketchEstimator estimator, common::ThreadPool* pool = nullptr);

/// enumerate_pairs + verify_pairs in one call.
[[nodiscard]] SparseSimilarityGraph build_graph(
    const kernels::SketchMatrix& sketches, const Params& params, double theta,
    SketchEstimator estimator, common::ThreadPool* pool = nullptr);

}  // namespace mrmc::core::candidates
