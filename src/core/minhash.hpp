// Minwise hashing (Section III-A/B of the paper).
//
// A sequence's k-mer feature set I_s is sketched with n universal hash
// functions h_i(x) = ((a_i·x + b_i) mod p) mod m (Carter-Wegman; Equation 5)
// — the i-th sketch component is min_{x in I_s} h_i(x).  By the minwise
// property (Equation 3) the probability that two sets share a component
// equals their Jaccard similarity, so sketches give an unbiased similarity
// estimate in O(n) instead of O(|I_s1| + |I_s2|).
//
// The paper describes two estimators and we implement both:
//  * kComponentMatch — fraction of positions i with equal minima (the
//    textbook estimator; unbiased),
//  * kSetBased — |set(s1^) ∩ set(s2^)| / |set(s1^) ∪ set(s2^)| over the
//    multisets of minwise values (Algorithm 1, line 9 — what the paper's
//    pseudo-code literally computes).
//
// The hot loops live in core::kernels (batched SIMD with a bit-identical
// scalar fallback); this header is the sketch-level API on top of them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "bio/kmer.hpp"
#include "core/kernels.hpp"

namespace mrmc::common {
class ThreadPool;
}  // namespace mrmc::common

namespace mrmc::core {

/// Fixed-size sketch: the n minwise hash values of one sequence.
using Sketch = std::vector<std::uint64_t>;

/// Sentinel component for a sequence with an empty feature set (shorter than
/// k or all-ambiguous): no x exists to minimize over.
inline constexpr std::uint64_t kEmptyMin = kernels::kEmptyFeatureMin;

enum class SketchEstimator {
  kComponentMatch,  ///< mean of [min_i(A) == min_i(B)]
  kSetBased,        ///< Jaccard of the sets of minwise values
};

/// How the K sketch components are computed.
enum class SketchScheme {
  kUniversal,  ///< K independent Carter-Wegman hashes (Equation 5)
  kCMinHash,   ///< C-MinHash: two shared permutations, circulant shifts
};

[[nodiscard]] const char* sketch_scheme_name(SketchScheme scheme) noexcept;

/// Carter-Wegman universal hash family with p = 2^61 - 1 (Mersenne prime).
/// Parameters a_i ∈ [1, p), b_i ∈ [0, p) are drawn from a seeded PRNG and
/// stored SoA so the batched kernels can stream them.
class UniversalHashFamily {
 public:
  /// `m` is the outer modulus — the k-mer feature-space size 4^k per the
  /// paper; pass 0 to skip the outer mod (full 61-bit range, fewer
  /// collisions; used by the LSH baseline).
  UniversalHashFamily(std::size_t count, std::uint64_t m, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const noexcept { return a_.size(); }
  [[nodiscard]] std::uint64_t modulus() const noexcept { return m_; }

  /// h_i(x).
  [[nodiscard]] std::uint64_t hash(std::size_t i, std::uint64_t x) const noexcept;

  /// SoA parameter views for the batched kernels.
  [[nodiscard]] std::span<const std::uint64_t> multipliers() const noexcept {
    return a_;
  }
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return b_;
  }

  static constexpr std::uint64_t kPrime = kernels::kMersenne61;

 private:
  std::vector<std::uint64_t> a_;
  std::vector<std::uint64_t> b_;
  std::uint64_t m_;
};

/// C-MinHash (Li & Li, NeurIPS 2021): instead of K independent hashes, one
/// initial permutation σ and one circulant permutation π, with component k
/// defined as min_x π((σ(x) + k) mod p).  Both permutations are affine maps
/// over GF(p), so the composition collapses to a single affine map per
/// component sharing one multiplier:
///
///   h_k(x) = π(σ(x) + k) = (A·x + B_k) mod p,
///   A = a1·a2 mod p,  B_k = (a2·b1 + b2 + k·a2) mod p.
///
/// The shared multiplier is what kernels::cmin_sketch exploits: one
/// Mersenne-61 product per feature amortized over all K components (the
/// universal family pays K products per feature).  A is nonzero because p is
/// prime and a1, a2 ∈ [1, p).  Estimator parity with the universal family
/// is covered by the quality suite (Table III/IV samples).
class CMinHashFamily {
 public:
  /// Same contract as UniversalHashFamily: `m` is the outer modulus
  /// (0 = full 61-bit range), `count` the number of components K.
  CMinHashFamily(std::size_t count, std::uint64_t m, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const noexcept { return b_.size(); }
  [[nodiscard]] std::uint64_t modulus() const noexcept { return m_; }

  /// h_k(x), the scalar reference the batched kernel must reproduce.
  [[nodiscard]] std::uint64_t hash(std::size_t k, std::uint64_t x) const noexcept;

  /// The shared multiplier A and per-component offsets B_k for the kernel.
  [[nodiscard]] std::uint64_t multiplier() const noexcept { return a_; }
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return b_;
  }

  static constexpr std::uint64_t kPrime = kernels::kMersenne61;

 private:
  std::uint64_t a_ = 1;             ///< A = a1·a2 mod p
  std::vector<std::uint64_t> b_;    ///< B_k, k = 0..K-1
  std::uint64_t m_;
};

struct MinHashParams {
  int kmer = 5;             ///< k-mer size (paper: 5 shotgun, 15 for 16S)
  std::size_t num_hashes = 100;  ///< sketch length n (paper: 100 / 50)
  bool canonical = false;   ///< strand-insensitive k-mers
  std::uint64_t seed = 1;   ///< hash-family seed
  /// Outer modulus m of Equation 5.  The paper sets m = 4^k (the feature-
  /// space size), but for small k that collapses all minima toward 0 and
  /// destroys the estimator (see DESIGN.md); 0 = full 61-bit hash range
  /// (recommended, default).  Set to bio::kmer_space_size(k) for
  /// paper-literal behaviour.
  std::uint64_t modulus = 0;
  /// Sketch-compute scheme; kCMinHash shares one multiplier across all
  /// components (one Mersenne-61 product per feature instead of K).
  SketchScheme scheme = SketchScheme::kUniversal;
};

/// Computes sketches for sequences.  Thread-safe after construction.
///
/// Two paths give the same bytes.  sketch_features / sketch_features_into
/// always hash the given features with the batched kernels, and so do
/// sketch / sketch_matrix for k >= 7.  For k <= 6 the universe holds at most
/// 4096 k-mers, and the constructor ranks it once per hash
/// function: sketch / sketch_matrix (and with them the local sketch stage
/// and the MR sketch mapper) then mark a read's k-mers in a presence bitmap
/// and read slot i off as the value of the first marked feature in hash i's
/// ranking, which is the minimum of h_i over the read by construction.  A
/// read with so few distinct k-mers d that d² < F (F features ranked) is
/// hashed by the kernels instead, where that is cheaper than probing.
class MinHasher {
 public:
  explicit MinHasher(MinHashParams params);

  [[nodiscard]] const MinHashParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t sketch_size() const noexcept { return family_.size(); }
  [[nodiscard]] const UniversalHashFamily& family() const noexcept {
    return family_;
  }

  /// Sketch of one sequence (Equation 4).
  [[nodiscard]] Sketch sketch(std::string_view seq) const;

  /// Sketch of an explicit feature set.
  [[nodiscard]] Sketch sketch_features(std::span<const std::uint64_t> features) const;

  /// Allocation-free variant: writes the sketch into `out` (length
  /// sketch_size()).
  void sketch_features_into(std::span<const std::uint64_t> features,
                            std::span<std::uint64_t> out) const;

  /// Sketches for many sequences, one row each.  When `pool` is non-null,
  /// reads are sketched in parallel; the result is identical at any thread
  /// count.
  [[nodiscard]] kernels::SketchMatrix sketch_matrix(
      std::span<const std::string_view> seqs,
      common::ThreadPool* pool = nullptr) const;

 private:
  /// Largest k-mer universe 4^k that is ranked (k <= 6).
  static constexpr std::size_t kRankedUniverse = 4096;

  /// Sketch of one read into `out`, by ranked lookup or by the kernels.
  void sketch_read_into(std::string_view seq, std::span<std::uint64_t> out) const;
  /// Builds the rankings below when 4^k <= kRankedUniverse.
  void rank_universe();

  MinHashParams params_;
  UniversalHashFamily family_;
  std::optional<CMinHashFamily> cmin_;  ///< engaged when scheme == kCMinHash
  /// Features per ranking: 4^k, or the canonical codes alone when
  /// params_.canonical; 0 when the universe is too large to rank.
  std::size_t ranked_features_ = 0;
  /// Row i (ranked_features_ entries) lists the universe's k-mer codes in
  /// ascending h_i order, and the same row of ranked_values_ their h_i.
  std::vector<std::uint16_t> ranked_codes_;
  std::vector<std::uint64_t> ranked_values_;
};

/// Jaccard from integer (|∩|, |∪|) counts; |∪| == 0 means both sets were
/// empty, which counts as identical — the same convention as
/// bio::exact_jaccard, so driver-side reconstruction from shuffled counts is
/// bit-identical to mapper-side doubles.
[[nodiscard]] constexpr double jaccard_from_counts(
    std::uint64_t intersection, std::uint64_t unions) noexcept {
  return unions == 0 ? 1.0
                     : static_cast<double>(intersection) /
                           static_cast<double>(unions);
}

/// Pre-sorted unique minima of a set of sketches, so repeated set-based
/// comparisons (greedy sweeps, medoid scans, matrix fills) pay the sort once
/// per sketch instead of twice per pair.  Rows sit at the matrix's fixed
/// stride of cols() with a length each, so every row sorts in place and
/// independently of the others.
class SortedSketchStore {
 public:
  SortedSketchStore() = default;
  /// When `pool` is non-null the rows sort in parallel; the store is the
  /// same at any thread count.
  explicit SortedSketchStore(const kernels::SketchMatrix& sketches,
                             common::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t size() const noexcept { return lengths_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t i) const noexcept {
    return {values_.data() + i * stride_, lengths_[i]};
  }
  /// == bio::exact_jaccard over the sorted unique minima of sketches i and j.
  [[nodiscard]] double jaccard(std::size_t i, std::size_t j) const noexcept {
    return bio::exact_jaccard(row(i), row(j));
  }
  /// The integer (|∩|, |∪|) behind jaccard(i, j) — what the binary shuffle
  /// blocks ship so the driver can rebuild the identical double via
  /// jaccard_from_counts.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> jaccard_counts(
      std::size_t i, std::size_t j) const noexcept;

 private:
  std::size_t stride_ = 0;
  /// size() rows of stride_ slots.  Left uninitialized until each row is
  /// copied in, so the first touch of every page happens on the thread
  /// sorting it.
  LargeArray<std::uint64_t> values_;
  std::vector<std::size_t> lengths_;  ///< unique minima at the front of each row
};

/// The chosen estimator over pairs of rows of one sketch table, equal to
/// sketch_similarity over the same two sketches when cols() > 0.  A pair's
/// score is a function of integer counts (counts / score), which is how the
/// MapReduce jobs ship it: the map tasks send the counts and the driver
/// scores them, so both paths score every pair through this one class.
/// Set-based pairs read a SortedSketchStore built once (on `pool` when
/// non-null); component-match pairs run count_equal over the two rows.
/// Holds a reference to `sketches`, which must outlive it.
class SketchPairSimilarity {
 public:
  /// The integers a pair's score is made of: the match count m in `shared`
  /// (component-match; `unions` is 0), or |∩| and |∪| of the two rows'
  /// sorted unique minima (set-based).
  struct Counts {
    std::uint64_t shared = 0;
    std::uint64_t unions = 0;
  };

  SketchPairSimilarity(const kernels::SketchMatrix& sketches,
                       SketchEstimator estimator,
                       common::ThreadPool* pool = nullptr);

  [[nodiscard]] bool set_based() const noexcept {
    return estimator_ == SketchEstimator::kSetBased;
  }

  [[nodiscard]] Counts counts(std::size_t i, std::size_t j) const noexcept {
    if (set_based()) {
      const auto [inter, uni] = store_.jaccard_counts(i, j);
      return {inter, uni};
    }
    return {kernels::count_equal(sketches_.row(i), sketches_.row(j)), 0};
  }

  /// m / K (0 when K == 0), or jaccard_from_counts(|∩|, |∪|).
  [[nodiscard]] double score(Counts counts) const noexcept {
    return set_based() ? jaccard_from_counts(counts.shared, counts.unions)
                       : score_(counts.shared);
  }

  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const noexcept {
    return score(counts(i, j));
  }

 private:
  const kernels::SketchMatrix& sketches_;
  SketchEstimator estimator_;
  kernels::MatchScore score_;
  SortedSketchStore store_;  ///< empty unless set-based
};

/// Estimated Jaccard similarity of two sketches (must be equal length).
[[nodiscard]] double sketch_similarity(const Sketch& a, const Sketch& b,
                                       SketchEstimator estimator);

/// Component-match estimator (cheapest; used by the similarity matrix).
[[nodiscard]] double component_match_similarity(const Sketch& a,
                                                const Sketch& b) noexcept;

/// Set-based estimator of Algorithm 1 line 9.  Sort work runs in reused
/// thread-local scratch; for repeated comparisons prefer SortedSketchStore.
[[nodiscard]] double set_based_similarity(const Sketch& a, const Sketch& b);

// ---------------------------------------------------------- b-bit sketches
//
// Keeping only the low b bits of each minwise value shrinks the sketch
// 64/b-fold but lets unrelated pairs collide by chance: for J = 0 a
// component still matches with probability C = 2^-b.  E[m̂] = J + (1-J)·C,
// so the standard correction Ĵ = (m̂ - C) / (1 - C) de-biases the match
// fraction.  The correction is affine, so thresholding the *corrected*
// estimate at θ is identical to thresholding the raw match fraction at
// θ' = θ·(1-C) + C — the pipeline uses the θ' form internally (it commutes
// with average linkage too) and exposes the corrected estimator for
// benchmarks and tests.  Both paths keep the truncated values in u64 rows
// (kernels::mask_components) and score them with SketchPairSimilarity; only
// the sketch job's shuffle blocks carry them in b-bit lanes.

/// Valid --sketch-bits values: divisors of 64, the lane widths of the
/// sketch job's shuffle blocks (mr::BinaryBlock), so a lane never straddles
/// a word.
[[nodiscard]] constexpr bool valid_sketch_bits(std::size_t bits) noexcept {
  return bits == 1 || bits == 2 || bits == 4 || bits == 8 || bits == 16 ||
         bits == 32 || bits == 64;
}

/// Truncation mask for b-bit sketches (all-ones at b = 64).
[[nodiscard]] constexpr std::uint64_t sketch_bits_mask(std::size_t bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << bits) - 1;
}

/// Chance-collision probability C = 2^-b of a truncated component (0 at
/// b = 64: full-width components never collide by chance in practice).
[[nodiscard]] constexpr double bbit_collision_floor(std::size_t bits) noexcept {
  return bits >= 64
             ? 0.0
             : 1.0 / static_cast<double>(std::uint64_t{1} << bits);
}

/// De-biased b-bit component-match estimate Ĵ = (m/K - C) / (1 - C),
/// clamped to [0, 1].  At b = 64 this is exactly m/K.
[[nodiscard]] constexpr double corrected_match_similarity(
    std::size_t matches, std::size_t count, std::size_t bits) noexcept {
  if (count == 0) return 0.0;
  const double raw = kernels::MatchScore(count)(matches);
  const double c = bbit_collision_floor(bits);
  if (c == 0.0) return raw;
  const double corrected = (raw - c) / (1.0 - c);
  return corrected < 0.0 ? 0.0 : (corrected > 1.0 ? 1.0 : corrected);
}

/// The θ' the pipeline compares *raw* b-bit match fractions against so that
/// the decision equals thresholding the corrected estimate at θ.
[[nodiscard]] constexpr double bbit_adjusted_threshold(
    double theta, std::size_t bits) noexcept {
  const double c = bbit_collision_floor(bits);
  return theta * (1.0 - c) + c;
}

/// Component-match threshold equivalent to a set-based threshold θ.  With K
/// independent hash families the two sketches share exactly the m matching
/// minima (cross-family value collisions are negligible at 61 bits), so the
/// set-based estimate is the monotone map J_set = m / (2K - m) of the match
/// fraction — thresholding J_set at θ is the same decision as thresholding
/// m/K at 2θ/(1+θ).  Truncated sketches cannot evaluate J_set directly
/// (low-bit value collisions pollute the union), so the b-bit path scores
/// component matches against this transformed threshold instead.
[[nodiscard]] constexpr double set_based_equivalent_threshold(
    double theta) noexcept {
  return 2.0 * theta / (1.0 + theta);
}

}  // namespace mrmc::core
