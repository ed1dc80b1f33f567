#include "core/minhash.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"

namespace mrmc::core {

namespace {

/// Shared parameter validation for both hash families.  A zero count or a
/// degenerate / oversized modulus used to surface only as silently useless
/// sketches (every component 0); fail loudly instead.
void validate_family_params(std::size_t count, std::uint64_t m) {
  MRMC_REQUIRE(count >= 1,
               "hash family needs at least one hash function (count == 0 "
               "would produce empty sketches)");
  MRMC_REQUIRE(m == 0 || (m >= 2 && m <= UniversalHashFamily::kPrime),
               "outer modulus must be 0 (full 61-bit range) or in "
               "[2, 2^61 - 1]: m == 1 collapses every sketch component to "
               "zero and m > p is incompatible with the Mersenne-61 family");
}

/// The k-mer stream the sketch hashes, in per-thread scratch that stays
/// valid until this thread's next call.  Repeats the stream keeps cannot
/// change a minimum, so the sketch equals the sketch of bio::kmer_set.
std::span<const std::uint64_t> kmer_stream(std::string_view seq,
                                           const MinHashParams& params) {
  thread_local std::vector<std::uint64_t> stream;
  bio::kmer_stream_into(seq, {.k = params.kmer, .canonical = params.canonical},
                        stream);
  return stream;
}

}  // namespace

const char* sketch_scheme_name(SketchScheme scheme) noexcept {
  switch (scheme) {
    case SketchScheme::kUniversal: return "universal";
    case SketchScheme::kCMinHash: return "cminhash";
  }
  return "?";
}

UniversalHashFamily::UniversalHashFamily(std::size_t count, std::uint64_t m,
                                         std::uint64_t seed)
    : m_(m) {
  validate_family_params(count, m);
  a_.reserve(count);
  b_.reserve(count);
  common::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    a_.push_back(1 + rng.bounded(kPrime - 1));  // a in [1, p)
    b_.push_back(rng.bounded(kPrime));          // b in [0, p)
  }
}

std::uint64_t UniversalHashFamily::hash(std::size_t i, std::uint64_t x) const noexcept {
  const std::uint64_t mod_p = kernels::detail::cw_hash(a_[i], b_[i], x);
  return m_ == 0 ? mod_p : mod_p % m_;
}

CMinHashFamily::CMinHashFamily(std::size_t count, std::uint64_t m,
                               std::uint64_t seed)
    : m_(m) {
  validate_family_params(count, m);
  common::Xoshiro256 rng(seed);
  // σ(x) = (a1·x + b1) mod p and the affine layer (a2·y + b2) mod p of π;
  // both bijections on GF(p) since a1, a2 ∈ [1, p) and p is prime.  π
  // itself is that affine layer composed with the fixed non-linear
  // kernels::detail::cmin_mix64 scramble — purely affine maps would
  // collapse h_k into rotations of one point set (correlated minima).
  const std::uint64_t a1 = 1 + rng.bounded(kPrime - 1);
  const std::uint64_t b1 = rng.bounded(kPrime);
  const std::uint64_t a2 = 1 + rng.bounded(kPrime - 1);
  const std::uint64_t b2 = rng.bounded(kPrime);
  // The affine part of h_k = π∘(σ + k) collapses to (A·x + B_k) mod p with
  // A = a1·a2 and B_k = a2·b1 + b2 + k·a2, built incrementally (each step
  // one add + conditional subtract, both operands < p); the scramble is
  // applied after this map, once per evaluation.
  a_ = kernels::detail::mod_mersenne61(static_cast<__uint128_t>(a1) * a2);
  std::uint64_t bk = kernels::detail::cw_hash(a2, b2, b1);  // (a2·b1 + b2) mod p
  b_.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    b_.push_back(bk);
    bk += a2;
    if (bk >= kPrime) bk -= kPrime;
  }
}

std::uint64_t CMinHashFamily::hash(std::size_t k, std::uint64_t x) const noexcept {
  // Affine core, then the fixed non-linear scramble (π's order-breaking
  // role — without it every slot is a rotation of one point set and the
  // minima correlate; see kernels::detail::cmin_mix64).
  const std::uint64_t mixed =
      kernels::detail::cmin_mix64(kernels::detail::cw_hash(a_, b_[k], x));
  return m_ == 0 ? mixed : mixed % m_;
}

MinHasher::MinHasher(MinHashParams params)
    : params_(params), family_(params.num_hashes, params.modulus, params.seed) {
  MRMC_REQUIRE(params.kmer >= 1 && params.kmer <= bio::kMaxKmerK,
               "kmer size must be in [1, 31]");
  if (params_.scheme == SketchScheme::kCMinHash) {
    cmin_.emplace(params.num_hashes, params.modulus, params.seed);
  }
}

void MinHasher::sketch_features_into(std::span<const std::uint64_t> features,
                                     std::span<std::uint64_t> out) const {
  MRMC_REQUIRE(out.size() == sketch_size(), "output span must hold one slot per hash");
  if (cmin_.has_value()) {
    kernels::cmin_sketch(cmin_->multiplier(), cmin_->offsets(),
                         cmin_->modulus(), features, out);
  } else {
    kernels::min_sketch(family_.multipliers(), family_.offsets(),
                        family_.modulus(), features, out);
  }
}

Sketch MinHasher::sketch_features(std::span<const std::uint64_t> features) const {
  Sketch sketch(family_.size());
  sketch_features_into(features, sketch);
  return sketch;
}

Sketch MinHasher::sketch(std::string_view seq) const {
  return sketch_features(kmer_stream(seq, params_));
}

kernels::SketchMatrix MinHasher::sketch_matrix(
    std::span<const std::string_view> seqs, common::ThreadPool* pool) const {
  kernels::SketchMatrix matrix(seqs.size(), sketch_size());
  auto sketch_row = [&](std::size_t i) {
    sketch_features_into(kmer_stream(seqs[i], params_), matrix.row(i));
  };
  if (pool != nullptr && seqs.size() > 1) {
    pool->parallel_for(seqs.size(), sketch_row);
  } else {
    for (std::size_t i = 0; i < seqs.size(); ++i) sketch_row(i);
  }
  return matrix;
}

// ---------------------------------------------------------- SortedSketchStore

SortedSketchStore::SortedSketchStore(const kernels::SketchMatrix& sketches,
                                     common::ThreadPool* pool)
    : stride_(sketches.cols()),
      values_(std::make_unique_for_overwrite<std::uint64_t[]>(sketches.rows() *
                                                              stride_)),
      lengths_(sketches.rows()) {
  // Copy row i into place, then sort and dedup it there.
  auto fill_row = [&](std::size_t i) {
    const std::span<const std::uint64_t> sketch = sketches.row(i);
    std::uint64_t* const first = values_.get() + i * stride_;
    std::uint64_t* const last = std::copy(sketch.begin(), sketch.end(), first);
    std::sort(first, last);
    lengths_[i] = static_cast<std::size_t>(std::unique(first, last) - first);
  };
  if (pool != nullptr && size() > 1) {
    pool->parallel_for(size(), fill_row);
  } else {
    for (std::size_t i = 0; i < size(); ++i) fill_row(i);
  }
}

std::pair<std::uint64_t, std::uint64_t> SortedSketchStore::jaccard_counts(
    std::size_t i, std::size_t j) const noexcept {
  const auto a = row(i);
  const auto b = row(j);
  const std::uint64_t inter = bio::intersection_size(a, b);
  return {inter, a.size() + b.size() - inter};
}

SketchPairSimilarity::SketchPairSimilarity(const kernels::SketchMatrix& sketches,
                                           SketchEstimator estimator,
                                           common::ThreadPool* pool)
    : sketches_(sketches),
      estimator_(estimator),
      score_(sketches.cols()),
      store_(estimator == SketchEstimator::kSetBased
                 ? SortedSketchStore(sketches, pool)
                 : SortedSketchStore()) {}

// ------------------------------------------------------------------ estimators

double component_match_similarity(const Sketch& a, const Sketch& b) noexcept {
  if (a.empty() || a.size() != b.size()) return 0.0;
  return kernels::MatchScore(a.size())(kernels::count_equal(a, b));
}

double set_based_similarity(const Sketch& a, const Sketch& b) {
  if (a.empty() || b.empty()) return 0.0;
  // Reused thread-local scratch: no allocation or copy churn per pair.
  thread_local std::vector<std::uint64_t> sa, sb;
  sa.assign(a.begin(), a.end());
  std::sort(sa.begin(), sa.end());
  sa.erase(std::unique(sa.begin(), sa.end()), sa.end());
  sb.assign(b.begin(), b.end());
  std::sort(sb.begin(), sb.end());
  sb.erase(std::unique(sb.begin(), sb.end()), sb.end());
  return bio::exact_jaccard(sa, sb);
}

double sketch_similarity(const Sketch& a, const Sketch& b,
                         SketchEstimator estimator) {
  MRMC_REQUIRE(a.size() == b.size(), "sketches must have equal length");
  switch (estimator) {
    case SketchEstimator::kComponentMatch:
      return component_match_similarity(a, b);
    case SketchEstimator::kSetBased:
      return set_based_similarity(a, b);
  }
  return 0.0;
}

}  // namespace mrmc::core
