#include "core/minhash.hpp"

#include <algorithm>
#include <array>
#include <bit>

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

/// True when no two of `cells` are equal and none is kEmptyMin: one pass
/// over an open-addressing set at most half full, with kEmptyMin marking
/// its free slots.
bool distinct_and_never_empty(std::span<const std::uint64_t> cells) {
  const auto bits = std::max(1, static_cast<int>(std::bit_width(2 * cells.size())));
  std::vector<std::uint64_t> set(std::size_t{1} << bits, kEmptyMin);
  const std::size_t mask = set.size() - 1;
  for (const std::uint64_t cell : cells) {
    if (cell == kEmptyMin) return false;
    // Fibonacci hashing: the top bits of the product spread small values
    // (an outer modulus m) as well as full-range ones.
    std::size_t slot = (cell * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
    for (; set[slot] != kEmptyMin; slot = (slot + 1) & mask) {
      if (set[slot] == cell) return false;
    }
    set[slot] = cell;
  }
  return true;
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
  rank_universe();
}

void MinHasher::rank_universe() {
  const std::uint64_t universe = bio::kmer_space_size(params_.kmer);
  if (universe > kRankedUniverse) return;
  // A canonical read only ever marks codes x <= revcomp(x).
  std::vector<std::uint64_t> codes;
  for (std::uint64_t x = 0; x < universe; ++x) {
    if (!params_.canonical || x <= bio::revcomp_kmer(x, params_.kmer)) {
      codes.push_back(x);
    }
  }
  const std::size_t features = codes.size();
  const std::size_t hashes = sketch_size();
  // Row f holds h_i(codes[f]) for every i, computed by the same kernels a
  // hashed read goes through: the sketch of the one-feature set {codes[f]}.
  std::vector<std::uint64_t> hashed(features * hashes);
  values_.assign(universe * hashes, 0);
  for (std::size_t f = 0; f < features; ++f) {
    sketch_features_into({&codes[f], 1}, {hashed.data() + f * hashes, hashes});
    std::copy_n(hashed.data() + f * hashes, hashes,
                values_.data() + codes[f] * hashes);
  }
  slot_disjoint_ = distinct_and_never_empty(hashed);
  ranked_codes_.resize(hashes * features);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranking(features);
  for (std::size_t i = 0; i < hashes; ++i) {
    for (std::size_t f = 0; f < features; ++f) {
      ranking[f] = {hashed[f * hashes + i], codes[f]};
    }
    std::sort(ranking.begin(), ranking.end());
    for (std::size_t r = 0; r < features; ++r) {
      ranked_codes_[i * features + r] =
          static_cast<std::uint16_t>(ranking[r].second);
    }
  }
  ranked_features_ = features;
}

void MinHasher::sketch_into(std::string_view seq,
                            std::span<std::uint64_t> out) const {
  MRMC_REQUIRE(out.size() == sketch_size(), "output span must hold one slot per hash");
  if (ranked_features_ == 0) {
    sketch_features_into(kmer_stream(seq, params_), out);
    return;
  }
  ranked_sketch_into(seq, out);
}

void MinHasher::sketch_into(std::string_view seq,
                            std::span<std::uint16_t> out) const {
  MRMC_REQUIRE(out.size() == sketch_size() && slot_disjoint_,
               "codes need one slot per hash and a hasher whose table check passed");
  ranked_sketch_into(seq, out);
}

template <typename Cell>
void MinHasher::ranked_sketch_into(std::string_view seq, std::span<Cell> out) const {
  // The read's k-mers as a presence bitmap over the 4^k codes, which is
  // also their exact dedup.
  std::array<std::uint64_t, kRankedUniverse / 64> present{};
  std::size_t distinct = 0;
  const auto mark = [&](std::uint64_t code) {
    std::uint64_t& word = present[code >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (code & 63);
    distinct += (word & bit) == 0;
    word |= bit;
  };
  if (params_.canonical) {
    bio::for_each_kmer(seq, params_.kmer,
                       [&](std::uint64_t forward, std::uint64_t reverse) {
                         mark(std::min(forward, reverse));
                       });
  } else {
    bio::for_each_kmer(seq, params_.kmer,
                       [&](std::uint64_t forward, std::uint64_t) { mark(forward); });
  }
  const std::size_t hashes = out.size();
  // Slot i's cell for its argmin code: the code itself, or h_i(code).
  const auto cell = [&](std::uint64_t code, std::size_t i) {
    if constexpr (sizeof(Cell) == sizeof(std::uint16_t)) return static_cast<Cell>(code);
    else return values_[code * hashes + i];
  };
  // A lookup probes about F / d codes per slot, the tabulated values d:
  // scan the d codes' values when d² < F (so d < 64).  The empty read keeps
  // the sentinel, kEmptyMin or its low 16 bits.
  if (distinct * distinct < ranked_features_) {
    std::array<std::uint64_t, 64> features{};
    std::size_t count = 0;
    for (std::size_t w = 0; w < present.size(); ++w) {
      for (std::uint64_t bits = present[w]; bits != 0; bits &= bits - 1) {
        features[count++] = w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
      }
    }
    for (std::size_t i = 0; i < hashes; ++i) {
      std::uint64_t best = kEmptyMin;
      out[i] = static_cast<Cell>(kEmptyMin);
      for (std::size_t f = 0; f < count; ++f) {
        if (values_[features[f] * hashes + i] < best) {
          best = values_[features[f] * hashes + i];
          out[i] = cell(features[f], i);
        }
      }
    }
    return;
  }
  // Slot i: the first marked code in hash i's ranking has the read's
  // smallest h_i.  Every marked code is ranked, so the scan stops.
  for (std::size_t i = 0; i < hashes; ++i) {
    const std::uint16_t* const codes = ranked_codes_.data() + i * ranked_features_;
    std::size_t r = 0;
    while (((present[codes[r] >> 6] >> (codes[r] & 63)) & 1) == 0) ++r;
    out[i] = cell(codes[r], i);
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
  Sketch sketch(family_.size());
  sketch_into(seq, sketch);
  return sketch;
}

kernels::SketchMatrix MinHasher::sketch_matrix(
    std::span<const std::string_view> seqs, common::ThreadPool* pool) const {
  // Every row is written (a read with no k-mer gets the empty sentinel).
  kernels::SketchMatrix matrix = table_for_overwrite(seqs.size());
  matrix.with_cell([&]<typename Cell>(Cell) {
    common::parallel_for(pool, seqs.size(), [&](std::size_t i) {
      sketch_into(seqs[i], matrix.row<Cell>(i));
    });
  });
  return matrix;
}

kernels::SketchMatrix MinHasher::table_for_overwrite(std::size_t rows) const {
  if (!slot_disjoint_) return kernels::SketchMatrix::for_overwrite(rows, sketch_size());
  kernels::SketchMatrix table;
  table.rows_ = rows;
  table.cols_ = sketch_size();
  table.codes_ = LargeArray<std::uint16_t>::for_overwrite(rows * table.cols_);
  table.slot_disjoint_ = true;
  return table;
}

kernels::SketchMatrix MinHasher::widen(const kernels::SketchMatrix& table,
                                       common::ThreadPool* pool) const {
  if (!table.slot_disjoint()) return table;
  const std::size_t hashes = sketch_size();
  MRMC_REQUIRE(slot_disjoint_ && table.cols() == hashes,
               "a table of codes widens only through a hasher that writes them");
  auto wide = kernels::SketchMatrix::for_overwrite(table.rows(), hashes);
  common::parallel_for(pool, table.rows(), [&](std::size_t r) {
    const std::span<const std::uint16_t> codes = table.row<std::uint16_t>(r);
    const std::span<std::uint64_t> values = wide.row(r);
    for (std::size_t i = 0; i < hashes; ++i) {
      values[i] = codes[i] == kernels::kEmptyFeatureCode
                      ? kEmptyMin
                      : values_[codes[i] * hashes + i];
    }
  });
  return wide;
}

// ---------------------------------------------------------- SortedSketchStore

SortedSketchStore::SortedSketchStore(const kernels::SketchMatrix& sketches,
                                     common::ThreadPool* pool)
    : stride_(sketches.cols()),
      values_(LargeArray<std::uint64_t>::for_overwrite(sketches.rows() * stride_)),
      lengths_(sketches.rows()) {
  // Copy row i into place, then sort and dedup it there.
  auto fill_row = [&](std::size_t i) {
    const std::span<const std::uint64_t> sketch = sketches.row(i);
    std::uint64_t* const first = values_.data() + i * stride_;
    std::uint64_t* const last = std::copy(sketch.begin(), sketch.end(), first);
    std::sort(first, last);
    lengths_[i] = static_cast<std::size_t>(std::unique(first, last) - first);
  };
  common::parallel_for(pool, size(), fill_row);
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
      store_(set_based() && !sketches.slot_disjoint()
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
