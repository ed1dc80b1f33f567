// core::kernels — the batched compute substrate under every clustering mode.
//
// The paper's whole compute budget is Equation 4/5 sketching plus all-pairs
// sketch comparison (Sections III-A/B).  This layer provides those two hot
// loops as batched kernels with a runtime-dispatched AVX2 path and a
// portable scalar fallback that is **bit-identical** (both paths compute the
// exact Carter-Wegman residue and exact match counts, so greedy /
// hierarchical / pipeline outputs and the simulated-clock cost model do not
// depend on the instruction set):
//
//  * min_sketch        — batched minwise hashing: SoA hash parameters,
//                        hash-outer / feature-inner loops, 4-way unrolled
//                        Mersenne-61 reduction (AVX2: 4 hash lanes per
//                        feature broadcast).
//  * count_equal       — positions with equal 64-bit components (AVX2:
//                        cmpeq + movemask popcount), the component-match
//                        estimator's inner loop.
//  * component_match_matrix — cache-blocked all-pairs similarity fill over a
//                        flat SketchMatrix (no pointer chase per cell).
//  * argmin            — first-minimum row scan for the nearest-neighbour
//                        chain in agglomerate().
//
// Dispatch is race-free: the backend is chosen once via a function-local
// static (C++11 magic statics).  `MRMC_FORCE_SCALAR=1` is the escape hatch
// that pins the scalar path regardless of CPU support.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mrmc::common {
class ThreadPool;
}  // namespace mrmc::common

namespace mrmc::core::kernels {

/// Instruction-set backend for the kernels.  Every backend produces
/// bit-identical results; only throughput differs.
enum class Backend {
  kScalar,  ///< portable C++, 4-way unrolled
  kAvx2,    ///< AVX2 (x86-64), 4 × 64-bit lanes
};

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// True when `backend` can run on this machine (compiled in + CPU support).
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// The dispatched backend: best available unless MRMC_FORCE_SCALAR is set
/// (or a test override is active).  Decided once, thread-safe.
[[nodiscard]] Backend active_backend() noexcept;

/// Test hook: force every `active_backend()` call to return `backend` while
/// alive.  Install before spawning worker threads; not for production use.
class ScopedBackendOverride {
 public:
  explicit ScopedBackendOverride(Backend backend);
  ~ScopedBackendOverride();
  ScopedBackendOverride(const ScopedBackendOverride&) = delete;
  ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;
};

/// p = 2^61 - 1, the Mersenne prime of the Carter-Wegman family.
inline constexpr std::uint64_t kMersenne61 = (std::uint64_t{1} << 61) - 1;

/// Sentinel minimum for an empty feature set (no x to minimize over).
inline constexpr std::uint64_t kEmptyFeatureMin = ~std::uint64_t{0};

namespace detail {

/// (value) mod (2^61 - 1) for a full 128-bit product, exploiting the
/// Mersenne structure: (hi·2^61 + lo) ≡ hi + lo (mod p).
constexpr std::uint64_t mod_mersenne61(__uint128_t value) noexcept {
  value = (value & kMersenne61) + (value >> 61);  // < 2^64 + 2^61
  value = (value & kMersenne61) + (value >> 61);  // < 2^61 + 8
  auto reduced = static_cast<std::uint64_t>(value);
  if (reduced >= kMersenne61) reduced -= kMersenne61;
  return reduced;
}

/// One Carter-Wegman evaluation h(x) = (a·x + b) mod p.
constexpr std::uint64_t cw_hash(std::uint64_t a, std::uint64_t b,
                                std::uint64_t x) noexcept {
  return mod_mersenne61(static_cast<__uint128_t>(a) * x + b);
}

/// The fixed order-scrambling bijection C-MinHash applies after its affine
/// core (the role π plays in C-MinHash-(σ, π)).  An affine π over the same
/// prime field would collapse into the shared multiplier, leaving every
/// hash slot k a pure *rotation* of one premultiplied point set — the
/// per-slot minima would then be strongly correlated and the estimator
/// variance well above independent MinHash.  A non-linear mix breaks that
/// collapse: rotated copies of the point set land in unrelated orders, so
/// the K argmins decorrelate as in the two-genuine-permutations analysis.
/// xor-fold then multiply (half a Murmur3 finalizer round) is bijective on
/// u64 and costs one multiply per (feature, hash) cell.  The multiplier's
/// low half is deliberately 1: then y·M mod 2^64 = y + ((y·M_hi mod 2^32)
/// << 32), which the AVX2 kernel evaluates with a single 32×32 vpmuludq
/// instead of the three a full mullo64 emulation needs — that one-vs-three
/// multiply gap is where the C-MinHash sketch-compute speedup over the
/// universal kernel comes from.  No trailing xor-fold: it would rewrite
/// only the low half, i.e. reorder points solely within ties of the
/// multiply-scrambled high half — far too rare (~2^-32 per pair) to move
/// the minima, so it is pure cost for this use.  The scramble's strength
/// for MinHash comes from the first fold feeding the chaotic low half into
/// the multiply that rewrites the ordering-dominant high half.
inline constexpr std::uint64_t kCMinMixMul = 0xff51afd700000001ULL;
inline constexpr std::uint64_t kCMinMixMulInverse = 0x00ae502900000001ULL;

constexpr std::uint64_t cmin_mix64(std::uint64_t y) noexcept {
  y ^= y >> 32;
  y *= kCMinMixMul;
  return y;
}

/// Exact inverse of cmin_mix64 (the multiply inverts via the odd constant's
/// inverse mod 2^64; xor-by-high-half is an involution).  Lets tests
/// observe the affine structure *underneath* the scramble.
constexpr std::uint64_t cmin_unmix64(std::uint64_t y) noexcept {
  y *= kCMinMixMulInverse;
  y ^= y >> 32;
  return y;
}

}  // namespace detail

/// Batched minwise hashing (Equations 4/5): for every hash i,
///   out[i] = min over features x of ((mul[i]·x + add[i]) mod p) [% modulus]
/// with `modulus == 0` meaning "no outer mod".  `mul`, `add`, `out` must
/// have equal length (the SoA hash-parameter layout).  An empty feature set
/// fills `out` with kEmptyFeatureMin.
void min_sketch(std::span<const std::uint64_t> mul,
                std::span<const std::uint64_t> add, std::uint64_t modulus,
                std::span<const std::uint64_t> features,
                std::span<std::uint64_t> out,
                Backend backend = active_backend());

/// Batched C-MinHash minwise hashing (Li & Li's two-permutation scheme):
/// for every hash slot k,
///   out[k] = min over features x of mix((mul·x + add[k]) mod p) [% modulus]
/// with a *single shared multiplier* — the affine part of π∘(σ + k)
/// collapses to h_k(x) = (A·x + B_k) mod p, so the kernel pays one
/// Mersenne-61 product per feature (amortized over all K hashes) instead of
/// one per (feature × hash); the fixed non-linear detail::cmin_mix64 then
/// plays π's order-scrambling role so the K minima decorrelate (see its
/// comment).  `add` carries the per-hash offsets B_k; `modulus == 0` means
/// "no outer mod".  Empty feature sets fill `out` with kEmptyFeatureMin,
/// matching min_sketch.
void cmin_sketch(std::uint64_t mul, std::span<const std::uint64_t> add,
                 std::uint64_t modulus,
                 std::span<const std::uint64_t> features,
                 std::span<std::uint64_t> out,
                 Backend backend = active_backend());

/// Number of positions i with a[i] == b[i] (spans must have equal length).
[[nodiscard]] std::size_t count_equal(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b,
                                      Backend backend = active_backend()) noexcept;

/// The component-match score m / K for sketches of K = `cols` components,
/// in its one rounding: m · (1/K), the reciprocal taken once at
/// construction so a loop over many pairs pays one division.  Every scorer
/// (matrix fill, verify, per-pair estimators, MR count lanes, the b-bit
/// correction) scores through this type, so a pair's score — and its
/// comparison against θ — is the same double on every path.  Scores 0 when
/// cols == 0.
class MatchScore {
 public:
  constexpr explicit MatchScore(std::size_t cols) noexcept
      : inverse_(cols == 0 ? 0.0 : 1.0 / static_cast<double>(cols)) {}
  [[nodiscard]] constexpr double operator()(std::size_t matches) const noexcept {
    return static_cast<double>(matches) * inverse_;
  }

 private:
  double inverse_;
};

/// True for the packed widths the b-bit kernels support: divisors of 64, so
/// a lane never straddles a word.
[[nodiscard]] constexpr bool valid_pack_bits(std::size_t bits) noexcept {
  return bits == 1 || bits == 2 || bits == 4 || bits == 8 || bits == 16 ||
         bits == 32 || bits == 64;
}

/// Matching lanes between two b-bit packed rows (the packed counterpart of
/// count_equal): `a` and `b` hold `cols` lanes of `bits` bits each, packed
/// little-endian (lane 0 in the low bits of word 0).  Trailing pad lanes
/// must be zero in both rows (PackedSketchMatrix guarantees this), so pads
/// compare equal and the count needs no tail correction.  Scalar path is
/// XOR + OR-fold + popcount SWAR; AVX2 kicks in for byte-aligned widths
/// (8/16/32/64) via cmpeq + movemask.  Exact integer counts — bit-identical
/// across backends.
[[nodiscard]] std::size_t count_equal_packed(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    std::size_t cols, std::size_t bits,
    Backend backend = active_backend()) noexcept;

/// First index of the minimum of `row` (ties -> lowest index), or
/// row.size() when the row is empty.  agglomerate() marks retired slots and
/// the diagonal +inf; the scan assumes no NaNs.
[[nodiscard]] std::size_t argmin(std::span<const double> row,
                                 Backend backend = active_backend()) noexcept;

/// Number of distinct values in `values`.  `scratch` is a caller-owned
/// buffer reused across calls, so the hot path performs no allocation once
/// the buffer has warmed up.
[[nodiscard]] std::size_t count_distinct(std::span<const std::uint64_t> values,
                                         std::vector<std::uint64_t>& scratch);

/// Flat row-major sketch table: rows() sketches of cols() minima each in one
/// contiguous uint64_t block.  It is the only form a table of sketches takes
/// — sketching, checkpoints, candidates, verification and both clustering
/// modes all read it, locally and in the MapReduce jobs.
class SketchMatrix {
 public:
  SketchMatrix() = default;
  SketchMatrix(std::size_t rows, std::size_t cols, std::uint64_t fill = 0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  [[nodiscard]] std::span<std::uint64_t> row(std::size_t i) noexcept {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t i) const noexcept {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] const std::uint64_t* row_ptr(std::size_t i) const noexcept {
    return data_.data() + i * cols_;
  }
  [[nodiscard]] const std::uint64_t* data() const noexcept { return data_.data(); }

  /// Gather single sketches into a flat matrix.  All sketches must have
  /// the same length (MinHasher guarantees this).
  static SketchMatrix from_sketches(
      std::span<const std::vector<std::uint64_t>> sketches);

  friend bool operator==(const SketchMatrix&, const SketchMatrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint64_t> data_;
};

/// In-place truncation of every component to its low bits (the b-bit
/// sketch): value &= mask.  Applied before packing (and before the local
/// in-memory paths at b < 64) so local and distributed runs score the same
/// truncated values.
void mask_components(SketchMatrix& sketches, std::uint64_t mask) noexcept;

/// b-bit packed sketch rows: rows() sketches of cols() lanes, each lane the
/// low `bits()` bits of the corresponding SketchMatrix component, packed
/// little-endian into words_per_row() u64 words per row.  `bits` divides 64
/// (valid_pack_bits), so lanes never straddle words and row comparison is
/// count_equal_packed over the two word spans.  Pad lanes are always zero.
class PackedSketchMatrix {
 public:
  PackedSketchMatrix() = default;
  PackedSketchMatrix(std::size_t rows, std::size_t cols, std::size_t bits);

  /// Pack the low `bits` of every component of `matrix`.
  static PackedSketchMatrix pack(const SketchMatrix& matrix, std::size_t bits);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  [[nodiscard]] std::size_t words_per_row() const noexcept { return wpr_; }

  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t i) const noexcept {
    return {data_.data() + i * wpr_, wpr_};
  }

  void set(std::size_t i, std::size_t j, std::uint64_t value) noexcept {
    const std::size_t lanes = 64 / bits_;
    const std::size_t word = i * wpr_ + j / lanes;
    const std::size_t shift = (j % lanes) * bits_;
    const std::uint64_t mask = lane_mask();
    data_[word] = (data_[word] & ~(mask << shift)) | ((value & mask) << shift);
  }
  [[nodiscard]] std::uint64_t get(std::size_t i, std::size_t j) const noexcept {
    const std::size_t lanes = 64 / bits_;
    return (data_[i * wpr_ + j / lanes] >> ((j % lanes) * bits_)) & lane_mask();
  }

  /// matches(count_equal_packed) between rows i and j.
  [[nodiscard]] std::size_t count_equal_rows(
      std::size_t i, std::size_t j,
      Backend backend = active_backend()) const noexcept {
    return count_equal_packed(row(i), row(j), cols_, bits_, backend);
  }

  friend bool operator==(const PackedSketchMatrix&,
                         const PackedSketchMatrix&) = default;

 private:
  [[nodiscard]] std::uint64_t lane_mask() const noexcept {
    return bits_ >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << bits_) - 1;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t bits_ = 0;
  std::size_t wpr_ = 0;
  std::vector<std::uint64_t> data_;
};

/// Cache-blocked all-pairs component-match fill: writes every cell of the
/// symmetric n×n matrix (diagonal 1) into `out` with `stride` doubles per
/// row, out[i*stride+j] = double(float(MatchScore(cols)(count_equal(row i,
/// row j)))); 0 off the diagonal when cols == 0 (matching
/// component_match_similarity on empty sketches).  Rows are processed in
/// blocks so each block stays L1-resident while the partner rows stream.
/// When `pool` is non-null, blocks run in parallel (and first-touch the
/// pages they write); the result is identical at any thread count.
void component_match_matrix(const SketchMatrix& sketches, double* out,
                            std::size_t stride,
                            Backend backend = active_backend(),
                            common::ThreadPool* pool = nullptr);

}  // namespace mrmc::core::kernels
