#include "core/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MRMC_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace mrmc::core::kernels {

namespace {

using detail::cw_hash;
using detail::mod_mersenne61;

/// Accumulator start for the minimum scan: above every possible hash value
/// (h < p <= 2^61) yet positive as a signed 64-bit integer, so the AVX2
/// signed compares are valid.  Distinct from kEmptyFeatureMin, which is only
/// written for empty feature sets.
constexpr std::uint64_t kMinSentinel = std::uint64_t{1} << 62;

constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

// ------------------------------------------------------------------ dispatch

// -1 = no override; otherwise a Backend value forced by ScopedBackendOverride.
std::atomic<int> g_backend_override{-1};

Backend detect_backend() noexcept {
  if (const char* force = std::getenv("MRMC_FORCE_SCALAR");
      force != nullptr && *force != '\0' && std::string_view(force) != "0") {
    return Backend::kScalar;
  }
  return backend_available(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
}

// ------------------------------------------------------------- scalar kernels

/// Hash-outer / feature-inner minwise scan, 4-way unrolled so the four
/// Mersenne-61 reductions pipeline: a_i/b_i stay in registers for the whole
/// feature stream instead of being reloaded per (feature × hash).
void min_sketch_scalar(std::span<const std::uint64_t> mul,
                       std::span<const std::uint64_t> add,
                       std::uint64_t modulus,
                       std::span<const std::uint64_t> features,
                       std::span<std::uint64_t> out) {
  const std::uint64_t* f = features.data();
  const std::size_t nf = features.size();
  for (std::size_t i = 0; i < mul.size(); ++i) {
    const std::uint64_t a = mul[i];
    const std::uint64_t b = add[i];
    std::uint64_t m0 = kMinSentinel, m1 = kMinSentinel;
    std::uint64_t m2 = kMinSentinel, m3 = kMinSentinel;
    std::size_t j = 0;
    if (modulus == 0) {
      for (; j + 4 <= nf; j += 4) {
        m0 = std::min(m0, cw_hash(a, b, f[j + 0]));
        m1 = std::min(m1, cw_hash(a, b, f[j + 1]));
        m2 = std::min(m2, cw_hash(a, b, f[j + 2]));
        m3 = std::min(m3, cw_hash(a, b, f[j + 3]));
      }
      for (; j < nf; ++j) m0 = std::min(m0, cw_hash(a, b, f[j]));
    } else {
      for (; j + 4 <= nf; j += 4) {
        m0 = std::min(m0, cw_hash(a, b, f[j + 0]) % modulus);
        m1 = std::min(m1, cw_hash(a, b, f[j + 1]) % modulus);
        m2 = std::min(m2, cw_hash(a, b, f[j + 2]) % modulus);
        m3 = std::min(m3, cw_hash(a, b, f[j + 3]) % modulus);
      }
      for (; j < nf; ++j) m0 = std::min(m0, cw_hash(a, b, f[j]) % modulus);
    }
    out[i] = std::min(std::min(m0, m1), std::min(m2, m3));
  }
}

std::size_t count_equal_scalar(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) noexcept {
  std::size_t matches = 0;
  for (std::size_t i = 0; i < n; ++i) matches += a[i] == b[i] ? 1 : 0;
  return matches;
}

/// s < 2p -> exact residue via one conditional subtract.
inline std::uint64_t fold61(std::uint64_t s) noexcept {
  return s >= kMersenne61 ? s - kMersenne61 : s;
}

/// C-MinHash pass 2 over premultiplied residues t[j] = (A·x_j) mod p: for
/// each hash k, out[k] = min_j mix((t[j] + B_k) mod p) [% modulus].  Both
/// addends are < p, so the sum fits u64 and fold61 finishes the reduction.
/// The fold is NOT removable as an optimization: its conditional subtract
/// is the only *data-dependent* nonlinearity between slots — without it
/// slot k is the pure translation t + B_k and the scramble alone leaves
/// the K orderings correlated (measurably biased estimates, seed-unstable
/// clustering).  detail::cmin_mix64 (π's order-scrambling role) costs the
/// only multiply in the inner loop — still far cheaper than the
/// per-(feature × hash) Mersenne-61 product of the universal family
/// (pass 1 amortized that over all K hashes).
void cmin_sketch_scalar(std::span<const std::uint64_t> premul,
                        std::span<const std::uint64_t> add,
                        std::uint64_t modulus,
                        std::span<std::uint64_t> out) {
  const std::uint64_t* t = premul.data();
  const std::size_t nf = premul.size();
  for (std::size_t k = 0; k < add.size(); ++k) {
    const std::uint64_t b = add[k];
    // Mixed values span all of u64, so the accumulators start at the u64
    // maximum (kMinSentinel = 2^62 only bounds unmixed residues).
    std::uint64_t m0 = kEmptyFeatureMin, m1 = kEmptyFeatureMin;
    std::uint64_t m2 = kEmptyFeatureMin, m3 = kEmptyFeatureMin;
    std::size_t j = 0;
    if (modulus == 0) {
      for (; j + 4 <= nf; j += 4) {
        m0 = std::min(m0, detail::cmin_mix64(fold61(t[j + 0] + b)));
        m1 = std::min(m1, detail::cmin_mix64(fold61(t[j + 1] + b)));
        m2 = std::min(m2, detail::cmin_mix64(fold61(t[j + 2] + b)));
        m3 = std::min(m3, detail::cmin_mix64(fold61(t[j + 3] + b)));
      }
      for (; j < nf; ++j) m0 = std::min(m0, detail::cmin_mix64(fold61(t[j] + b)));
    } else {
      for (; j + 4 <= nf; j += 4) {
        m0 = std::min(m0, detail::cmin_mix64(fold61(t[j + 0] + b)) % modulus);
        m1 = std::min(m1, detail::cmin_mix64(fold61(t[j + 1] + b)) % modulus);
        m2 = std::min(m2, detail::cmin_mix64(fold61(t[j + 2] + b)) % modulus);
        m3 = std::min(m3, detail::cmin_mix64(fold61(t[j + 3] + b)) % modulus);
      }
      for (; j < nf; ++j) {
        m0 = std::min(m0, detail::cmin_mix64(fold61(t[j] + b)) % modulus);
      }
    }
    out[k] = std::min(std::min(m0, m1), std::min(m2, m3));
  }
}

std::size_t argmin_scalar(std::span<const double> row) noexcept {
  std::size_t best = row.size();
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] < best_value) {
      best_value = row[i];
      best = i;
    }
  }
  // All-inf rows have no strict improvement; report the first slot so both
  // backends agree (callers treat an inf minimum as "no active neighbour").
  return best == row.size() && !row.empty() ? 0 : best;
}

// --------------------------------------------------------------- AVX2 kernels
#if MRMC_KERNELS_X86

/// Fold a raw feature into [0, p): (a·x) ≡ (a·(x mod p)) (mod p), and the
/// reduced x fits the 29/32-bit limb bounds the vector multiply needs.
inline std::uint64_t reduce61(std::uint64_t x) noexcept {
  std::uint64_t r = (x & kMersenne61) + (x >> 61);  // < 2^61 + 8
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

/// 4 hash lanes per feature broadcast.  Each 64-bit lane computes the exact
/// residue (a·x + b) mod p via 32-bit limb products:
///   a·x = a_hi·x_hi·2^64 + (a_hi·x_lo + a_lo·x_hi)·2^32 + a_lo·x_lo
/// with x pre-reduced below 2^61 so a_hi < 2^29, x_hi < 2^29 keep every
/// partial sum below 2^63 (no lane overflow).  2^64 ≡ 8 and
/// t·2^32 ≡ (t >> 29) + (t mod 2^29)·2^32 (mod p) collapse the limbs, then a
/// single fold + compare-subtract completes the exact reduction — the same
/// residue the scalar path computes, hence bit-identical sketches.
__attribute__((target("avx2"))) void min_sketch_avx2(
    std::span<const std::uint64_t> mul, std::span<const std::uint64_t> add,
    std::uint64_t modulus, std::span<const std::uint64_t> features,
    std::span<std::uint64_t> out, std::span<const std::uint64_t> reduced) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kMersenne61));
  const __m256i low32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i mask29 = _mm256_set1_epi64x((1LL << 29) - 1);
  const __m256i sentinel =
      _mm256_set1_epi64x(static_cast<long long>(kMinSentinel));
  const bool has_mod = modulus != 0;  // pow2-only in this path
  const __m256i mod_mask =
      _mm256_set1_epi64x(static_cast<long long>(modulus - 1));

  const std::size_t nh = mul.size();
  std::size_t i = 0;
  for (; i + 4 <= nh; i += 4) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mul.data() + i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(add.data() + i));
    const __m256i a_lo = _mm256_and_si256(a, low32);
    const __m256i a_hi = _mm256_srli_epi64(a, 32);

    __m256i best = sentinel;
    for (const std::uint64_t x : reduced) {
      const __m256i vx = _mm256_set1_epi64x(static_cast<long long>(x));
      const __m256i x_lo = _mm256_and_si256(vx, low32);
      const __m256i x_hi = _mm256_srli_epi64(vx, 32);

      const __m256i t0 = _mm256_mul_epu32(a_lo, x_lo);  // < 2^64
      const __m256i t1 = _mm256_add_epi64(_mm256_mul_epu32(a_hi, x_lo),
                                          _mm256_mul_epu32(a_lo, x_hi));
      const __m256i t2 = _mm256_mul_epu32(a_hi, x_hi);  // < 2^58

      // c0 = t0 mod-folded; c1 = t1·2^32 mod p; c2 = t2·2^64 mod p = t2·8.
      const __m256i c0 = _mm256_add_epi64(_mm256_and_si256(t0, p),
                                          _mm256_srli_epi64(t0, 61));
      const __m256i c1 = _mm256_add_epi64(
          _mm256_srli_epi64(t1, 29),
          _mm256_slli_epi64(_mm256_and_si256(t1, mask29), 32));
      const __m256i c2 = _mm256_slli_epi64(t2, 3);

      // s = a·x + b (mod-p residue class), s < 2^63.
      const __m256i s = _mm256_add_epi64(_mm256_add_epi64(c0, c1),
                                         _mm256_add_epi64(c2, b));
      // One fold brings s under 2^61 + 4; subtract p where r >= p.
      __m256i r = _mm256_add_epi64(_mm256_and_si256(s, p),
                                   _mm256_srli_epi64(s, 61));
      const __m256i ge = _mm256_cmpgt_epi64(
          r, _mm256_sub_epi64(p, _mm256_set1_epi64x(1)));
      r = _mm256_sub_epi64(r, _mm256_and_si256(ge, p));

      if (has_mod) r = _mm256_and_si256(r, mod_mask);
      best = _mm256_blendv_epi8(best, r, _mm256_cmpgt_epi64(best, r));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + i), best);
  }
  if (i < nh) {
    min_sketch_scalar(mul.subspan(i), add.subspan(i), modulus,
                      features, out.subspan(i));
  }
}

/// C-MinHash pass 2, 4 hash lanes per chunk.  The heavy lifting (the one
/// Mersenne-61 product per feature) happened in the shared scalar pass 1;
/// here each lane is add + conditional-subtract (the fold's data-dependent
/// nonlinearity — see cmin_sketch_scalar) + the cmin_mix64 scramble + min.
/// Because kCMinMixMul's low half is 1, the 64-bit mix multiply is a
/// single 32×32 vpmuludq (y + ((y·M_hi) << 32)) — one product per cell
/// against the universal kernel's three-limb Mersenne-61 product.  Mixed
/// values span all of u64, so the running min works in the sign-flipped
/// domain where a signed compare orders unsigned values.  The outer
/// modulus is pow2-only in this path (mask AND), same policy as
/// min_sketch_avx2.
__attribute__((target("avx2"))) void cmin_sketch_avx2(
    std::span<const std::uint64_t> premul, std::span<const std::uint64_t> add,
    std::uint64_t modulus, std::span<std::uint64_t> out) {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kMersenne61));
  const __m256i p_minus_1 =
      _mm256_set1_epi64x(static_cast<long long>(kMersenne61 - 1));
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(std::uint64_t{1} << 63));
  // Biased u64 max: greater (signed) than every biased mixed value.
  const __m256i sentinel = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(kEmptyFeatureMin)), sign);
  const bool has_mod = modulus != 0;  // pow2-only in this path
  const __m256i mod_mask =
      _mm256_set1_epi64x(static_cast<long long>(modulus - 1));
  static_assert((detail::kCMinMixMul & 0xffffffffULL) == 1,
                "the one-vpmuludq mix below requires a low-half-1 multiplier");
  const __m256i mix_hi =
      _mm256_set1_epi64x(static_cast<long long>(detail::kCMinMixMul >> 32));

  const std::size_t nh = add.size();
  std::size_t i = 0;
  for (; i + 4 <= nh; i += 4) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(add.data() + i));
    __m256i best = sentinel;
    for (const std::uint64_t x : premul) {
      __m256i s = _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<long long>(x)), b);
      const __m256i ge = _mm256_cmpgt_epi64(s, p_minus_1);
      s = _mm256_sub_epi64(s, _mm256_and_si256(ge, p));
      // cmin_mix64: xor-fold, then y + ((y·M_hi) << 32) (low-half-1
      // mullo64).  vpmuludq reads the low 32 bits of each lane, which is
      // exactly the y_lo the product needs.
      s = _mm256_xor_si256(s, _mm256_srli_epi64(s, 32));
      s = _mm256_add_epi64(
          s, _mm256_slli_epi64(_mm256_mul_epu32(s, mix_hi), 32));
      if (has_mod) s = _mm256_and_si256(s, mod_mask);
      s = _mm256_xor_si256(s, sign);
      best = _mm256_blendv_epi8(best, s, _mm256_cmpgt_epi64(best, s));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + i),
                        _mm256_xor_si256(best, sign));
  }
  if (i < nh) {
    cmin_sketch_scalar(premul, add.subspan(i), modulus, out.subspan(i));
  }
}

__attribute__((target("avx2"))) std::size_t count_equal_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) noexcept {
  std::size_t matches = 0;
  std::size_t i = 0;
  int acc = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i eq0 = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    const __m256i eq1 = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 4)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 4)));
    acc += __builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq0))));
    acc += __builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq1))));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i eq = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc += __builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq))));
  }
  matches = static_cast<std::size_t>(acc);
  for (; i < n; ++i) matches += a[i] == b[i] ? 1 : 0;
  return matches;
}

__attribute__((target("avx2"))) std::size_t argmin_avx2(
    std::span<const double> row) noexcept {
  const std::size_t n = row.size();
  if (n < 8) return argmin_scalar(row);
  // Pass 1: vector minimum of the whole row (exact — min has no rounding).
  __m256d vmin = _mm256_loadu_pd(row.data());
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    vmin = _mm256_min_pd(vmin, _mm256_loadu_pd(row.data() + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmin);
  double best = std::min(std::min(lanes[0], lanes[1]),
                         std::min(lanes[2], lanes[3]));
  for (; i < n; ++i) best = std::min(best, row[i]);
  if (best == std::numeric_limits<double>::infinity()) return 0;
  // Pass 2: first index equal to the minimum — the same slot the scalar
  // strict-less scan keeps (first occurrence).
  const __m256d vbest = _mm256_set1_pd(best);
  for (i = 0; i + 4 <= n; i += 4) {
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(row.data() + i), vbest, _CMP_EQ_OQ));
    if (mask != 0) {
      return i + static_cast<std::size_t>(__builtin_ctz(
                     static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (row[i] == best) return i;
  }
  return 0;  // unreachable: best was read from the row
}

#endif  // MRMC_KERNELS_X86

}  // namespace

// ------------------------------------------------------------------- public

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
  }
  return "?";
}

bool backend_available(Backend backend) noexcept {
  if (backend == Backend::kScalar) return true;
#if MRMC_KERNELS_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Backend active_backend() noexcept {
  const int forced = g_backend_override.load(std::memory_order_acquire);
  if (forced >= 0) return static_cast<Backend>(forced);
  static const Backend chosen = detect_backend();
  return chosen;
}

ScopedBackendOverride::ScopedBackendOverride(Backend backend) {
  g_backend_override.store(static_cast<int>(backend),
                           std::memory_order_release);
}

ScopedBackendOverride::~ScopedBackendOverride() {
  g_backend_override.store(-1, std::memory_order_release);
}

void min_sketch(std::span<const std::uint64_t> mul,
                std::span<const std::uint64_t> add, std::uint64_t modulus,
                std::span<const std::uint64_t> features,
                std::span<std::uint64_t> out, Backend backend) {
  MRMC_REQUIRE(mul.size() == add.size() && mul.size() == out.size(),
               "SoA hash parameter spans must have equal length");
  if (features.empty()) {
    std::fill(out.begin(), out.end(), kEmptyFeatureMin);
    return;
  }
#if MRMC_KERNELS_X86
  // A non-power-of-two outer modulus needs a per-lane 64-bit remainder the
  // vector ISA lacks; only m == 0 / m == 2^k (the paper's 4^k) vectorize.
  if (backend == Backend::kAvx2 && (modulus == 0 || is_pow2(modulus))) {
    thread_local std::vector<std::uint64_t> reduced;
    reduced.resize(features.size());
    for (std::size_t i = 0; i < features.size(); ++i) {
      reduced[i] = reduce61(features[i]);
    }
    min_sketch_avx2(mul, add, modulus, features, out, reduced);
    return;
  }
#else
  (void)backend;
  (void)is_pow2;
#endif
  min_sketch_scalar(mul, add, modulus, features, out);
}

void cmin_sketch(std::uint64_t mul, std::span<const std::uint64_t> add,
                 std::uint64_t modulus,
                 std::span<const std::uint64_t> features,
                 std::span<std::uint64_t> out, Backend backend) {
  MRMC_REQUIRE(add.size() == out.size(),
               "per-hash offset span must match the output span");
  if (features.empty()) {
    std::fill(out.begin(), out.end(), kEmptyFeatureMin);
    return;
  }
  // Pass 1, shared by both backends (bit-identity for free): the one
  // Mersenne-61 product per feature, t[j] = (A·x_j) mod p.
  thread_local std::vector<std::uint64_t> premul;
  premul.resize(features.size());
  for (std::size_t j = 0; j < features.size(); ++j) {
    premul[j] = mod_mersenne61(static_cast<__uint128_t>(mul) * features[j]);
  }
#if MRMC_KERNELS_X86
  // Same policy as min_sketch: a non-power-of-two outer modulus needs a
  // per-lane remainder the vector ISA lacks.
  if (backend == Backend::kAvx2 && (modulus == 0 || is_pow2(modulus))) {
    cmin_sketch_avx2(premul, add, modulus, out);
    return;
  }
#else
  (void)backend;
#endif
  cmin_sketch_scalar(premul, add, modulus, out);
}

std::size_t count_equal(std::span<const std::uint64_t> a,
                        std::span<const std::uint64_t> b,
                        Backend backend) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
#if MRMC_KERNELS_X86
  if (backend == Backend::kAvx2) return count_equal_avx2(a.data(), b.data(), n);
#else
  (void)backend;
#endif
  return count_equal_scalar(a.data(), b.data(), n);
}

std::size_t argmin(std::span<const double> row, Backend backend) noexcept {
#if MRMC_KERNELS_X86
  if (backend == Backend::kAvx2) return argmin_avx2(row);
#else
  (void)backend;
#endif
  return argmin_scalar(row);
}

// -------------------------------------------------------------- SketchMatrix

SketchMatrix::SketchMatrix(std::size_t rows, std::size_t cols,
                           std::uint64_t fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

SketchMatrix SketchMatrix::for_overwrite(std::size_t rows, std::size_t cols) {
  SketchMatrix matrix;
  matrix.rows_ = rows;
  matrix.cols_ = cols;
  matrix.data_ = LargeArray<std::uint64_t>::for_overwrite(rows * cols);
  return matrix;
}

SketchMatrix SketchMatrix::from_sketches(
    std::span<const std::vector<std::uint64_t>> sketches) {
  if (sketches.empty()) return {};
  const std::size_t cols = sketches.front().size();
  for (const auto& sketch : sketches) {
    MRMC_REQUIRE(sketch.size() == cols,
                 "all sketches must have the same length");
  }
  SketchMatrix matrix = for_overwrite(sketches.size(), cols);
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    std::copy(sketches[i].begin(), sketches[i].end(), matrix.row(i).begin());
  }
  return matrix;
}

void mask_components(SketchMatrix& sketches, std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < sketches.rows(); ++i) {
    for (std::uint64_t& value : sketches.row(i)) value &= mask;
  }
}

void component_match_matrix(const SketchMatrix& sketches, double* out,
                            std::size_t stride, Backend backend,
                            common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  const std::size_t cols = sketches.cols();
  // Block height: 8 rows of up to 512 components stay L1-resident while the
  // partner rows stream through once per block.
  constexpr std::size_t kBlock = 8;
  const MatchScore score(cols);

  auto fill_block = [&](std::size_t block) {
    const std::size_t i0 = block * kBlock;
    const std::size_t i1 = std::min(i0 + kBlock, n);
    for (std::size_t i = i0; i < i1; ++i) out[i * stride + i] = 1.0;
    for (std::size_t j = i0 + 1; j < n; ++j) {
      const std::uint64_t* rj = sketches.row_ptr(j);
      const std::size_t iend = std::min(i1, j);
      for (std::size_t i = i0; i < iend; ++i) {
        const std::size_t eq =
            count_equal({sketches.row_ptr(i), cols}, {rj, cols}, backend);
        const double sim = static_cast<float>(score(eq));
        out[i * stride + j] = sim;
        out[j * stride + i] = sim;
      }
    }
  };

  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  common::parallel_for(n > 64 ? pool : nullptr, blocks, fill_block);
}

}  // namespace mrmc::core::kernels
