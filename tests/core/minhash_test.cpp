#include "core/minhash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"

namespace mrmc::core {
namespace {

// ------------------------------------------------------ UniversalHashFamily

TEST(UniversalHashFamily, DeterministicPerSeed) {
  const UniversalHashFamily a(8, 0, 5), b(8, 0, 5), c(8, 0, 6);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.hash(i, 12345), b.hash(i, 12345));
    EXPECT_NE(a.hash(i, 12345), c.hash(i, 12345));
  }
}

TEST(UniversalHashFamily, FunctionsAreDistinct) {
  const UniversalHashFamily family(16, 0, 7);
  std::set<std::uint64_t> values;
  for (std::size_t i = 0; i < 16; ++i) values.insert(family.hash(i, 999));
  EXPECT_EQ(values.size(), 16u);
}

TEST(UniversalHashFamily, RespectsOuterModulus) {
  const UniversalHashFamily family(4, 1024, 8);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::uint64_t x = 0; x < 100; ++x) {
      EXPECT_LT(family.hash(i, x), 1024u);
    }
  }
}

TEST(UniversalHashFamily, FullRangeStaysBelowPrime) {
  const UniversalHashFamily family(4, 0, 9);
  for (std::uint64_t x = 0; x < 100; ++x) {
    EXPECT_LT(family.hash(0, x * 0x9e3779b9ULL), UniversalHashFamily::kPrime);
  }
}

TEST(UniversalHashFamily, RejectsBadArguments) {
  EXPECT_THROW(UniversalHashFamily(0, 0, 1), common::InvalidArgument);
  EXPECT_THROW(UniversalHashFamily(1, UniversalHashFamily::kPrime + 1, 1),
               common::InvalidArgument);
}

TEST(UniversalHashFamily, IsRoughlyUniform) {
  // Bucket 10k sequential keys into 16 buckets; each should get ~625.
  const UniversalHashFamily family(1, 0, 10);
  std::vector<int> buckets(16, 0);
  for (std::uint64_t x = 0; x < 10000; ++x) {
    ++buckets[family.hash(0, x) % 16];
  }
  for (const int count : buckets) {
    EXPECT_GT(count, 450);
    EXPECT_LT(count, 800);
  }
}

// ------------------------------------------------------------------ sketches

TEST(MinHasher, SketchHasRequestedLength) {
  const MinHasher hasher({.kmer = 5, .num_hashes = 32, .seed = 1});
  EXPECT_EQ(hasher.sketch("ACGTACGTACGTACGT").size(), 32u);
  EXPECT_EQ(hasher.sketch_size(), 32u);
}

TEST(MinHasher, IdenticalSequencesShareSketch) {
  const MinHasher hasher({.kmer = 4, .num_hashes = 16, .seed = 2});
  EXPECT_EQ(hasher.sketch("ACGGTTAACCGT"), hasher.sketch("ACGGTTAACCGT"));
}

TEST(MinHasher, EmptyFeatureSetGivesSentinel) {
  const MinHasher hasher({.kmer = 10, .num_hashes = 4, .seed = 3});
  const Sketch sketch = hasher.sketch("ACG");  // shorter than k
  for (const auto v : sketch) EXPECT_EQ(v, kEmptyMin);
}

TEST(MinHasher, SketchIsOrderInsensitiveOverFeatures) {
  const MinHasher hasher({.kmer = 3, .num_hashes = 16, .seed = 4});
  const std::vector<std::uint64_t> features{5, 17, 40, 63};
  std::vector<std::uint64_t> reversed(features.rbegin(), features.rend());
  EXPECT_EQ(hasher.sketch_features(features), hasher.sketch_features(reversed));
}

TEST(MinHasher, SubsetHasComponentwiseGreaterOrEqualMinima) {
  const MinHasher hasher({.kmer = 3, .num_hashes = 32, .seed = 5});
  const std::vector<std::uint64_t> small{1, 2, 3};
  const std::vector<std::uint64_t> large{1, 2, 3, 4, 5, 6};
  const Sketch sketch_small = hasher.sketch_features(small);
  const Sketch sketch_large = hasher.sketch_features(large);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_LE(sketch_large[i], sketch_small[i]);
  }
}

TEST(MinHasher, RejectsBadK) {
  EXPECT_THROW(MinHasher({.kmer = 0}), common::InvalidArgument);
  EXPECT_THROW(MinHasher({.kmer = 32}), common::InvalidArgument);
}

TEST(MinHasher, SketchMatrixRowsMatchIndividualSketches) {
  const MinHasher hasher({.kmer = 4, .num_hashes = 8, .seed = 6});
  const std::vector<std::string_view> seqs{"ACGTACGTAA", "TTGGCCAATT"};
  const auto sketches = hasher.sketch_matrix(seqs);
  ASSERT_EQ(sketches.rows(), 2u);
  ASSERT_EQ(sketches.cols(), 8u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const auto row = sketches.row(i);
    EXPECT_EQ(Sketch(row.begin(), row.end()), hasher.sketch(seqs[i]));
  }
}

// --------------------------------------------------------------- estimators

TEST(Estimators, IdenticalSketchesGiveOne) {
  const MinHasher hasher({.kmer = 4, .num_hashes = 32, .seed = 7});
  const Sketch sketch = hasher.sketch("ACGGTTAACCGGTTAA");
  EXPECT_DOUBLE_EQ(component_match_similarity(sketch, sketch), 1.0);
  EXPECT_DOUBLE_EQ(set_based_similarity(sketch, sketch), 1.0);
}

TEST(Estimators, MismatchedLengthsHandled) {
  EXPECT_DOUBLE_EQ(component_match_similarity({1, 2}, {1, 2, 3}), 0.0);
  EXPECT_THROW((void)sketch_similarity({1}, {1, 2}, SketchEstimator::kComponentMatch),
               common::InvalidArgument);
}

TEST(Estimators, KnownComponentMatchFraction) {
  const Sketch a{1, 2, 3, 4};
  const Sketch b{1, 2, 9, 9};
  EXPECT_DOUBLE_EQ(component_match_similarity(a, b), 0.5);
}

TEST(Estimators, SetBasedUsesDistinctValues) {
  // a = {1,2}, b = {2,3}: intersection {2}, union {1,2,3}.
  const Sketch a{1, 2, 2, 1};
  const Sketch b{2, 3, 3, 2};
  EXPECT_NEAR(set_based_similarity(a, b), 1.0 / 3.0, 1e-12);
}

TEST(Estimators, DispatchMatchesDirectCalls) {
  const Sketch a{1, 2, 3, 4};
  const Sketch b{1, 5, 3, 6};
  EXPECT_DOUBLE_EQ(sketch_similarity(a, b, SketchEstimator::kComponentMatch),
                   component_match_similarity(a, b));
  EXPECT_DOUBLE_EQ(sketch_similarity(a, b, SketchEstimator::kSetBased),
                   set_based_similarity(a, b));
}

// ------------------------------------- estimator accuracy (property sweeps)

/// Random feature sets with a controlled exact Jaccard similarity.
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
sets_with_jaccard(double jaccard, std::size_t union_size, common::Xoshiro256& rng) {
  const auto shared = static_cast<std::size_t>(jaccard * union_size);
  const std::size_t only = (union_size - shared) / 2;
  std::set<std::uint64_t> pool;
  while (pool.size() < union_size) pool.insert(rng());
  std::vector<std::uint64_t> all(pool.begin(), pool.end());
  std::vector<std::uint64_t> a(all.begin(), all.begin() + shared);
  std::vector<std::uint64_t> b = a;
  for (std::size_t i = 0; i < only; ++i) {
    a.push_back(all[shared + i]);
    b.push_back(all[shared + only + i]);
  }
  return {a, b};
}

class EstimatorAccuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EstimatorAccuracy, ComponentMatchConvergesToExactJaccard) {
  const std::size_t num_hashes = GetParam();
  const MinHasher hasher({.kmer = 5, .num_hashes = num_hashes, .seed = 11});
  common::Xoshiro256 rng(100 + num_hashes);

  for (const double target : {0.2, 0.5, 0.8}) {
    auto [a, b] = sets_with_jaccard(target, 400, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const double exact = bio::exact_jaccard(a, b);
    const double estimate = component_match_similarity(hasher.sketch_features(a),
                                                       hasher.sketch_features(b));
    // Binomial std-dev of the estimator ~ sqrt(J(1-J)/n); allow 4 sigma.
    const double sigma =
        std::sqrt(exact * (1 - exact) / static_cast<double>(num_hashes));
    EXPECT_NEAR(estimate, exact, 4 * sigma + 0.02)
        << "n=" << num_hashes << " target=" << target;
  }
}

INSTANTIATE_TEST_SUITE_P(SketchSizes, EstimatorAccuracy,
                         ::testing::Values(25, 50, 100, 200, 400));

TEST(EstimatorAccuracy, LargerSketchesEstimateBetterOnAverage) {
  common::Xoshiro256 rng(55);
  double error_small = 0, error_large = 0;
  constexpr int kTrials = 20;
  const MinHasher small({.kmer = 5, .num_hashes = 16, .seed = 12});
  const MinHasher large({.kmer = 5, .num_hashes = 256, .seed = 12});
  for (int trial = 0; trial < kTrials; ++trial) {
    auto [a, b] = sets_with_jaccard(0.5, 300, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const double exact = bio::exact_jaccard(a, b);
    error_small += std::fabs(
        component_match_similarity(small.sketch_features(a), small.sketch_features(b)) -
        exact);
    error_large += std::fabs(
        component_match_similarity(large.sketch_features(a), large.sketch_features(b)) -
        exact);
  }
  EXPECT_LT(error_large, error_small);
}

TEST(EstimatorAccuracy, PaperLiteralModulusDegeneratesForSmallK) {
  // Documented pitfall: m = 4^k at k=5 collapses minima toward 0, making
  // unrelated sequences look similar (why `modulus = 0` is the default).
  common::Xoshiro256 rng(77);
  const MinHasher literal({.kmer = 5,
                           .num_hashes = 64,
                           .seed = 13,
                           .modulus = bio::kmer_space_size(5)});
  const MinHasher sound({.kmer = 5, .num_hashes = 64, .seed = 13});
  auto [a, b] = sets_with_jaccard(0.0, 2000, rng);  // two disjoint 1000-sets
  const double literal_sim = component_match_similarity(
      literal.sketch_features(a), literal.sketch_features(b));
  const double sound_sim = component_match_similarity(sound.sketch_features(a),
                                                      sound.sketch_features(b));
  // Degenerate modulus: 1000 draws into 1024 buckets pile the minima near 0,
  // so disjoint sets collide on many components; the sound variant does not.
  EXPECT_GT(literal_sim, sound_sim + 0.2);
  EXPECT_LT(sound_sim, 0.1);
}

// --------------------------------------------------------- CMinHashFamily

TEST(CMinHashFamily, DeterministicPerSeedAndDistinctPerComponent) {
  const CMinHashFamily a(16, 0, 5), b(16, 0, 5), c(16, 0, 6);
  std::set<std::uint64_t> values;
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(a.hash(k, 12345), b.hash(k, 12345));
    EXPECT_NE(a.hash(k, 12345), c.hash(k, 12345));
    values.insert(a.hash(k, 999));
  }
  EXPECT_EQ(values.size(), 16u);
}

TEST(CMinHashFamily, SharesOneMultiplierAcrossComponents) {
  // The whole point of the scheme: underneath the fixed cmin_mix64
  // scramble, h_k(x) = (A·x + B_k) mod p — so after inverting the mix, any
  // two components differ only by an additive constant mod p.
  const CMinHashFamily family(8, 0, 21);
  const std::uint64_t p = CMinHashFamily::kPrime;
  const std::uint64_t x = 987654321;
  const std::uint64_t y = 123456789;
  const auto affine = [&](std::size_t k, std::uint64_t v) {
    return kernels::detail::cmin_unmix64(family.hash(k, v));
  };
  for (std::size_t k = 1; k < 8; ++k) {
    const std::uint64_t dx = (affine(k, x) + p - affine(0, x)) % p;
    const std::uint64_t dy = (affine(k, y) + p - affine(0, y)) % p;
    EXPECT_EQ(dx, dy) << "k=" << k;
  }
}

TEST(CMinHashFamily, MixIsABijectionAndBreaksTheRotationStructure) {
  // The scramble must invert exactly (the test above depends on it) and
  // must NOT be order-preserving — an order-preserving π would leave every
  // component a rotation of the same point set (correlated minima).
  common::Xoshiro256 rng(7);
  bool descending_somewhere = false;
  std::uint64_t prev = kernels::detail::cmin_mix64(0);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng();
    EXPECT_EQ(kernels::detail::cmin_unmix64(kernels::detail::cmin_mix64(v)), v);
    const std::uint64_t mixed = kernels::detail::cmin_mix64(v);
    descending_somewhere |= mixed < prev;
    prev = mixed;
  }
  EXPECT_TRUE(descending_somewhere);
}

TEST(CMinHashFamily, RespectsOuterModulusAndRange) {
  const CMinHashFamily bounded(4, 1024, 8);
  const CMinHashFamily full(4, 0, 8);
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint64_t x = 0; x < 100; ++x) {
      EXPECT_LT(bounded.hash(k, x), 1024u);
      // Mixed values span u64; the affine residue underneath stays < p.
      EXPECT_LT(kernels::detail::cmin_unmix64(full.hash(k, x)),
                CMinHashFamily::kPrime);
    }
  }
}

TEST(HashFamilies, RejectBadArgumentsWithClearErrors) {
  // Satellite: both families share one validator — count 0 and degenerate /
  // oversized moduli fail loudly instead of producing all-zero sketches.
  EXPECT_THROW(UniversalHashFamily(0, 0, 1), common::InvalidArgument);
  EXPECT_THROW(CMinHashFamily(0, 0, 1), common::InvalidArgument);
  EXPECT_THROW(UniversalHashFamily(4, 1, 1), common::InvalidArgument);
  EXPECT_THROW(CMinHashFamily(4, 1, 1), common::InvalidArgument);
  EXPECT_THROW(UniversalHashFamily(4, UniversalHashFamily::kPrime + 1, 1),
               common::InvalidArgument);
  EXPECT_THROW(CMinHashFamily(4, CMinHashFamily::kPrime + 1, 1),
               common::InvalidArgument);
  // m == 2 and m == p are the boundary legal values.
  EXPECT_NO_THROW(UniversalHashFamily(1, 2, 1));
  EXPECT_NO_THROW(CMinHashFamily(1, UniversalHashFamily::kPrime, 1));
}

TEST(CMinHashScheme, SketchMatchesFamilyReference) {
  const MinHasher hasher({.kmer = 5,
                          .num_hashes = 32,
                          .seed = 9,
                          .scheme = SketchScheme::kCMinHash});
  const std::string seq = "ACGTACGGTTCAACGGATCCGATCGGCTTAACGT";
  const std::vector<std::uint64_t> features = bio::kmer_set(seq, {.k = 5});
  const Sketch sketch = hasher.sketch(seq);
  const CMinHashFamily family(32, 0, 9);
  for (std::size_t k = 0; k < 32; ++k) {
    std::uint64_t expected = ~std::uint64_t{0};
    for (const std::uint64_t x : features) {
      expected = std::min(expected, family.hash(k, x));
    }
    EXPECT_EQ(sketch[k], expected);
  }
}

TEST(CMinHashScheme, EstimatesConvergeLikeUniversal) {
  // Jaccard-estimate parity: on controlled-overlap sets the C-MinHash
  // estimator must track exact Jaccard within the same binomial envelope as
  // the universal family (Table III/IV-style quality gate).
  const std::size_t num_hashes = 200;
  const MinHasher hasher({.kmer = 5,
                          .num_hashes = num_hashes,
                          .seed = 11,
                          .scheme = SketchScheme::kCMinHash});
  common::Xoshiro256 rng(300);
  for (const double target : {0.2, 0.5, 0.8}) {
    auto [a, b] = sets_with_jaccard(target, 400, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const double exact = bio::exact_jaccard(a, b);
    const double estimate = component_match_similarity(
        hasher.sketch_features(a), hasher.sketch_features(b));
    const double sigma =
        std::sqrt(exact * (1 - exact) / static_cast<double>(num_hashes));
    EXPECT_NEAR(estimate, exact, 4 * sigma + 0.02) << "target=" << target;
  }
}

TEST(SketchScheme, NamesAreStable) {
  EXPECT_STREQ(sketch_scheme_name(SketchScheme::kUniversal), "universal");
  EXPECT_STREQ(sketch_scheme_name(SketchScheme::kCMinHash), "cminhash");
}

// --------------------------------------------------------- b-bit arithmetic

TEST(BBitCorrection, CollisionFloorAndCorrectedSimilarity) {
  EXPECT_DOUBLE_EQ(bbit_collision_floor(1), 0.5);
  EXPECT_DOUBLE_EQ(bbit_collision_floor(8), 1.0 / 256.0);
  EXPECT_DOUBLE_EQ(bbit_collision_floor(64), 0.0);

  // m/K at the chance floor corrects to 0; at 1 corrects to 1.
  EXPECT_DOUBLE_EQ(corrected_match_similarity(128, 256, 1), 0.0);
  EXPECT_DOUBLE_EQ(corrected_match_similarity(256, 256, 1), 1.0);
  EXPECT_DOUBLE_EQ(corrected_match_similarity(100, 100, 8), 1.0);
  // Below the floor clamps to 0 rather than going negative.
  EXPECT_DOUBLE_EQ(corrected_match_similarity(0, 256, 1), 0.0);
  // b=64 is the uncorrected estimator.
  EXPECT_DOUBLE_EQ(corrected_match_similarity(32, 64, 64), 0.5);
}

TEST(BBitCorrection, ThresholdAdjustmentIsDecisionIdentical) {
  // corrected(m/K) >= θ  <=>  m/K >= θ' with θ' = θ(1-C) + C: the affine
  // map the pipeline folds into its threshold instead of correcting every
  // estimate.
  for (const std::size_t bits : {1u, 2u, 4u, 8u, 16u}) {
    for (const double theta : {0.3, 0.5, 0.9}) {
      const double adjusted = bbit_adjusted_threshold(theta, bits);
      for (std::size_t m = 0; m <= 64; ++m) {
        const double raw = static_cast<double>(m) / 64.0;
        const bool corrected_pass =
            corrected_match_similarity(m, 64, bits) >= theta;
        const bool adjusted_pass = raw >= adjusted;
        EXPECT_EQ(corrected_pass, adjusted_pass)
            << "bits=" << bits << " theta=" << theta << " m=" << m;
      }
    }
  }
  // b=64: no-op.
  EXPECT_DOUBLE_EQ(bbit_adjusted_threshold(0.9, 64), 0.9);
}

TEST(BBitCorrection, SetBasedThresholdTransformKeepsTheMatchDecision) {
  // With m shared minima out of K per sketch, the set-based estimate is
  // m / (2K - m): thresholding it at θ must equal thresholding the match
  // fraction m/K at 2θ/(1+θ).  This is the transform the pipeline applies
  // when b-bit truncation forces a set-based estimator onto the
  // component-match scale.
  EXPECT_DOUBLE_EQ(set_based_equivalent_threshold(0.0), 0.0);
  EXPECT_DOUBLE_EQ(set_based_equivalent_threshold(1.0), 1.0);
  EXPECT_DOUBLE_EQ(set_based_equivalent_threshold(1.0 / 3.0), 0.5);
  for (const std::size_t K : {16u, 64u, 100u}) {
    for (const double theta : {0.1, 0.34, 0.5, 0.9}) {
      const double equivalent = set_based_equivalent_threshold(theta);
      for (std::size_t m = 0; m <= K; ++m) {
        const double set_based = static_cast<double>(m) /
                                 static_cast<double>(2 * K - m);
        const bool set_pass = set_based >= theta;
        const bool match_pass =
            static_cast<double>(m) / static_cast<double>(K) >= equivalent;
        EXPECT_EQ(set_pass, match_pass)
            << "K=" << K << " theta=" << theta << " m=" << m;
      }
    }
  }
}

TEST(SortedSketchStore, JaccardCountsRebuildTheExactDouble) {
  common::Xoshiro256 rng(55);
  std::vector<Sketch> sketches;
  for (int i = 0; i < 6; ++i) {
    Sketch s(40);
    for (auto& v : s) v = rng.bounded(64);  // plenty of duplicates
    sketches.push_back(std::move(s));
  }
  const SortedSketchStore store(kernels::SketchMatrix::from_sketches(sketches));
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    for (std::size_t j = i; j < sketches.size(); ++j) {
      const auto [inter, uni] = store.jaccard_counts(i, j);
      EXPECT_DOUBLE_EQ(jaccard_from_counts(inter, uni), store.jaccard(i, j));
    }
  }
  EXPECT_DOUBLE_EQ(jaccard_from_counts(0, 0), 1.0);  // both-empty convention
}

}  // namespace
}  // namespace mrmc::core
