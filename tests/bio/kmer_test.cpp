#include "bio/kmer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "bio/dna.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"

namespace mrmc::bio {
namespace {

TEST(KmerSpaceSize, PowersOfFour) {
  EXPECT_EQ(kmer_space_size(1), 4u);
  EXPECT_EQ(kmer_space_size(5), 1024u);
  EXPECT_EQ(kmer_space_size(15), 1073741824u);
}

TEST(ExtractKmers, SimpleSequence) {
  // "ACGT" with k=2 -> AC(0b0001=1), CG(0b0110=6), GT(0b1011=11)
  const auto kmers = extract_kmers("ACGT", {.k = 2});
  EXPECT_EQ(kmers, (std::vector<std::uint64_t>{1, 6, 11}));
}

TEST(ExtractKmers, CountMatchesLength) {
  const auto kmers = extract_kmers("ACGTACGTAC", {.k = 3});
  EXPECT_EQ(kmers.size(), 8u);
}

TEST(ExtractKmers, ShortSequenceYieldsNothing) {
  EXPECT_TRUE(extract_kmers("AC", {.k = 3}).empty());
  EXPECT_TRUE(extract_kmers("", {.k = 3}).empty());
}

TEST(ExtractKmers, ExactLengthYieldsOne) {
  const auto kmers = extract_kmers("ACG", {.k = 3});
  ASSERT_EQ(kmers.size(), 1u);
  EXPECT_EQ(decode_kmer(kmers[0], 3), "ACG");
}

TEST(ExtractKmers, AmbiguousBaseRestartsWindow) {
  // "ACNGT" with k=2: AC before N; after N only GT.
  const auto kmers = extract_kmers("ACNGT", {.k = 2});
  EXPECT_EQ(kmers.size(), 2u);
  EXPECT_EQ(decode_kmer(kmers[0], 2), "AC");
  EXPECT_EQ(decode_kmer(kmers[1], 2), "GT");
}

TEST(ExtractKmers, AllAmbiguousYieldsNothing) {
  EXPECT_TRUE(extract_kmers("NNNNNN", {.k = 2}).empty());
}

TEST(ExtractKmers, RejectsBadK) {
  EXPECT_THROW(extract_kmers("ACGT", {.k = 0}), common::InvalidArgument);
  EXPECT_THROW(extract_kmers("ACGT", {.k = 32}), common::InvalidArgument);
}

TEST(ExtractKmers, CanonicalPicksLexicographicMin) {
  // "TT" -> revcomp "AA" (0) < "TT" (15).
  const auto kmers = extract_kmers("TT", {.k = 2, .canonical = true});
  ASSERT_EQ(kmers.size(), 1u);
  EXPECT_EQ(decode_kmer(kmers[0], 2), "AA");
}

TEST(ExtractKmers, CanonicalMakesStrandsEquivalent) {
  const std::string seq = "ACGGTTACGATCGATCGAAGT";
  auto fwd = extract_kmers(seq, {.k = 5, .canonical = true});
  auto rev = extract_kmers(reverse_complement(seq), {.k = 5, .canonical = true});
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  EXPECT_EQ(fwd, rev);
}

TEST(KmerSet, SortedAndUnique) {
  const auto set = kmer_set("AAAAAA", {.k = 3});
  EXPECT_EQ(set, (std::vector<std::uint64_t>{0}));  // only AAA
  const auto set2 = kmer_set("ACGTACGT", {.k = 2});
  EXPECT_TRUE(std::is_sorted(set2.begin(), set2.end()));
  EXPECT_EQ(std::adjacent_find(set2.begin(), set2.end()), set2.end());
}

TEST(RevcompKmer, KnownValueAndInvolution) {
  // AC (0b0001) revcomp -> GT (0b1011).
  EXPECT_EQ(revcomp_kmer(1, 2), 11u);
  common::Xoshiro256 rng(4);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t kmer = rng.bounded(kmer_space_size(7));
    EXPECT_EQ(revcomp_kmer(revcomp_kmer(kmer, 7), 7), kmer);
  }
}

TEST(DecodeKmer, MatchesEncode) {
  const std::string word = "ACGTTGCA";
  const auto kmers = extract_kmers(word, {.k = 8});
  ASSERT_EQ(kmers.size(), 1u);
  EXPECT_EQ(decode_kmer(kmers[0], 8), word);
}

// ------------------------------------------------------------ exact_jaccard

TEST(ExactJaccard, IdenticalSetsAreOne) {
  const std::vector<std::uint64_t> a{1, 2, 3};
  EXPECT_DOUBLE_EQ(exact_jaccard(a, a), 1.0);
}

TEST(ExactJaccard, DisjointSetsAreZero) {
  const std::vector<std::uint64_t> a{1, 2};
  const std::vector<std::uint64_t> b{3, 4};
  EXPECT_DOUBLE_EQ(exact_jaccard(a, b), 0.0);
}

TEST(ExactJaccard, PartialOverlap) {
  // {1,2,3} vs {2,3,4}: |∩|=2, |∪|=4.
  const std::vector<std::uint64_t> a{1, 2, 3};
  const std::vector<std::uint64_t> b{2, 3, 4};
  EXPECT_DOUBLE_EQ(exact_jaccard(a, b), 0.5);
}

TEST(ExactJaccard, EmptySets) {
  const std::vector<std::uint64_t> one{1};
  const std::vector<std::uint64_t> empty;
  EXPECT_DOUBLE_EQ(exact_jaccard(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(exact_jaccard(one, empty), 0.0);
}

TEST(ExactJaccard, IsSymmetric) {
  const std::vector<std::uint64_t> a{1, 5, 9, 12};
  const std::vector<std::uint64_t> b{5, 9, 30};
  EXPECT_DOUBLE_EQ(exact_jaccard(a, b), exact_jaccard(b, a));
}

TEST(IntersectionSize, MatchesSetIntersectionOnRandomSets) {
  common::Xoshiro256 rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    for (std::uint64_t n = rng.bounded(40); n > 0; --n) a.push_back(rng.bounded(60));
    for (std::uint64_t n = rng.bounded(40); n > 0; --n) b.push_back(rng.bounded(60));
    for (auto* set : {&a, &b}) {
      std::sort(set->begin(), set->end());
      set->erase(std::unique(set->begin(), set->end()), set->end());
    }
    std::vector<std::uint64_t> common;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(common));
    EXPECT_EQ(intersection_size(a, b), common.size());
    EXPECT_EQ(intersection_size(b, a), common.size());
  }
}

// -------------------------------------------------- parameterized properties

class KmerRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(KmerRoundTrip, DecodeEncodeIdentityForRandomWords) {
  const int k = GetParam();
  common::Xoshiro256 rng(1000 + k);
  for (int trial = 0; trial < 20; ++trial) {
    std::string word;
    for (int i = 0; i < k; ++i) {
      word.push_back(decode_base(static_cast<int>(rng.bounded(4))));
    }
    const auto kmers = extract_kmers(word, {.k = k});
    ASSERT_EQ(kmers.size(), 1u);
    EXPECT_EQ(decode_kmer(kmers[0], k), word);
    EXPECT_LT(kmers[0], kmer_space_size(k));
  }
}

INSTANTIATE_TEST_SUITE_P(AllK, KmerRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 15, 21, 31));

}  // namespace
}  // namespace mrmc::bio
