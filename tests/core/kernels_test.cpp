// Scalar-vs-SIMD equivalence suite for core::kernels.
//
// The kernel layer's contract is *bit identity*: the AVX2 path must produce
// exactly the bytes the scalar path produces — same sketches, same match
// counts, same argmin indices — so clustering output and the simulated-clock
// cost model never depend on the host instruction set or thread count.
// These tests enforce that contract directly (kernel by kernel) and
// end-to-end (similarity matrices, dendrograms, pipeline labels).

#include "core/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bio/fasta.hpp"
#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/minhash.hpp"
#include "core/pipeline.hpp"

namespace mrmc::core {
namespace {

using kernels::Backend;

bool avx2_available() { return kernels::backend_available(Backend::kAvx2); }

/// Random ACGT sequence with occasional ambiguous bases.
std::string random_seq(common::Xoshiro256& rng, std::size_t length,
                       double n_rate = 0.0) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string seq;
  seq.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (n_rate > 0.0 && rng.bounded(1000) < static_cast<std::uint64_t>(n_rate * 1000)) {
      seq.push_back('N');
    } else {
      seq.push_back(kBases[rng.bounded(4)]);
    }
  }
  return seq;
}

std::vector<std::uint64_t> random_features(common::Xoshiro256& rng,
                                           std::size_t count) {
  std::vector<std::uint64_t> features(count);
  for (auto& f : features) f = rng();  // full 64-bit range on purpose
  return features;
}

// ------------------------------------------------------------- min_sketch

TEST(MinSketchEquivalence, BitIdenticalAcrossBackendsAndShapes) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  common::Xoshiro256 rng(42);
  const std::uint64_t pow2_mod = std::uint64_t{1} << 30;   // 4^15
  const std::uint64_t odd_mod = (std::uint64_t{1} << 30) - 7;  // non-pow2
  for (const std::size_t num_hashes : {1UL, 3UL, 5UL, 8UL, 100UL, 101UL}) {
    for (const std::uint64_t modulus : {std::uint64_t{0}, pow2_mod, odd_mod}) {
      UniversalHashFamily family(num_hashes, modulus, rng());
      for (const std::size_t n_features : {1UL, 2UL, 7UL, 64UL, 257UL}) {
        const auto features = random_features(rng, n_features);
        std::vector<std::uint64_t> scalar(num_hashes);
        std::vector<std::uint64_t> simd(num_hashes);
        kernels::min_sketch(family.multipliers(), family.offsets(), modulus,
                            features, scalar, Backend::kScalar);
        kernels::min_sketch(family.multipliers(), family.offsets(), modulus,
                            features, simd, Backend::kAvx2);
        ASSERT_EQ(scalar, simd)
            << "num_hashes=" << num_hashes << " modulus=" << modulus
            << " n_features=" << n_features;
      }
    }
  }
}

TEST(MinSketchEquivalence, MatchesDirectHashFamilyEvaluation) {
  common::Xoshiro256 rng(7);
  const std::uint64_t pow2_mod = std::uint64_t{1} << 10;  // 4^5
  for (const std::uint64_t modulus : {std::uint64_t{0}, pow2_mod,
                                      std::uint64_t{999983}}) {
    UniversalHashFamily family(13, modulus, 99);
    const auto features = random_features(rng, 100);
    std::vector<std::uint64_t> out(family.size());
    kernels::min_sketch(family.multipliers(), family.offsets(), modulus,
                        features, out, Backend::kScalar);
    for (std::size_t i = 0; i < family.size(); ++i) {
      std::uint64_t expected = std::numeric_limits<std::uint64_t>::max();
      for (const std::uint64_t x : features) {
        expected = std::min(expected, family.hash(i, x));
      }
      EXPECT_EQ(out[i], expected) << "hash " << i << " modulus " << modulus;
    }
  }
}

TEST(MinSketchEquivalence, EmptyFeatureSetFillsSentinel) {
  UniversalHashFamily family(5, 0, 1);
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    std::vector<std::uint64_t> out(5, 123);
    kernels::min_sketch(family.multipliers(), family.offsets(), 0, {}, out,
                        backend);
    for (const std::uint64_t v : out) EXPECT_EQ(v, kernels::kEmptyFeatureMin);
  }
}

TEST(MinSketchEquivalence, SketcherEquivalentAcrossKmerAndCanonical) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  common::Xoshiro256 rng(2026);
  for (const int k : {1, 5, 15, 31}) {
    for (const bool canonical : {false, true}) {
      MinHashParams params;
      params.kmer = k;
      params.canonical = canonical;
      params.num_hashes = 33;  // not a multiple of the AVX2 lane count
      params.seed = static_cast<std::uint64_t>(k) * 2 + canonical;
      const MinHasher hasher(params);
      for (int rep = 0; rep < 8; ++rep) {
        // Mix of short (< k), ambiguous-laden and normal reads.
        const std::size_t length = rep == 0 ? static_cast<std::size_t>(k) / 2
                                            : 20 + rng.bounded(180);
        const std::string seq = random_seq(rng, length, rep % 3 == 0 ? 0.1 : 0.0);
        // sketch() ranks k <= 6 reads without the kernels, so the feature
        // set goes through sketch_features too.
        const std::vector<std::uint64_t> features =
            bio::kmer_set(seq, {.k = k, .canonical = canonical});
        Sketch scalar, simd, scalar_features, simd_features;
        {
          kernels::ScopedBackendOverride force(Backend::kScalar);
          scalar = hasher.sketch(seq);
          scalar_features = hasher.sketch_features(features);
        }
        {
          kernels::ScopedBackendOverride force(Backend::kAvx2);
          simd = hasher.sketch(seq);
          simd_features = hasher.sketch_features(features);
        }
        ASSERT_EQ(scalar, simd) << "k=" << k << " canonical=" << canonical;
        ASSERT_EQ(scalar_features, simd_features)
            << "k=" << k << " canonical=" << canonical;
        ASSERT_EQ(scalar, scalar_features)
            << "k=" << k << " canonical=" << canonical;
      }
    }
  }
}

TEST(MinSketchEquivalence, EmptyReadSketchIsSentinel) {
  const MinHasher hasher({.kmer = 15, .num_hashes = 9});
  const std::vector<std::string> seqs = {"", "ACGT", "NNNNNNNNNNNNNNNNNNNN"};
  for (const std::string& seq : seqs) {
    const Sketch sketch = hasher.sketch(seq);
    ASSERT_EQ(sketch.size(), 9U);
    for (const std::uint64_t v : sketch) EXPECT_EQ(v, kEmptyMin);
  }
}

// ------------------------------------------------------------ k-mer stream
//
// The sketcher hashes bio::kmer_stream_into's filtered stream instead of
// the sorted set.  That is only safe under the stream's contract (every
// distinct k-mer at least once, nothing else), checked here directly, and
// end to end as byte-identical sketches.

/// Reads that stress the rolling encoder and the repeat filter: reads
/// shorter than k, all-N, N runs, homopolymers (every window hits one filter
/// slot), dinucleotide repeats and long random reads (thousands of windows
/// over 4096 slots).
std::vector<std::string> stream_corpus(int k, common::Xoshiro256& rng) {
  std::vector<std::string> reads = {
      "",
      std::string(static_cast<std::size_t>(k) - 1, 'A'),
      std::string(static_cast<std::size_t>(k), 'C'),
      std::string(50, 'N'),
      std::string(300, 'A'),
      std::string(300, 'T'),
      std::string(120, 'G') + std::string(5, 'N') + std::string(120, 'C'),
      "acgtNNNNacgtacgt",
  };
  std::string dinucleotide;
  for (int i = 0; i < 200; ++i) dinucleotide += "AC";
  reads.push_back(dinucleotide);
  for (const std::size_t length : {std::size_t{40}, std::size_t{600},
                                   std::size_t{5000}}) {
    reads.push_back(random_seq(rng, length));
    reads.push_back(random_seq(rng, length, 0.05));
  }
  return reads;
}

TEST(KmerStream, SortUniqueOfStreamIsTheKmerSet) {
  common::Xoshiro256 rng(1301);
  std::vector<std::uint64_t> stream;
  for (const int k : {1, 5, 12, 31}) {
    for (const bool canonical : {false, true}) {
      const bio::KmerParams params{.k = k, .canonical = canonical};
      // One thread, read after read: a slot left over from an earlier read
      // would drop a k-mer here.
      for (const std::string& read : stream_corpus(k, rng)) {
        bio::kmer_stream_into(read, params, stream);
        std::sort(stream.begin(), stream.end());
        stream.erase(std::unique(stream.begin(), stream.end()), stream.end());
        ASSERT_EQ(stream, bio::kmer_set(read, params))
            << "k=" << k << " canonical=" << canonical
            << " length=" << read.size();
      }
    }
  }
}

TEST(KmerStream, HomopolymerEmitsItsOneKmerOnce) {
  std::vector<std::uint64_t> stream;
  bio::kmer_stream_into(std::string(600, 'A'), {.k = 5}, stream);
  EXPECT_EQ(stream, (std::vector<std::uint64_t>{0}));
  bio::kmer_stream_into(std::string(600, 'T'), {.k = 5, .canonical = true},
                        stream);
  EXPECT_EQ(stream, (std::vector<std::uint64_t>{0}));  // TTTTT -> AAAAA
  bio::kmer_stream_into("ACG", {.k = 5}, stream);
  EXPECT_TRUE(stream.empty());
  EXPECT_THROW(bio::kmer_stream_into("ACGT", {.k = 0}, stream),
               common::InvalidArgument);
  EXPECT_THROW(bio::kmer_stream_into("ACGT", {.k = 32}, stream),
               common::InvalidArgument);
}

TEST(KmerStream, RollingReverseComplementMatchesRevcompKmer) {
  common::Xoshiro256 rng(1302);
  for (const int k : {1, 2, 5, 12, 30, 31}) {
    std::size_t windows = 0;
    for (const std::string& read : stream_corpus(k, rng)) {
      bio::for_each_kmer(read, k, [&](std::uint64_t forward, std::uint64_t reverse) {
        ++windows;
        ASSERT_EQ(reverse, bio::revcomp_kmer(forward, k))
            << "k=" << k << " window " << bio::decode_kmer(forward, k);
      });
    }
    EXPECT_GT(windows, 0U) << "k=" << k;
  }
}

TEST(KmerStream, SketchesEqualSketchesOfTheKmerSet) {
  common::Xoshiro256 rng(1303);
  common::ThreadPool pool(3);
  std::vector<Backend> backends = {Backend::kScalar};
  if (avx2_available()) backends.push_back(Backend::kAvx2);
  for (const int k : {5, 12}) {
    std::vector<std::string> reads = stream_corpus(k, rng);
    for (int i = 0; i < 24; ++i) reads.push_back(random_seq(rng, 600, 0.01));
    const std::vector<std::string_view> views(reads.begin(), reads.end());
    for (const SketchScheme scheme :
         {SketchScheme::kUniversal, SketchScheme::kCMinHash}) {
      for (const std::uint64_t modulus :
           {std::uint64_t{0}, bio::kmer_space_size(k)}) {
        const MinHasher hasher({.kmer = k,
                                .num_hashes = 37,
                                .canonical = true,
                                .seed = 11,
                                .modulus = modulus,
                                .scheme = scheme});
        for (const Backend backend : backends) {
          kernels::ScopedBackendOverride force(backend);
          std::vector<Sketch> reference;
          for (const std::string& read : reads) {
            reference.push_back(hasher.sketch_features(
                bio::kmer_set(read, {.k = k, .canonical = true})));
          }
          const auto expected = kernels::SketchMatrix::from_sketches(reference);
          EXPECT_EQ(hasher.widen(hasher.sketch_matrix(views)), expected);
          EXPECT_EQ(hasher.widen(hasher.sketch_matrix(views, &pool)), expected);
          for (std::size_t i = 0; i < reads.size(); ++i) {
            ASSERT_EQ(hasher.sketch(reads[i]), reference[i])
                << "k=" << k << " scheme=" << sketch_scheme_name(scheme)
                << " modulus=" << modulus
                << " backend=" << kernels::backend_name(backend);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ ranked lookup
//
// For k <= 6 MinHasher::sketch and sketch_matrix read each slot off a
// per-hash ranking of the k-mer universe instead of hashing the read; reads
// with few distinct k-mers (d² < F) still go to the kernels.  Both must give
// the bytes the kernels give for the read's k-mer set.  k = 7 is past the
// ranked bound and checks the kernel path is unchanged.

/// Features the ranked path ranks: 4^k, or the canonical codes alone.
std::size_t ranked_universe(int k, bool canonical) {
  std::size_t features = 0;
  for (std::uint64_t x = 0; x < bio::kmer_space_size(k); ++x) {
    features += !canonical || x <= bio::revcomp_kmer(x, k);
  }
  return features;
}

TEST(RankedSketch, EqualsKernelSketchOfTheKmerSet) {
  common::Xoshiro256 rng(1304);
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  for (int k = 1; k <= 7; ++k) {
    const auto width = static_cast<std::size_t>(k);
    std::string dinucleotide;
    for (int i = 0; i < 150; ++i) dinucleotide += "GT";
    std::vector<std::string> reads = {
        "",
        std::string(width - 1, 'A'),
        std::string(40, 'N'),
        // N-split: windows restart after every N.
        random_seq(rng, width) + "N" + random_seq(rng, width + 1) + "NN" +
            random_seq(rng, 3 * width),
        std::string(500, 'C'),
        dinucleotide,
        random_seq(rng, 10'000),
    };
    for (int i = 0; i < 12; ++i) {
      reads.push_back(random_seq(rng, 30 + rng.bounded(700), i % 3 == 0 ? 0.02 : 0.0));
    }
    const std::vector<std::string_view> views(reads.begin(), reads.end());
    for (const bool canonical : {false, true}) {
      const bio::KmerParams kmer{.k = k, .canonical = canonical};
      const std::size_t universe = ranked_universe(k, canonical);
      if (k >= 2 && k <= 6) {
        // The homopolymer and the repeat take the hashing fallback, the
        // 10 kb read marks the whole universe up to k = 5.
        for (const std::size_t edge : {4, 5}) {
          const std::size_t d = bio::kmer_set(reads[edge], kmer).size();
          EXPECT_LT(d * d, universe) << "k=" << k << " read " << edge;
        }
        if (k <= 5) {
          EXPECT_EQ(bio::kmer_set(reads[6], kmer).size(), universe);
        }
      }
      for (const SketchScheme scheme :
           {SketchScheme::kUniversal, SketchScheme::kCMinHash}) {
        for (const std::uint64_t modulus :
             {std::uint64_t{0}, bio::kmer_space_size(k)}) {
          const MinHasher hasher({.kmer = k,
                                  .num_hashes = 29,
                                  .canonical = canonical,
                                  .seed = 40 + static_cast<std::uint64_t>(k),
                                  .modulus = modulus,
                                  .scheme = scheme});
          std::vector<Sketch> reference;
          for (const std::string& read : reads) {
            reference.push_back(hasher.sketch_features(bio::kmer_set(read, kmer)));
          }
          const auto expected = kernels::SketchMatrix::from_sketches(reference);
          for (std::size_t i = 0; i < reads.size(); ++i) {
            ASSERT_EQ(hasher.sketch(reads[i]), reference[i])
                << "k=" << k << " canonical=" << canonical
                << " scheme=" << sketch_scheme_name(scheme)
                << " modulus=" << modulus << " read " << i;
          }
          // A table of codes widens to the values of the same reads.
          for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                        &one, &four}) {
            const auto table = hasher.sketch_matrix(views, p);
            EXPECT_EQ(table.slot_disjoint(), hasher.writes_codes()) << "k=" << k;
            EXPECT_EQ(hasher.widen(table, p), expected) << "k=" << k;
          }
        }
      }
    }
  }
}

// ------------------------------------------------- slot-disjoint sketches
//
// A MinHasher writes its tables as 16-bit argmin codes, stamped
// slot-disjoint, when its k <= 6 table h_i(code) has no repeated value and
// no kEmptyMin.  SketchPairSimilarity then scores set-based pairs from
// count_equal over the codes; the counts must be the store's over the
// widened values.

TEST(SlotDisjointStamp, HoldsAtFullRangeAndIsAbsentWhereTheModulusForcesACollision) {
  EXPECT_FALSE(kernels::SketchMatrix().slot_disjoint());
  EXPECT_FALSE(kernels::SketchMatrix(3, 4).slot_disjoint());
  constexpr std::size_t kHashes = 29;
  const std::vector<std::string_view> reads = {"ACGTACGTTGCA", "", "GGGCCCATAT"};
  for (int k = 1; k <= 7; ++k) {
    for (const bool canonical : {false, true}) {
      const std::size_t features = ranked_universe(k, canonical);
      for (const SketchScheme scheme :
           {SketchScheme::kUniversal, SketchScheme::kCMinHash}) {
        const std::string where = "k=" + std::to_string(k) +
                                  " canonical=" + std::to_string(canonical) +
                                  " scheme=" + sketch_scheme_name(scheme);
        const MinHashParams params{.kmer = k,
                                   .num_hashes = kHashes,
                                   .canonical = canonical,
                                   .seed = 70 + static_cast<std::uint64_t>(k),
                                   .scheme = scheme};
        // k = 7 is never tabulated, so it is never stamped.
        const auto table = MinHasher(params).sketch_matrix(reads);
        EXPECT_EQ(table.slot_disjoint(), k <= 6) << where;
        // m = 4^k: K · F values in [0, m) must collide.
        auto literal = params;
        literal.modulus = bio::kmer_space_size(k);
        ASSERT_GT(kHashes * features, literal.modulus) << where;
        EXPECT_FALSE(MinHasher(literal).sketch_matrix(reads).slot_disjoint()) << where;
      }
    }
  }
}

TEST(SlotDisjointStamp, CopyAndMoveKeepItAndWideningDropsIt) {
  const MinHasher hasher({.kmer = 4, .num_hashes = 16, .seed = 3});
  const std::vector<std::string_view> reads = {"ACGTTGCAAGGT", "TTTTACGA", ""};
  const kernels::SketchMatrix stamped = hasher.sketch_matrix(reads);
  ASSERT_TRUE(stamped.slot_disjoint());

  kernels::SketchMatrix copied = stamped;
  EXPECT_TRUE(copied.slot_disjoint());
  EXPECT_EQ(copied, stamped);
  kernels::SketchMatrix assigned;
  assigned = copied;
  EXPECT_TRUE(assigned.slot_disjoint());
  const kernels::SketchMatrix moved = std::move(copied);
  EXPECT_TRUE(moved.slot_disjoint());
  kernels::SketchMatrix move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_TRUE(move_assigned.slot_disjoint());
  const kernels::SketchMatrix head = stamped.head(2);
  EXPECT_TRUE(head.slot_disjoint());
  ASSERT_EQ(head.rows(), 2U);
  EXPECT_TRUE(std::ranges::equal(head.row<std::uint16_t>(1),
                                 stamped.row<std::uint16_t>(1)));

  // Widening gives the values sketch() gives, unstamped; a table of values
  // widens to itself.  Only values can be truncated.
  const kernels::SketchMatrix wide = hasher.widen(stamped);
  EXPECT_FALSE(wide.slot_disjoint());
  EXPECT_NE(wide, stamped);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(wide.row(i), hasher.sketch(reads[i]))) << i;
  }
  EXPECT_EQ(wide.row(2).front(), kEmptyMin);
  EXPECT_EQ(stamped.row<std::uint16_t>(2).front(), kernels::kEmptyFeatureCode);
  EXPECT_EQ(hasher.widen(wide), wide);
  kernels::SketchMatrix masked = stamped;
  EXPECT_THROW(kernels::mask_components(masked, sketch_bits_mask(8)),
               common::InvalidArgument);
  masked = wide;
  kernels::mask_components(masked, sketch_bits_mask(64));
  EXPECT_EQ(masked, wide);
  kernels::mask_components(masked, sketch_bits_mask(8));
  EXPECT_NE(masked, wide);
}

TEST(SlotDisjointStamp, OnlyTheWritingHasherMakesAndWidensCodeTables) {
  const MinHasher hasher({.kmer = 3, .num_hashes = 5, .seed = 2});
  const std::vector<std::string_view> reads = {"ACGTTGCAAGGT", "", "CCCAT"};
  const kernels::SketchMatrix sketched = hasher.sketch_matrix(reads);
  ASSERT_TRUE(sketched.slot_disjoint());

  // A table the hasher's codes are written into, as the MR sketch job or a
  // decoder builds it.
  kernels::SketchMatrix written = hasher.table_for_overwrite(reads.size());
  ASSERT_TRUE(written.slot_disjoint());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    hasher.sketch_into(reads[i], written.row<std::uint16_t>(i));
  }
  EXPECT_EQ(written, sketched);

  // A hasher of another sketch length, or one whose table check fails,
  // cannot widen these codes; the latter writes no codes at all.
  EXPECT_THROW((void)MinHasher({.kmer = 3, .num_hashes = 6, .seed = 2}).widen(sketched),
               common::InvalidArgument);
  const MinHasher literal(
      {.kmer = 3, .num_hashes = 5, .seed = 2, .modulus = bio::kmer_space_size(3)});
  EXPECT_FALSE(literal.writes_codes());
  EXPECT_FALSE(literal.table_for_overwrite(2).slot_disjoint());
  EXPECT_THROW((void)literal.widen(sketched), common::InvalidArgument);
  std::vector<std::uint16_t> codes(5);
  EXPECT_THROW(literal.sketch_into(reads[0], codes), common::InvalidArgument);
  EXPECT_THROW(SortedSketchStore{sketched}, common::InvalidArgument);
}

TEST(SlotDisjointStamp, RowsAreReadOnlyInTheTablesCellWidth) {
  // row() of the wrong cell type is refused, not a span over the other
  // width's (empty) cells: the default 64-bit row() on a table of codes,
  // and 16-bit rows of a table of values.
  const MinHasher hasher({.kmer = 3, .num_hashes = 5, .seed = 2});
  const std::vector<std::string_view> reads = {"ACGTTGCAAGGT", "CCCAT"};
  kernels::SketchMatrix codes = hasher.sketch_matrix(reads);
  ASSERT_TRUE(codes.slot_disjoint());
  const kernels::SketchMatrix& const_codes = codes;
  EXPECT_THROW((void)codes.row(0), common::InvalidArgument);
  EXPECT_THROW((void)const_codes.row(1), common::InvalidArgument);
  EXPECT_EQ(codes.row<std::uint16_t>(1).size(), 5U);

  kernels::SketchMatrix values = hasher.widen(codes);
  const kernels::SketchMatrix& const_values = values;
  EXPECT_THROW((void)values.row<std::uint16_t>(0), common::InvalidArgument);
  EXPECT_THROW((void)const_values.row<std::uint16_t>(1), common::InvalidArgument);
  EXPECT_EQ(const_values.row(1).size(), 5U);
}

TEST(SlotDisjointStamp, StampedCountsEqualUnstampedOnEveryPair) {
  common::Xoshiro256 rng(2718);
  common::ThreadPool pool(3);
  for (int k = 1; k <= 6; ++k) {
    const auto width = static_cast<std::size_t>(k);
    const std::string base = random_seq(rng, 400);
    std::string mutated = base;
    for (int m = 0; m < 6; ++m) mutated[rng.bounded(mutated.size())] = 'A';
    std::string dinucleotide;
    for (int i = 0; i < 100; ++i) dinucleotide += "GT";
    std::vector<std::string> reads = {
        // Empty sketches: no read, shorter than k, all N.
        "", std::string(width - 1, 'C'), std::string(30, 'N'),
        // The hashing fallback (d² < F) from k = 2 on.
        std::string(300, 'A'), dinucleotide,
        // Marks the whole universe up to k = 5.
        random_seq(rng, 10'000),
        // Identical and near-identical sketches.
        base, base, mutated,
    };
    for (int i = 0; i < 10; ++i) {
      reads.push_back(random_seq(rng, 20 + rng.bounded(500), i % 4 == 0 ? 0.02 : 0.0));
    }
    const std::vector<std::string_view> views(reads.begin(), reads.end());
    for (const bool canonical : {false, true}) {
      for (const SketchScheme scheme :
           {SketchScheme::kUniversal, SketchScheme::kCMinHash}) {
        const MinHasher hasher({.kmer = k,
                                .num_hashes = 40,
                                .canonical = canonical,
                                .seed = 90 + static_cast<std::uint64_t>(k),
                                .scheme = scheme});
        const auto stamped_table = hasher.sketch_matrix(views);
        ASSERT_TRUE(stamped_table.slot_disjoint());
        const auto plain_table = hasher.widen(stamped_table, &pool);
        const SortedSketchStore store(plain_table);
        const SketchPairSimilarity unstamped(plain_table, SketchEstimator::kSetBased,
                                             &pool);
        const SketchPairSimilarity stamped(stamped_table, SketchEstimator::kSetBased);
        for (std::size_t i = 0; i < reads.size(); ++i) {
          for (std::size_t j = 0; j < reads.size(); ++j) {
            const auto [inter, uni] = store.jaccard_counts(i, j);
            const SketchPairSimilarity::Counts counts =
                stamped.counts<std::uint16_t>(i, j);
            const SketchPairSimilarity::Counts reference =
                unstamped.counts<std::uint64_t>(i, j);
            ASSERT_EQ(counts.shared, inter)
                << "k=" << k << " canonical=" << canonical
                << " scheme=" << sketch_scheme_name(scheme) << " pair " << i
                << "," << j;
            ASSERT_EQ(counts.unions, uni) << "k=" << k << " pair " << i << "," << j;
            ASSERT_EQ(reference.shared, inter) << "k=" << k << " pair " << i << "," << j;
            ASSERT_EQ(reference.unions, uni) << "k=" << k << " pair " << i << "," << j;
            ASSERT_EQ(stamped(i, j), unstamped(i, j));
            ASSERT_EQ(stamped(i, j), store.jaccard(i, j));
          }
        }
      }
    }
  }
}

TEST(SlotDisjointStamp, UnstampedScorerCountsCrossSlotCoincidences) {
  // 2 sits in slot 1 of row 0 and slot 0 of row 1: no slot matches, but
  // the two sets share it.  A hand-built table is never stamped.
  kernels::SketchMatrix sketches(2, 4);
  std::ranges::copy(std::vector<std::uint64_t>{1, 2, 3, 4}, sketches.row(0).begin());
  std::ranges::copy(std::vector<std::uint64_t>{2, 9, 8, 7}, sketches.row(1).begin());
  ASSERT_FALSE(sketches.slot_disjoint());
  const SketchPairSimilarity plain(sketches, SketchEstimator::kSetBased);
  EXPECT_EQ(plain.counts<std::uint64_t>(0, 1).shared, 1U);
  EXPECT_EQ(plain.counts<std::uint64_t>(0, 1).unions, 7U);
  EXPECT_EQ(kernels::count_equal(sketches.row(0), sketches.row(1)), 0U);
}

// ------------------------------------------------------------ count_equal

TEST(CountEqualEquivalence, AllLengthsIncludingTails) {
  common::Xoshiro256 rng(5);
  for (std::size_t len = 0; len <= 70; ++len) {
    std::vector<std::uint64_t> a(len), b(len);
    for (std::size_t i = 0; i < len; ++i) {
      a[i] = rng.bounded(4);  // small alphabet -> frequent equality
      b[i] = rng.bounded(4);
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) expected += a[i] == b[i] ? 1 : 0;
    EXPECT_EQ(kernels::count_equal(a, b, Backend::kScalar), expected);
    if (avx2_available()) {
      EXPECT_EQ(kernels::count_equal(a, b, Backend::kAvx2), expected)
          << "len=" << len;
    }
  }
}

TEST(CountEqualEquivalence, HighBitValues) {
  // Values with the top bit set would break a signed comparison scheme.
  const std::vector<std::uint64_t> a{~0ULL, 1ULL << 63, 5, ~0ULL, 9};
  const std::vector<std::uint64_t> b{~0ULL, 1ULL << 63, 6, 0, 9};
  EXPECT_EQ(kernels::count_equal(a, b, Backend::kScalar), 3U);
  if (avx2_available()) {
    EXPECT_EQ(kernels::count_equal(a, b, Backend::kAvx2), 3U);
  }
}

TEST(CountEqualEquivalence, CodesAtAllLengthsIncludingTails) {
  common::Xoshiro256 rng(7);
  for (std::size_t len = 0; len <= 100; ++len) {
    std::vector<std::uint16_t> a(len), b(len);
    for (std::size_t i = 0; i < len; ++i) {
      // A small alphabet with the empty sentinel: frequent equality.
      a[i] = rng.bounded(4) == 0 ? kernels::kEmptyFeatureCode
                                 : static_cast<std::uint16_t>(rng.bounded(3));
      b[i] = rng.bounded(4) == 0 ? kernels::kEmptyFeatureCode
                                 : static_cast<std::uint16_t>(rng.bounded(3));
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) expected += a[i] == b[i] ? 1 : 0;
    EXPECT_EQ(kernels::count_equal(std::span<const std::uint16_t>(a), b,
                                   Backend::kScalar),
              expected);
    if (avx2_available()) {
      EXPECT_EQ(kernels::count_equal(std::span<const std::uint16_t>(a), b,
                                     Backend::kAvx2),
                expected)
          << "len=" << len;
    }
  }
}

TEST(CodeKernels, TileKernelOnCodesEqualsItOnTheValues) {
  // k = 1: four codes, so slots match often; K = 40 leaves an 8-code tail
  // after the 16-lane compares.  Short reads take the d² < F fallback.
  common::Xoshiro256 rng(43);
  std::vector<std::string> reads;
  for (int i = 0; i < 150; ++i) reads.push_back(random_seq(rng, 1 + rng.bounded(12)));
  const std::vector<std::string_view> views(reads.begin(), reads.end());
  const MinHasher hasher({.kmer = 1, .num_hashes = 40, .seed = 4});
  const kernels::SketchMatrix codes = hasher.sketch_matrix(views);
  ASSERT_TRUE(codes.slot_disjoint());
  const kernels::SketchMatrix values = hasher.widen(codes);
  const std::size_t n = reads.size();
  std::vector<double> expected(n * n);
  kernels::component_match_matrix(values, expected.data(), n, Backend::kScalar);
  common::ThreadPool pool(4);
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      std::vector<double> out(n * n, std::numeric_limits<double>::quiet_NaN());
      kernels::component_match_matrix(codes, out.data(), n, backend, p);
      for (std::size_t cell = 0; cell < n * n; ++cell) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[cell]),
                  std::bit_cast<std::uint64_t>(expected[cell]))
            << "backend=" << kernels::backend_name(backend)
            << " pooled=" << (p != nullptr) << " cell " << cell / n << ","
            << cell % n;
      }
    }
  }
  // The per-pair scorers agree with the tile on both widths.
  for (const SketchEstimator estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const SketchPairSimilarity on_codes(codes, estimator);
    const SketchPairSimilarity on_values(values, estimator);
    for (std::size_t i = 0; i < n; i += 7) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(on_codes.at<std::uint16_t>(i, j), on_values.at<std::uint64_t>(i, j))
            << i << "," << j;
        ASSERT_EQ(on_codes(i, j), on_values(i, j)) << i << "," << j;
      }
    }
  }
}

TEST(CodeKernels, BandKeyOfCodesMixesTheZeroExtendedCodes) {
  common::Xoshiro256 rng(47);
  for (std::size_t len = 1; len <= 40; ++len) {
    std::vector<std::uint16_t> codes(len);
    for (auto& code : codes) code = static_cast<std::uint16_t>(rng.bounded(4096));
    const std::vector<std::uint64_t> extended(codes.begin(), codes.end());
    for (std::size_t bands = 1; bands <= len; ++bands) {
      if (len % bands != 0) continue;
      const candidates::BandShape shape{bands, len / bands};
      for (std::size_t band = 0; band < bands; ++band) {
        ASSERT_EQ(candidates::band_bucket_key(std::span<const std::uint16_t>(codes),
                                              band, shape, 11),
                  candidates::band_bucket_key(extended, band, shape, 11))
            << "len=" << len << " band=" << band;
      }
    }
  }
}

// ----------------------------------------------------------------- argmin

TEST(ArgminEquivalence, FirstMinimumWins) {
  common::Xoshiro256 rng(11);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t len = 1; len <= 40; ++len) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> row(len);
      for (auto& v : row) {
        // Coarse grid so duplicate minima (ties) are common, plus +inf
        // dead slots like the agglomerator produces.
        v = rng.bounded(8) == 0 ? kInf
                                : static_cast<double>(rng.bounded(6)) / 4.0;
      }
      std::size_t expected = 0;
      for (std::size_t i = 1; i < len; ++i) {
        if (row[i] < row[expected]) expected = i;
      }
      EXPECT_EQ(kernels::argmin(row, Backend::kScalar), expected);
      if (avx2_available()) {
        EXPECT_EQ(kernels::argmin(row, Backend::kAvx2), expected)
            << "len=" << len << " rep=" << rep;
      }
    }
  }
}

TEST(ArgminEquivalence, EmptyAndAllInfRows) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(kernels::argmin({}, Backend::kScalar), 0U);
  const std::vector<double> dead(13, kInf);
  EXPECT_EQ(kernels::argmin(dead, Backend::kScalar), 0U);
  if (avx2_available()) {
    EXPECT_EQ(kernels::argmin(dead, Backend::kAvx2), 0U);
  }
}

// ----------------------------------------------------------- SketchMatrix

TEST(SketchMatrix, RoundTripsThroughSketchVectors) {
  common::Xoshiro256 rng(17);
  std::vector<Sketch> sketches(9, Sketch(21));
  for (auto& sketch : sketches) {
    for (auto& v : sketch) v = rng();
  }
  const auto matrix = kernels::SketchMatrix::from_sketches(sketches);
  EXPECT_EQ(matrix.rows(), 9U);
  EXPECT_EQ(matrix.cols(), 21U);
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    const auto row = matrix.row(i);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), sketches[i].begin()));
  }
}

// ------------------------------------------------------- SortedSketchStore

TEST(SortedSketchStore, MatchesSetBasedSimilarity) {
  common::Xoshiro256 rng(29);
  std::vector<Sketch> sketches(10, Sketch(20));
  for (auto& sketch : sketches) {
    for (auto& v : sketch) v = rng.bounded(12);  // lots of duplicate minima
  }
  const SortedSketchStore store(kernels::SketchMatrix::from_sketches(sketches));
  ASSERT_EQ(store.size(), sketches.size());
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    for (std::size_t j = 0; j < sketches.size(); ++j) {
      EXPECT_DOUBLE_EQ(store.jaccard(i, j),
                       set_based_similarity(sketches[i], sketches[j]));
    }
  }
}

TEST(SketchPairSimilarity, MatchesSketchSimilarityOnEveryPair) {
  common::Xoshiro256 rng(37);
  std::vector<Sketch> sketches(12, Sketch(23));
  for (auto& sketch : sketches) {
    for (auto& v : sketch) v = rng.bounded(16);  // matches and repeats
  }
  const auto matrix = kernels::SketchMatrix::from_sketches(sketches);
  common::ThreadPool pool(3);
  for (const SketchEstimator estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const SketchPairSimilarity serial(matrix, estimator);
    const SketchPairSimilarity pooled(matrix, estimator, &pool);
    for (std::size_t i = 0; i < sketches.size(); ++i) {
      for (std::size_t j = 0; j < sketches.size(); ++j) {
        const double expected =
            sketch_similarity(sketches[i], sketches[j], estimator);
        ASSERT_EQ(serial(i, j), expected) << i << "," << j;
        ASSERT_EQ(pooled(i, j), expected) << i << "," << j;
      }
    }
  }
  const kernels::SketchMatrix empty_rows(2, 0);
  EXPECT_EQ(SketchPairSimilarity(empty_rows, SketchEstimator::kComponentMatch)(0, 1),
            0.0);
}

TEST(SortedSketchStore, PooledMatrixBuildMatchesSerial) {
  common::Xoshiro256 rng(31);
  std::vector<Sketch> sketches(200, Sketch(24));
  for (auto& sketch : sketches) {
    for (auto& v : sketch) v = rng.bounded(30);
  }
  const auto matrix = kernels::SketchMatrix::from_sketches(sketches);
  common::ThreadPool pool(4);
  const SortedSketchStore serial(matrix);
  const SortedSketchStore pooled(matrix, &pool);
  ASSERT_EQ(pooled.size(), sketches.size());
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    const std::set<std::uint64_t> unique(sketches[i].begin(), sketches[i].end());
    const std::vector<std::uint64_t> expected(unique.begin(), unique.end());
    const auto row = pooled.row(i);
    ASSERT_EQ(std::vector<std::uint64_t>(row.begin(), row.end()), expected);
    const auto serial_row = serial.row(i);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), serial_row.begin(),
                           serial_row.end()));
  }
  EXPECT_EQ(SortedSketchStore().size(), 0U);
}

// ------------------------------------------- similarity matrices, end to end

std::vector<bio::FastaRecord> make_reads(std::size_t count, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  // A few underlying templates with point mutations -> non-trivial clusters.
  std::vector<std::string> templates;
  for (int t = 0; t < 3; ++t) templates.push_back(random_seq(rng, 120));
  std::vector<bio::FastaRecord> reads(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string seq = templates[i % templates.size()];
    for (int m = 0; m < 4; ++m) {
      seq[rng.bounded(seq.size())] = "ACGT"[rng.bounded(4)];
    }
    reads[i].id = "r" + std::to_string(i);
    reads[i].seq = std::move(seq);
  }
  return reads;
}

TEST(SimilarityMatrixEquivalence, BackendsAndThreadCountsAgree) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const auto reads = make_reads(70, 31);
  std::vector<std::string_view> views;
  for (const auto& read : reads) views.emplace_back(read.seq);
  const MinHasher hasher({.kmer = 5, .num_hashes = 24, .seed = 8});
  const auto matrix = hasher.sketch_matrix(views);

  for (const SketchEstimator estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    SimilarityMatrix reference;
    {
      kernels::ScopedBackendOverride force(Backend::kScalar);
      reference = pairwise_similarity_matrix(matrix, estimator);
    }
    for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
      kernels::ScopedBackendOverride force(backend);
      common::ThreadPool pool(4);
      for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                    &pool}) {
        const SimilarityMatrix got = pairwise_similarity_matrix(matrix, estimator, p);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          for (std::size_t j = 0; j < got.size(); ++j) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.row(i)[j]),
                      std::bit_cast<std::uint64_t>(reference.row(i)[j]))
                << "backend=" << kernels::backend_name(backend)
                << " pooled=" << (p != nullptr) << " cell " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(SimilarityMatrixEquivalence, CertifiedSetBasedFillEqualsTheStoreFill) {
  auto reads = make_reads(90, 41);
  reads[7].seq = "NNNN";  // an empty sketch
  reads[8].seq = "ACG";   // shorter than k
  std::vector<std::string_view> views;
  for (const auto& read : reads) views.emplace_back(read.seq);
  for (const int k : {4, 5}) {
    const MinHasher hasher({.kmer = k, .num_hashes = 50, .canonical = true, .seed = 12});
    const auto sketches = hasher.sketch_matrix(views);
    ASSERT_TRUE(sketches.slot_disjoint());
    const SimilarityMatrix reference =
        pairwise_similarity_matrix(hasher.widen(sketches), SketchEstimator::kSetBased);
    for (const std::size_t threads : {1, 4}) {
      common::ThreadPool pool(threads);
      const SimilarityMatrix got =
          pairwise_similarity_matrix(sketches, SketchEstimator::kSetBased, &pool);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        for (std::size_t j = 0; j < got.size(); ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.row(i)[j]),
                    std::bit_cast<std::uint64_t>(reference.row(i)[j]))
              << "k=" << k << " threads=" << threads << " cell " << i << "," << j;
        }
      }
    }
  }
}

TEST(SimilarityMatrixEquivalence, CellsMatchPerPairEstimators) {
  const auto reads = make_reads(40, 37);
  std::vector<std::string_view> views;
  std::vector<Sketch> sketches;
  // K = 16: the tile kernel's multiply by 1/K is then exactly the per-pair
  // estimator's division by K.
  const MinHasher hasher({.kmer = 5, .num_hashes = 16, .seed = 5});
  for (const auto& read : reads) {
    views.emplace_back(read.seq);
    sketches.push_back(hasher.sketch(read.seq));
  }
  const auto matrix = hasher.sketch_matrix(views);
  common::ThreadPool pool(4);
  for (const SketchEstimator estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    for (common::ThreadPool* p :
         {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      const SimilarityMatrix cells = pairwise_similarity_matrix(matrix, estimator, p);
      ASSERT_EQ(cells.size(), sketches.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = 0; j < cells.size(); ++j) {
          // Double cells holding the float score: what at(), checkpoints
          // and agglomerate's 1 - s all read.
          ASSERT_EQ(cells.row(i)[j],
                    static_cast<double>(static_cast<float>(
                        sketch_similarity(sketches[i], sketches[j], estimator))))
              << "pooled=" << (p != nullptr) << " cell " << i << "," << j;
        }
      }
    }
  }
}

TEST(SimilarityMatrixEquivalence, KernelWritesEveryCellAsTheFloatScore) {
  // K = 24: 1/K is inexact, so the float rounding of m · (1/K) is visible.
  // A NaN sentinel in every cell shows any cell the fill leaves unwritten.
  common::Xoshiro256 rng(41);
  const std::size_t n = 150;
  const std::size_t cols = 24;
  kernels::SketchMatrix sketches(n, cols);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : sketches.row(i)) v = rng.bounded(6);
  }
  const kernels::MatchScore score(cols);
  std::vector<double> expected(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      expected[i * n + j] =
          i == j ? 1.0
                 : static_cast<double>(static_cast<float>(score(kernels::count_equal(
                       sketches.row(i), sketches.row(j), Backend::kScalar))));
    }
  }
  common::ThreadPool pool(4);
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      std::vector<double> out(n * n, std::numeric_limits<double>::quiet_NaN());
      kernels::component_match_matrix(sketches, out.data(), n, backend, p);
      for (std::size_t cell = 0; cell < n * n; ++cell) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[cell]),
                  std::bit_cast<std::uint64_t>(expected[cell]))
            << "backend=" << kernels::backend_name(backend)
            << " pooled=" << (p != nullptr) << " cell " << cell / n << ","
            << cell % n;
      }
    }
  }
}

/// Algorithm 1 written out over the per-pair estimators: a new
/// representative i compares against every still-unassigned j > i.
GreedyResult reference_greedy(const std::vector<Sketch>& sketches,
                              const GreedyParams& params) {
  GreedyResult result;
  result.labels.assign(sketches.size(), -1);
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    if (result.labels[i] >= 0) continue;
    const int label = static_cast<int>(result.num_clusters++);
    result.labels[i] = label;
    result.representatives.push_back(i);
    for (std::size_t j = i + 1; j < sketches.size(); ++j) {
      if (result.labels[j] >= 0) continue;
      ++result.comparisons;
      if (sketch_similarity(sketches[i], sketches[j], params.estimator) >=
          params.theta) {
        result.labels[j] = label;
      }
    }
  }
  return result;
}

TEST(ClusteringEquivalence, GreedyIdenticalAcrossBackends) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const auto reads = make_reads(60, 41);
  std::vector<std::string_view> views;
  std::vector<Sketch> sketches;
  const MinHasher hasher({.kmer = 5, .num_hashes = 30, .seed = 3});
  for (const auto& read : reads) {
    views.emplace_back(read.seq);
    sketches.push_back(hasher.sketch(read.seq));
  }
  const auto matrix = hasher.sketch_matrix(views);
  for (const SketchEstimator estimator :
       {SketchEstimator::kComponentMatch, SketchEstimator::kSetBased}) {
    const GreedyParams params{0.4, estimator};
    GreedyResult scalar, simd;
    {
      kernels::ScopedBackendOverride force(Backend::kScalar);
      scalar = greedy_cluster(matrix, params);
    }
    {
      kernels::ScopedBackendOverride force(Backend::kAvx2);
      simd = greedy_cluster(matrix, params);
    }
    EXPECT_EQ(scalar.labels, simd.labels);
    EXPECT_EQ(scalar.representatives, simd.representatives);
    EXPECT_EQ(scalar.comparisons, simd.comparisons);
    // Both must equal Algorithm 1 over the per-pair estimators, and the
    // matrix path must agree with itself on a pool.
    const GreedyResult reference = reference_greedy(sketches, params);
    EXPECT_EQ(scalar.labels, reference.labels);
    EXPECT_EQ(scalar.representatives, reference.representatives);
    EXPECT_EQ(scalar.comparisons, reference.comparisons);
    common::ThreadPool pool(4);
    const GreedyResult pooled = greedy_cluster(matrix, params, &pool);
    EXPECT_EQ(scalar.labels, pooled.labels);
    EXPECT_EQ(scalar.representatives, pooled.representatives);
    EXPECT_EQ(scalar.comparisons, pooled.comparisons);
  }
}

TEST(ClusteringEquivalence, DendrogramBitIdenticalAcrossBackends) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const auto reads = make_reads(50, 43);
  std::vector<std::string_view> views;
  for (const auto& read : reads) views.emplace_back(read.seq);
  const MinHasher hasher({.kmer = 5, .num_hashes = 20, .seed = 6});
  const auto matrix = hasher.sketch_matrix(views);
  for (const Linkage linkage :
       {Linkage::kSingle, Linkage::kAverage, Linkage::kComplete}) {
    HierarchicalResult scalar, simd;
    {
      kernels::ScopedBackendOverride force(Backend::kScalar);
      scalar = hierarchical_cluster(matrix, {0.5, linkage});
    }
    {
      kernels::ScopedBackendOverride force(Backend::kAvx2);
      simd = hierarchical_cluster(matrix, {0.5, linkage});
    }
    EXPECT_EQ(scalar.labels, simd.labels);
    ASSERT_EQ(scalar.dendrogram.merges.size(), simd.dendrogram.merges.size());
    for (std::size_t i = 0; i < scalar.dendrogram.merges.size(); ++i) {
      const auto& a = scalar.dendrogram.merges[i];
      const auto& b = simd.dendrogram.merges[i];
      EXPECT_EQ(a.left, b.left);
      EXPECT_EQ(a.right, b.right);
      EXPECT_EQ(a.distance, b.distance);  // bit-identical doubles
      EXPECT_EQ(a.size, b.size);
    }
  }
}

TEST(ClusteringEquivalence, PipelineLabelsIdenticalAcrossBackendsAndThreads) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const auto reads = make_reads(48, 47);
  for (const Mode mode : {Mode::kGreedy, Mode::kHierarchical}) {
    for (const bool distributed : {false, true}) {
      PipelineParams params;
      params.mode = mode;
      params.theta = 0.5;
      // k = 7: past the ranked-lookup bound, so each backend's sketch
      // stage runs its own kernels.
      params.minhash = {.kmer = 7, .num_hashes = 20, .seed = 9};
      std::vector<int> reference;
      for (const Backend backend : {Backend::kScalar, Backend::kAvx2}) {
        for (const std::size_t threads : {1UL, 4UL}) {
          kernels::ScopedBackendOverride force(backend);
          ExecutionOptions exec;
          exec.distributed = distributed;
          exec.threads = threads;
          const PipelineResult result = run_pipeline(reads, params, exec);
          if (reference.empty()) {
            reference = result.labels;
            ASSERT_FALSE(reference.empty());
          } else {
            ASSERT_EQ(result.labels, reference)
                << mode_name(mode) << " distributed=" << distributed
                << " backend=" << kernels::backend_name(backend)
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------- dispatch

TEST(Dispatch, BackendNamesAndAvailability) {
  EXPECT_STREQ(kernels::backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(kernels::backend_name(Backend::kAvx2), "avx2");
  EXPECT_TRUE(kernels::backend_available(Backend::kScalar));
  // active_backend() must be available and stable across calls.
  const Backend active = kernels::active_backend();
  EXPECT_TRUE(kernels::backend_available(active));
  EXPECT_EQ(kernels::active_backend(), active);
}

TEST(Dispatch, ScopedOverrideRestoresPreviousBackend) {
  const Backend before = kernels::active_backend();
  {
    kernels::ScopedBackendOverride force(Backend::kScalar);
    EXPECT_EQ(kernels::active_backend(), Backend::kScalar);
  }
  EXPECT_EQ(kernels::active_backend(), before);
}

}  // namespace
}  // namespace mrmc::core
