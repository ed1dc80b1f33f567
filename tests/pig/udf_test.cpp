#include "pig/udf.hpp"

#include <gtest/gtest.h>

#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "core/greedy.hpp"

namespace mrmc::pig {
namespace {

Tuple seq_tuple(std::string seq, std::string id) {
  Tuple tuple;
  tuple.fields.emplace_back(std::move(seq));
  tuple.fields.emplace_back(std::move(id));
  return tuple;
}

TEST(StringGeneratorUdf, EncodesBasesToIntegers) {
  const StringGenerator udf;
  const Bag out = udf.exec(seq_tuple("ACGTN", "r1"));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].get<std::vector<long>>(0),
            (std::vector<long>{0, 1, 2, 3, -1}));
  EXPECT_EQ(out[0].get<std::string>(1), "r1");
  EXPECT_STREQ(udf.name(), "StringGenerator");
}

TEST(TranslateToKmerUdf, MatchesBioKmerSet) {
  const StringGenerator encode;
  const TranslateToKmer translate(4);
  const std::string seq = "ACGTACGGTTAACG";
  const Bag encoded = encode.exec(seq_tuple(seq, "r"));
  const Bag out = translate.exec(encoded[0]);
  ASSERT_EQ(out.size(), 1u);

  const auto expected = bio::kmer_set(seq, {.k = 4});
  const auto& kmers = out[0].get<std::vector<long>>(0);
  ASSERT_EQ(kmers.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(kmers[i]), expected[i]);
  }
}

TEST(TranslateToKmerUdf, AmbiguousCodesRestartWindow) {
  const TranslateToKmer translate(2);
  Tuple input;
  input.fields.emplace_back(std::vector<long>{0, 1, -1, 2, 3});  // AC N GT
  input.fields.emplace_back(std::string("r"));
  const Bag out = translate.exec(input);
  const auto& kmers = out[0].get<std::vector<long>>(0);
  EXPECT_EQ(kmers.size(), 2u);  // AC and GT only

  // Any code outside 0..3 restarts the window like -1 does.
  Tuple out_of_range;
  out_of_range.fields.emplace_back(std::vector<long>{0, 1, 7, 2, 3});
  out_of_range.fields.emplace_back(std::string("r"));
  const Bag restarted = translate.exec(out_of_range);
  EXPECT_EQ(restarted[0].get<std::vector<long>>(0), kmers);

  Tuple all_ambiguous;
  all_ambiguous.fields.emplace_back(std::vector<long>{-1, 7, 4, -1, 9});
  all_ambiguous.fields.emplace_back(std::string("n"));
  const Bag none = translate.exec(all_ambiguous);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_TRUE(none[0].get<std::vector<long>>(0).empty());
  EXPECT_EQ(none[0].get<std::string>(1), "n");
}

TEST(TranslateToKmerUdf, RejectsBadK) {
  EXPECT_THROW(TranslateToKmer(0), common::InvalidArgument);
  EXPECT_THROW(TranslateToKmer(99), common::InvalidArgument);
}

TEST(CalculateMinwiseHashUdf, MatchesMinHasher) {
  const int k = 4;
  const std::size_t n = 16;
  const std::uint64_t seed = 3;
  const std::string seq = "ACGTACGGTTAACGGA";

  const StringGenerator encode;
  const TranslateToKmer translate(k);
  const CalculateMinwiseHash minwise(n, k, seed);
  const Bag out =
      minwise.exec(translate.exec(encode.exec(seq_tuple(seq, "r"))[0])[0]);
  ASSERT_EQ(out.size(), 1u);

  const core::MinHasher hasher({.kmer = k, .num_hashes = n, .seed = seed});
  const core::Sketch expected = hasher.sketch(seq);
  const auto& values = out[0].get<std::vector<long>>(0);
  ASSERT_EQ(values.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(values[i]), expected[i]);
  }
}

TEST(CalculateMinwiseHashUdf, CMinHashSchemeMatchesMinHasher) {
  const int k = 4;
  const std::size_t n = 16;
  const std::uint64_t seed = 3;
  const std::string seq = "ACGTACGGTTAACGGA";

  const StringGenerator encode;
  const TranslateToKmer translate(k);
  const CalculateMinwiseHash minwise(n, k, seed,
                                     core::SketchScheme::kCMinHash);
  const Bag out =
      minwise.exec(translate.exec(encode.exec(seq_tuple(seq, "r"))[0])[0]);
  ASSERT_EQ(out.size(), 1u);

  const core::MinHasher hasher({.kmer = k,
                                .num_hashes = n,
                                .seed = seed,
                                .scheme = core::SketchScheme::kCMinHash});
  const core::Sketch expected = hasher.sketch(seq);
  const auto& values = out[0].get<std::vector<long>>(0);
  ASSERT_EQ(values.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(values[i]), expected[i]);
  }
}

Bag make_minwise_group(const std::vector<std::string>& seqs) {
  const StringGenerator encode;
  const TranslateToKmer translate(4);
  const CalculateMinwiseHash minwise(16, 4, 3);
  Bag group;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    group.push_back(minwise.exec(translate.exec(
        encode.exec(seq_tuple(seqs[i], "r" + std::to_string(i)))[0])[0])[0]);
  }
  return group;
}

TEST(CalculatePairwiseSimilarityUdf, EmitsUpperTriangularRows) {
  const Bag group = make_minwise_group({"ACGTACGTACGT", "ACGTACGTACGT",
                                        "TTGGCCAATTGG"});
  Tuple input;
  input.fields.emplace_back(group);
  const CalculatePairwiseSimilarity udf(core::SketchEstimator::kComponentMatch);
  const Bag rows = udf.exec(input);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].get<std::vector<double>>(1).size(), 2u);
  EXPECT_EQ(rows[1].get<std::vector<double>>(1).size(), 1u);
  EXPECT_EQ(rows[2].get<std::vector<double>>(1).size(), 0u);
  // Reads 0 and 1 are identical sequences -> similarity 1.
  EXPECT_DOUBLE_EQ(rows[0].get<std::vector<double>>(1)[0], 1.0);
  EXPECT_EQ(rows[0].get<std::string>(2), "r0");
}

TEST(CalculatePairwiseSimilarityUdf, LshBackendKeepsRowShapeAndExactCells) {
  const std::vector<std::string> seqs{"ACGTACGTACGT", "ACGTACGTACGT",
                                      "TTGGCCAATTGG", "GGGGCCCCAAAA"};
  const Bag group = make_minwise_group(seqs);
  Tuple input;
  input.fields.emplace_back(group);
  const CalculatePairwiseSimilarity exact(core::SketchEstimator::kComponentMatch);
  core::candidates::Params params;
  params.backend = core::candidates::Backend::kLshBanded;
  const CalculatePairwiseSimilarity lsh(core::SketchEstimator::kComponentMatch,
                                        params, 0.9);

  const Bag exact_rows = exact.exec(input);
  const Bag lsh_rows = lsh.exec(input);
  ASSERT_EQ(lsh_rows.size(), exact_rows.size());
  for (std::size_t i = 0; i < lsh_rows.size(); ++i) {
    // Same tuple shape: row index, j > i similarity list, read id.
    EXPECT_EQ(lsh_rows[i].get<long>(0), exact_rows[i].get<long>(0));
    EXPECT_EQ(lsh_rows[i].get<std::string>(2), exact_rows[i].get<std::string>(2));
    const auto& sparse = lsh_rows[i].get<std::vector<double>>(1);
    const auto& dense = exact_rows[i].get<std::vector<double>>(1);
    ASSERT_EQ(sparse.size(), dense.size());
    // Candidate cells carry the exact value; non-candidates stay 0.
    for (std::size_t j = 0; j < sparse.size(); ++j) {
      if (sparse[j] != 0.0) {
        EXPECT_DOUBLE_EQ(sparse[j], dense[j]);
      }
    }
  }
  // The identical pair collides in every band, so its cell must be scored.
  EXPECT_DOUBLE_EQ(lsh_rows[0].get<std::vector<double>>(1)[0], 1.0);
}

TEST(AgglomerativeHierarchicalClusteringUdf, ClustersFromRows) {
  const Bag group =
      make_minwise_group({"ACGTACGTACGT", "ACGTACGTACGT", "TTGGCCAATTGG",
                          "TTGGCCAATTGG"});
  Tuple grouped;
  grouped.fields.emplace_back(group);
  const CalculatePairwiseSimilarity sim(core::SketchEstimator::kComponentMatch);
  Tuple rows_tuple;
  rows_tuple.fields.emplace_back(sim.exec(grouped));

  const AgglomerativeHierarchicalClustering cluster(core::Linkage::kAverage, 0.5);
  const Bag labels = cluster.exec(rows_tuple);
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels[0].get<long>(1), labels[1].get<long>(1));
  EXPECT_EQ(labels[2].get<long>(1), labels[3].get<long>(1));
  EXPECT_NE(labels[0].get<long>(1), labels[2].get<long>(1));
  EXPECT_EQ(labels[0].get<std::string>(0), "r0");
}

TEST(AgglomerativeHierarchicalClusteringUdf, RejectsRowsThatOverrunTheGroup) {
  const Bag group = make_minwise_group({"ACGTACGTACGT", "ACGTACGTACGT",
                                        "TTGGCCAATTGG"});
  Tuple grouped;
  grouped.fields.emplace_back(group);
  const CalculatePairwiseSimilarity sim(core::SketchEstimator::kComponentMatch);
  const Bag rows = sim.exec(grouped);
  const AgglomerativeHierarchicalClustering cluster(core::Linkage::kAverage, 0.5);

  // The first two rows of a three-read relation (what LIMIT 2 leaves):
  // row 0 still lists two partners, one past the 2 x 2 matrix.
  Tuple limited;
  limited.fields.emplace_back(Bag(rows.begin(), rows.begin() + 2));
  EXPECT_THROW(cluster.exec(limited), common::InvalidArgument);

  // A row index past the group.
  Tuple last_only;
  last_only.fields.emplace_back(Bag(rows.begin() + 2, rows.end()));
  EXPECT_THROW(cluster.exec(last_only), common::InvalidArgument);
}

TEST(ClusteringUdfs, RejectRaggedMinwiseGroups) {
  Bag group = make_minwise_group({"ACGTACGTACGT", "TTGGCCAATTGG"});
  group[1].fields[0] = std::vector<long>{1, 2, 3};  // 3 values, not 16
  Tuple input;
  input.fields.emplace_back(group);
  EXPECT_THROW(CalculatePairwiseSimilarity(core::SketchEstimator::kSetBased)
                   .exec(input),
               common::InvalidArgument);
  EXPECT_THROW(GreedyClustering(0.5, core::SketchEstimator::kSetBased).exec(input),
               common::InvalidArgument);
}

TEST(GreedyClusteringUdf, MatchesCoreGreedy) {
  const std::vector<std::string> seqs{"ACGTACGTACGT", "ACGTACGTACGT",
                                      "TTGGCCAATTGG"};
  const Bag group = make_minwise_group(seqs);
  Tuple input;
  input.fields.emplace_back(group);
  const GreedyClustering udf(0.5, core::SketchEstimator::kSetBased);
  const Bag labels = udf.exec(input);
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0].get<long>(1), labels[1].get<long>(1));
  EXPECT_NE(labels[0].get<long>(1), labels[2].get<long>(1));
}

TEST(ClusteringUdfs, RejectBadCutoff) {
  EXPECT_THROW(GreedyClustering(1.5, core::SketchEstimator::kSetBased),
               common::InvalidArgument);
  EXPECT_THROW(
      AgglomerativeHierarchicalClustering(core::Linkage::kSingle, -0.1),
      common::InvalidArgument);
}

}  // namespace
}  // namespace mrmc::pig
