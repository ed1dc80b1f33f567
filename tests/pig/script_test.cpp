#include "pig/script.hpp"

#include <gtest/gtest.h>

#include <map>

#include "bio/fasta.hpp"
#include "common/error.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::pig {
namespace {

// --------------------------------------------------------------------- parse

TEST(ParseScript, LoadStatement) {
  const auto statements = parse_script("A = LOAD '/in.fa' USING FastaStorage;");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_EQ(statements[0].kind, Statement::Kind::kLoad);
  EXPECT_EQ(statements[0].target, "A");
  EXPECT_EQ(statements[0].source, "/in.fa");
}

TEST(ParseScript, ForeachWithFlattenAndArgs) {
  const auto statements = parse_script(
      "C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 15));");
  ASSERT_EQ(statements.size(), 1u);
  const auto& s = statements[0];
  EXPECT_EQ(s.kind, Statement::Kind::kForeach);
  EXPECT_EQ(s.source, "B");
  EXPECT_EQ(s.udf_name, "TranslateToKmer");
  ASSERT_EQ(s.udf_args.size(), 3u);
  EXPECT_EQ(s.udf_args[2], "15");
  EXPECT_FALSE(s.inner_group_all);
}

TEST(ParseScript, ForeachOverInlineGroupAll) {
  const auto statements = parse_script(
      "K = FOREACH (GROUP J ALL) GENERATE FLATTEN(GreedyClustering(F, 50, 0.3));");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_TRUE(statements[0].inner_group_all);
  EXPECT_EQ(statements[0].source, "J");
}

TEST(ParseScript, GroupDistinctOrderLimitFilterStore) {
  const auto statements = parse_script(R"(
    I = GROUP E ALL;
    D = DISTINCT A;
    O = ORDER A BY $1 DESC;
    M = LIMIT A 5;
    F = FILTER A BY $0 >= 2.5;
    STORE K INTO '/out';
  )");
  ASSERT_EQ(statements.size(), 6u);
  EXPECT_EQ(statements[0].kind, Statement::Kind::kGroupAll);
  EXPECT_EQ(statements[1].kind, Statement::Kind::kDistinct);
  EXPECT_EQ(statements[2].kind, Statement::Kind::kOrderBy);
  EXPECT_EQ(statements[2].field, 1u);
  EXPECT_TRUE(statements[2].descending);
  EXPECT_EQ(statements[3].kind, Statement::Kind::kLimit);
  EXPECT_DOUBLE_EQ(statements[3].literal, 5.0);
  EXPECT_EQ(statements[4].kind, Statement::Kind::kFilter);
  EXPECT_EQ(statements[4].comparison, ">=");
  EXPECT_DOUBLE_EQ(statements[4].literal, 2.5);
  EXPECT_EQ(statements[5].kind, Statement::Kind::kStore);
  EXPECT_EQ(statements[5].udf_name, "/out");
}

TEST(ParseScript, CommentsAndBlankLinesIgnored) {
  const auto statements = parse_script(
      "-- a comment\n\nA = LOAD '/x'; -- trailing comment\n"
      "B = LOAD '/runs--7/in.fa'; -- a quoted '--' is part of the path\n");
  ASSERT_EQ(statements.size(), 2u);
  EXPECT_EQ(statements[1].source, "/runs--7/in.fa");
}

TEST(ParseScript, SyntaxErrorsCarryLineNumbers) {
  try {
    parse_script("A = LOAD '/x';\nB = BOGUS A;\n");
    FAIL() << "must throw";
  } catch (const common::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // Malformed numbers and field references name their line too, and never
  // escape as std:: conversion errors.
  for (const char* bad : {"O = ORDER A BY $x;", "G = GROUP A BY $;",
                          "M = LIMIT A x;", "M = LIMIT A -1;",
                          "M = LIMIT A 2.5;", "F = FILTER A BY $0 > -;",
                          "F = FILTER A BY $z > 1;", "F = FILTER A BY $0 ~ 1;",
                          "G = GROUP A BY 1;",
                          "K = FOREACH B GENERATE TranslateToKmer(seq, -);"}) {
    try {
      parse_script(std::string("A = LOAD '/x';\n") + bad);
      FAIL() << bad << " must throw";
    } catch (const common::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
  EXPECT_THROW(parse_script("STORE K SOMEWHERE"), common::InvalidArgument);
  EXPECT_THROW(parse_script("A = LOAD unquoted"), common::InvalidArgument);
  EXPECT_THROW(parse_script("A = FOREACH B NOGEN X()"), common::InvalidArgument);
}

// ------------------------------------------------------------- substitution

TEST(SubstituteParameters, ReplacesAllOccurrences) {
  const auto out = substitute_parameters(
      "LOAD '$INPUT' ... $KMER and $KMER",
      {{"INPUT", "/a.fa"}, {"KMER", "15"}});
  EXPECT_EQ(out, "LOAD '/a.fa' ... 15 and 15");
}

TEST(SubstituteParameters, LongestNameWins) {
  const auto out = substitute_parameters("$OUTPUT1 vs $OUTPUT",
                                         {{"OUTPUT", "/o"}, {"OUTPUT1", "/o1"}});
  EXPECT_EQ(out, "/o1 vs /o");
}

TEST(SubstituteParameters, UnresolvedParameterThrows) {
  EXPECT_THROW(substitute_parameters("$MISSING", {}), common::InvalidArgument);
  // Field references like $0 are fine.
  EXPECT_NO_THROW(substitute_parameters("ORDER A BY $0", {}));
}

// ------------------------------------------------------------------ execute

mr::SimDfs make_dfs_with_sample(const simdata::LabeledReads& sample) {
  mr::SimDfs dfs({.nodes = 4, .block_size = 8192, .replication = 2});
  dfs.write("/in.fa", bio::write_fasta_string(sample.reads));
  return dfs;
}

TEST(RunScript, Algorithm3TextMatchesBuiltInRunner) {
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S6"), {.reads = 30, .seed = 21});
  auto dfs = make_dfs_with_sample(sample);

  PigContext script_ctx(&dfs, {.nodes = 4});
  const auto script_result = run_script(
      script_ctx, algorithm3_script(),
      {{"INPUT", "/in.fa"}, {"KMER", "5"}, {"NUMHASH", "64"}, {"DIV", "0"},
       {"LINK", "average"}, {"CUTOFF", "0.5"},
       {"OUTPUT1", "/out1"}, {"OUTPUT2", "/out2"}},
      /*udf_seed=*/3);

  Algorithm3Params params;
  params.kmer = 5;
  params.num_hashes = 64;
  params.seed = 3;
  params.cutoff = 0.5;
  auto dfs2 = make_dfs_with_sample(sample);
  const auto built_in = run_algorithm3(dfs2, "/in.fa", "/h", "/g", params);

  // Same jobs, same stored outputs.
  EXPECT_EQ(script_result.jobs_run, 8u);
  EXPECT_EQ(dfs.read("/out1"), dfs2.read("/h"));
  EXPECT_EQ(dfs.read("/out2"), dfs2.read("/g"));
  EXPECT_EQ(script_result.stored_paths,
            (std::vector<std::string>{"/out1", "/out2"}));
}

TEST(RunScript, LshPairwiseSimilarityWordMatchesExactOnSmallSample) {
  // The `lsh` extension word routes CalculatePairwiseSimilarity through the
  // banded candidate backend.  On a small well-separated sample every >= θ
  // pair is recovered, so the downstream clustering output is unchanged.
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S6"), {.reads = 30, .seed = 21});
  const char* script_template = R"(
A = LOAD '$INPUT' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 5));
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, 64, 0));
I = GROUP E ALL;
J = FOREACH I GENERATE FLATTEN(CalculatePairwiseSimilarity(minwise, F$EXTRA));
K = FOREACH (GROUP J ALL) GENERATE FLATTEN(AgglomerativeHierarchicalClustering(similaritymatrix, average, 0.5));
STORE K INTO '/out';
)";
  auto exact_dfs = make_dfs_with_sample(sample);
  PigContext exact_ctx(&exact_dfs, {.nodes = 4});
  run_script(exact_ctx, script_template,
             {{"INPUT", "/in.fa"}, {"EXTRA", ""}}, /*udf_seed=*/3);

  auto lsh_dfs = make_dfs_with_sample(sample);
  PigContext lsh_ctx(&lsh_dfs, {.nodes = 4});
  run_script(lsh_ctx, script_template,
             {{"INPUT", "/in.fa"}, {"EXTRA", ", lsh, 0.5"}}, /*udf_seed=*/3);

  EXPECT_EQ(lsh_dfs.read("/out"), exact_dfs.read("/out"));
}

TEST(RunScript, LimitedSimilarityRowsAreRejected) {
  // LIMIT keeps the first rows of a larger similarity relation; their
  // partner lists no longer fit the smaller group's matrix.
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S6"), {.reads = 12, .seed = 21});
  auto dfs = make_dfs_with_sample(sample);
  PigContext ctx(&dfs, {.nodes = 4});
  EXPECT_THROW(run_script(ctx, R"(
A = LOAD '/in.fa' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 5));
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, 64, 0));
I = GROUP E ALL;
J = FOREACH I GENERATE FLATTEN(CalculatePairwiseSimilarity(minwise, F));
J2 = LIMIT J 2;
K = FOREACH (GROUP J2 ALL) GENERATE FLATTEN(AgglomerativeHierarchicalClustering(similaritymatrix, average, 0.5));
)"),
               common::InvalidArgument);
}

TEST(RunScript, CMinHashWordSelectsTheScheme) {
  // The `cminhash` extension word on CalculateMinwiseHash swaps in the
  // C-MinHash family; the script output must match the UDF built with the
  // scheme directly (and differ from the universal-family sketches).
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S6"), {.reads = 20, .seed = 9});
  const char* script_template = R"(
A = LOAD '$INPUT' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 5));
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, 32, 0$EXTRA));
I = GROUP E ALL;
J = FOREACH I GENERATE FLATTEN(CalculatePairwiseSimilarity(minwise, F));
K = FOREACH (GROUP J ALL) GENERATE FLATTEN(AgglomerativeHierarchicalClustering(similaritymatrix, average, 0.5));
STORE K INTO '/out';
)";
  auto universal_dfs = make_dfs_with_sample(sample);
  PigContext universal_ctx(&universal_dfs, {.nodes = 2});
  run_script(universal_ctx, script_template,
             {{"INPUT", "/in.fa"}, {"EXTRA", ""}}, /*udf_seed=*/3);

  auto cmin_dfs = make_dfs_with_sample(sample);
  PigContext cmin_ctx(&cmin_dfs, {.nodes = 2});
  const auto cmin_result =
      run_script(cmin_ctx, script_template,
                 {{"INPUT", "/in.fa"}, {"EXTRA", ", cminhash"}},
                 /*udf_seed=*/3);

  // Different hash family, different sketches — but the same reads still
  // cluster into a sane partition stored at /out, deterministically.
  EXPECT_FALSE(cmin_result.relations.at("K").empty());
  EXPECT_NE(cmin_dfs.read("/out"), "");

  auto again_dfs = make_dfs_with_sample(sample);
  PigContext again_ctx(&again_dfs, {.nodes = 2});
  run_script(again_ctx, script_template,
             {{"INPUT", "/in.fa"}, {"EXTRA", ", cminhash"}}, /*udf_seed=*/3);
  EXPECT_EQ(again_dfs.read("/out"), cmin_dfs.read("/out"));
}

TEST(RunScript, RelationalOperators) {
  // Build a tiny FASTA, load it, and exercise DISTINCT / ORDER / LIMIT /
  // FILTER on the clustering output (label field 1 is numeric).
  const std::vector<bio::FastaRecord> reads{
      {"a", "a", "ACGTACGTACGTACGT"}, {"b", "b", "ACGTACGTACGTACGT"},
      {"c", "c", "TTTTGGGGCCCCAAAA"}};
  mr::SimDfs dfs({.nodes = 2, .block_size = 8192});
  dfs.write("/r.fa", bio::write_fasta_string(reads));

  PigContext ctx(&dfs, {.nodes = 2});
  const auto result = run_script(ctx, R"(
A = LOAD '/r.fa' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 4));
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(kmers, id, 16, 0));
L = FOREACH (GROUP E ALL) GENERATE FLATTEN(GreedyClustering(F, 16, 0.5));
D = DISTINCT L;
O = ORDER L BY $1 DESC;
M = LIMIT O 2;
F = FILTER L BY $1 == 0;
STORE M INTO '/m';
)");

  const auto& labels = result.relations.at("L");
  ASSERT_EQ(labels.size(), 3u);
  // a and b identical -> same label; c different.
  EXPECT_EQ(labels[0].get<long>(1), labels[1].get<long>(1));
  EXPECT_NE(labels[0].get<long>(1), labels[2].get<long>(1));

  EXPECT_EQ(result.relations.at("D").size(), 3u);  // distinct (id,label) rows
  const auto& ordered = result.relations.at("O");
  EXPECT_GE(ordered[0].get<long>(1), ordered[2].get<long>(1));
  EXPECT_EQ(result.relations.at("M").size(), 2u);
  EXPECT_EQ(result.relations.at("F").size(), 2u);  // label 0 = {a, b}
  EXPECT_TRUE(dfs.exists("/m"));
}

TEST(RunScript, DistinctRemovesDuplicateTuples) {
  const std::vector<bio::FastaRecord> reads{{"x", "x", "ACGTACGT"},
                                            {"x2", "x2", "ACGTACGT"}};
  mr::SimDfs dfs({.nodes = 2, .block_size = 8192});
  dfs.write("/r.fa", bio::write_fasta_string(reads));
  PigContext ctx(&dfs, {.nodes = 2});
  const auto result = run_script(ctx, R"(
A = LOAD '/r.fa' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 4));
D = DISTINCT C;
)");
  // Identical sequences produce identical k-mer tuples except the id field,
  // so DISTINCT keeps both.
  EXPECT_EQ(result.relations.at("D").size(), 2u);
}

TEST(RunScript, UnknownAliasAndUdfThrow) {
  mr::SimDfs dfs({.nodes = 2});
  PigContext ctx(&dfs, {.nodes = 2});
  EXPECT_THROW(run_script(ctx, "B = DISTINCT MISSING;"), common::InvalidArgument);
  dfs.write("/r.fa", ">a\nACGT\n");
  PigContext ctx2(&dfs, {.nodes = 2});
  EXPECT_THROW(run_script(ctx2, R"(
A = LOAD '/r.fa';
B = FOREACH A GENERATE FLATTEN(NoSuchUdf(x));
)"),
               common::InvalidArgument);
}

}  // namespace
}  // namespace mrmc::pig
