#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pig/pig.hpp"
#include "pig/script.hpp"

namespace mrmc::pig {
namespace {

Relation label_relation() {
  // (id:string, label:long) rows like the clustering output.
  Relation relation;
  const std::vector<std::pair<std::string, long>> rows = {
      {"r0", 0}, {"r1", 1}, {"r2", 0}, {"r3", 2}, {"r4", 1}, {"r5", 0}};
  for (const auto& [id, label] : rows) {
    Tuple tuple;
    tuple.fields.emplace_back(id);
    tuple.fields.emplace_back(label);
    relation.push_back(std::move(tuple));
  }
  return relation;
}

TEST(GroupBy, GroupsByLongFieldOrderedByKey) {
  mr::SimDfs dfs({.nodes = 4});
  PigContext ctx(&dfs, {.nodes = 4});
  const Relation grouped = ctx.group_by(label_relation(), 1);
  ASSERT_EQ(grouped.size(), 3u);
  EXPECT_EQ(grouped[0].get<long>(0), 0);
  EXPECT_EQ(grouped[0].get<Bag>(1).size(), 3u);
  EXPECT_EQ(grouped[1].get<long>(0), 1);
  EXPECT_EQ(grouped[1].get<Bag>(1).size(), 2u);
  EXPECT_EQ(grouped[2].get<long>(0), 2);
  EXPECT_EQ(grouped[2].get<Bag>(1).size(), 1u);

  // Labels 0-11 come back in numeric order (as text, 10 and 11 would sort
  // before 2).
  Relation twelve;
  for (long label = 11; label >= 0; --label) {
    twelve.push_back(Tuple({std::string("r") + std::to_string(label), label}));
  }
  const Relation by_label = ctx.group_by(twelve, 1);
  ASSERT_EQ(by_label.size(), 12u);
  for (long label = 0; label < 12; ++label) {
    EXPECT_EQ(by_label[label].get<long>(0), label);
    EXPECT_EQ(by_label[label].get<Bag>(1).size(), 1u);
  }
}

TEST(GroupBy, GroupsByExactDoubleValueInNumericOrder) {
  mr::SimDfs dfs({.nodes = 4});
  PigContext ctx(&dfs, {.nodes = 4});
  Relation relation;
  for (const double value : {0.1234562, 10.0, 0.1234561, 2.0, 0.1234562}) {
    relation.push_back(Tuple({value}));
  }
  // Six decimals would merge 0.1234561 and 0.1234562; exact keys keep them
  // apart.
  const Relation grouped = ctx.group_by(relation, 0);
  ASSERT_EQ(grouped.size(), 4u);
  EXPECT_EQ(grouped[0].get<double>(0), 0.1234561);
  EXPECT_EQ(grouped[0].get<Bag>(1).size(), 1u);
  EXPECT_EQ(grouped[1].get<double>(0), 0.1234562);
  EXPECT_EQ(grouped[1].get<Bag>(1).size(), 2u);
  EXPECT_EQ(grouped[2].get<double>(0), 2.0);
  EXPECT_EQ(grouped[3].get<double>(0), 10.0);
}

TEST(GroupBy, BagPreservesInputOrder) {
  mr::SimDfs dfs({.nodes = 4});
  PigContext ctx(&dfs, {.nodes = 4});
  const Relation grouped = ctx.group_by(label_relation(), 1);
  const Bag& label0 = grouped[0].get<Bag>(1);
  EXPECT_EQ(label0[0].get<std::string>(0), "r0");
  EXPECT_EQ(label0[1].get<std::string>(0), "r2");
  EXPECT_EQ(label0[2].get<std::string>(0), "r5");
}

TEST(GroupBy, GroupsByStringField) {
  mr::SimDfs dfs({.nodes = 4});
  PigContext ctx(&dfs, {.nodes = 4});
  Relation relation;
  for (const char* site : {"deep", "shallow", "deep"}) {
    Tuple tuple;
    tuple.fields.emplace_back(std::string(site));
    relation.push_back(std::move(tuple));
  }
  const Relation grouped = ctx.group_by(relation, 0);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].get<std::string>(0), "deep");
  EXPECT_EQ(grouped[0].get<Bag>(1).size(), 2u);
}

TEST(GroupBy, RejectsBagFieldAndBadIndex) {
  mr::SimDfs dfs({.nodes = 2});
  PigContext ctx(&dfs, {.nodes = 2});
  Relation relation;
  Tuple tuple;
  tuple.fields.emplace_back(Bag{});
  relation.push_back(std::move(tuple));
  EXPECT_THROW(ctx.group_by(relation, 0), common::InvalidArgument);
  EXPECT_THROW(ctx.group_by(relation, 5), common::InvalidArgument);
}

TEST(GroupBy, RunsAsARealMapReduceJob) {
  mr::SimDfs dfs({.nodes = 4});
  PigContext ctx(&dfs, {.nodes = 4});
  ctx.group_by(label_relation(), 1);
  ASSERT_EQ(ctx.job_history().size(), 1u);
  const auto& stats = ctx.job_history().front();
  EXPECT_EQ(stats.input_records, 6u);
  EXPECT_EQ(stats.reduce_groups, 3u);
  EXPECT_GT(stats.shuffle_bytes, 0.0);
}

TEST(GroupBy, ScriptStatementParsesAndRuns) {
  const auto statements = parse_script("G = GROUP L BY $1;");
  ASSERT_EQ(statements.size(), 1u);
  EXPECT_EQ(statements[0].kind, Statement::Kind::kGroupBy);
  EXPECT_EQ(statements[0].field, 1u);

  // Through the interpreter: cluster two duplicate reads, group by label.
  mr::SimDfs dfs({.nodes = 2, .block_size = 8192});
  dfs.write("/r.fa", ">a\nACGTACGTACGT\n>b\nACGTACGTACGT\n>c\nTTTTGGGGCCCC\n");
  PigContext ctx(&dfs, {.nodes = 2});
  const auto result = run_script(ctx, R"(
A = LOAD '/r.fa' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, 4));
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(kmers, id, 16, 0));
L = FOREACH (GROUP E ALL) GENERATE FLATTEN(GreedyClustering(F, 16, 0.5));
G = GROUP L BY $1;
)");
  const auto& grouped = result.relations.at("G");
  ASSERT_EQ(grouped.size(), 2u);  // two clusters: {a,b} and {c}
  EXPECT_EQ(grouped[0].get<Bag>(1).size() + grouped[1].get<Bag>(1).size(), 3u);
}

}  // namespace
}  // namespace mrmc::pig
