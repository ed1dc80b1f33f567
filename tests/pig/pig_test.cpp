#include "pig/pig.hpp"

#include <gtest/gtest.h>

#include <map>

#include "bio/fasta.hpp"
#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::pig {
namespace {

mr::SimDfs::Options dfs_options() {
  mr::SimDfs::Options options;
  options.nodes = 4;
  options.block_size = 4096;
  return options;
}

TEST(ToText, FormatsFieldTypes) {
  Tuple tuple;
  tuple.fields.emplace_back(std::string("read1"));
  tuple.fields.emplace_back(7L);
  tuple.fields.emplace_back(std::vector<long>{1, 2, 3});
  tuple.fields.emplace_back(Bag{Tuple{}, Tuple{}});
  EXPECT_EQ(to_text(tuple), "read1\t7\t1,2,3\t{bag:2}");
}

TEST(PigContext, RequiresDfs) {
  EXPECT_THROW(PigContext(nullptr, {}), common::InvalidArgument);
}

TEST(PigContext, LoadFastaParsesRecords) {
  mr::SimDfs dfs(dfs_options());
  dfs.write("/in.fa", ">a\nACGT\n>b\nTTGG\n");
  PigContext ctx(&dfs, {});
  const Relation relation = ctx.load_fasta("/in.fa");
  ASSERT_EQ(relation.size(), 2u);
  EXPECT_EQ(relation[0].get<std::string>(0), "ACGT");
  EXPECT_EQ(relation[0].get<std::string>(1), "a");
}

TEST(PigContext, ForeachRunsUdfInOrder) {
  mr::SimDfs dfs(dfs_options());
  PigContext ctx(&dfs, {});
  Relation input;
  for (const char* seq : {"ACG", "TTT", "GGA"}) {
    Tuple tuple;
    tuple.fields.emplace_back(std::string(seq));
    tuple.fields.emplace_back(std::string(seq));  // id = seq for tracking
    input.push_back(std::move(tuple));
  }
  const Relation out = ctx.foreach_generate(input, StringGenerator{});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].get<std::string>(1), "ACG");
  EXPECT_EQ(out[1].get<std::string>(1), "TTT");
  EXPECT_EQ(out[2].get<std::string>(1), "GGA");
  EXPECT_EQ(ctx.job_history().size(), 1u);
  EXPECT_GT(ctx.sim_time_s(), 0.0);
}

TEST(PigContext, GroupAllCollectsOneBagInOrder) {
  mr::SimDfs dfs(dfs_options());
  PigContext ctx(&dfs, {});
  Relation input;
  for (long i = 0; i < 5; ++i) {
    Tuple tuple;
    tuple.fields.emplace_back(i);
    input.push_back(std::move(tuple));
  }
  const Relation grouped = ctx.group_all(input);
  ASSERT_EQ(grouped.size(), 1u);
  const auto& bag = grouped[0].get<Bag>(0);
  ASSERT_EQ(bag.size(), 5u);
  for (long i = 0; i < 5; ++i) EXPECT_EQ(bag[i].get<long>(0), i);
}

TEST(PigContext, StoreWritesTextToDfs) {
  mr::SimDfs dfs(dfs_options());
  PigContext ctx(&dfs, {});
  Tuple tuple;
  tuple.fields.emplace_back(std::string("r0"));
  tuple.fields.emplace_back(3L);
  ctx.store({tuple}, "/out/labels");
  EXPECT_EQ(dfs.read("/out/labels"), "r0\t3\n");
}

// ------------------------------------------------------------- Algorithm 3

TEST(Algorithm3, EndToEndProducesLabelsForEveryRead) {
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = 40, .seed = 5});
  mr::SimDfs dfs(dfs_options());
  dfs.write("/input.fa", bio::write_fasta_string(sample.reads));

  Algorithm3Params params;
  params.kmer = 5;
  params.num_hashes = 32;
  params.cutoff = 0.45;
  const Algorithm3Result result = run_algorithm3(
      dfs, "/input.fa", "/out/hier", "/out/greedy", params, {.nodes = 4});

  EXPECT_EQ(result.hierarchical.size(), 40u);
  EXPECT_EQ(result.greedy.size(), 40u);
  EXPECT_GT(result.sim_time_s, 0.0);
  EXPECT_EQ(result.jobs_run, 8u);  // 4 foreach + 2 group-all + sim + clustering
  EXPECT_TRUE(dfs.exists("/out/hier"));
  EXPECT_TRUE(dfs.exists("/out/greedy"));
}

TEST(Algorithm3, AgreesWithDirectPipeline) {
  // The Pig script and the core pipeline implement the same algorithms; on
  // the same input with the same parameters their hierarchical labelings
  // must match exactly (both deterministic).
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S10"), {.reads = 30, .seed = 6});
  mr::SimDfs dfs(dfs_options());
  dfs.write("/input.fa", bio::write_fasta_string(sample.reads));

  Algorithm3Params params;
  params.kmer = 5;
  params.num_hashes = 32;
  params.seed = 2;
  params.cutoff = 0.5;
  const auto pig_result = run_algorithm3(dfs, "/input.fa", "/h", "/g", params);

  core::PipelineParams core_params;
  core_params.minhash = {.kmer = 5, .num_hashes = 32, .seed = 2};
  core_params.theta = 0.5;
  core_params.mode = core::Mode::kHierarchical;
  const auto core_result = core::run_pipeline(sample.reads, core_params);

  std::map<std::string, int> pig_labels(pig_result.hierarchical.begin(),
                                        pig_result.hierarchical.end());
  for (std::size_t i = 0; i < sample.reads.size(); ++i) {
    EXPECT_EQ(pig_labels.at(sample.reads[i].id), core_result.labels[i]) << i;
  }
}

TEST(Algorithm3, StoredOutputIsParseable) {
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S13"), {.reads = 20, .seed = 7});
  mr::SimDfs dfs(dfs_options());
  dfs.write("/input.fa", bio::write_fasta_string(sample.reads));
  run_algorithm3(dfs, "/input.fa", "/oh", "/og", {});

  const std::string text = dfs.read("/og");
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 20u);
  EXPECT_NE(text.find('\t'), std::string::npos);
}

TEST(Algorithm3, PathsMayHoldDollarsButNotQuotes) {
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S13"), {.reads = 12, .seed = 7});
  mr::SimDfs dfs(dfs_options());
  dfs.write("/input.fa", bio::write_fasta_string(sample.reads));
  dfs.write("/in$1.fa", bio::write_fasta_string(sample.reads));
  run_algorithm3(dfs, "/input.fa", "/oh", "/og", {});
  // A '$' in a path is part of the path, never a parameter to resolve.
  run_algorithm3(dfs, "/in$1.fa", "/o/$INPUT", "/o/$OUTPUT1$", {});
  EXPECT_EQ(dfs.read("/o/$INPUT"), dfs.read("/oh"));
  EXPECT_EQ(dfs.read("/o/$OUTPUT1$"), dfs.read("/og"));

  // A quote would end the script's quoted path: the error names the path.
  try {
    run_algorithm3(dfs, "/input.fa", "/oh", "/o'g", {});
    FAIL() << "a quoted path must throw";
  } catch (const common::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("$OUTPUT2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mrmc::pig
