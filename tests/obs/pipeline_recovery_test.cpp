// Pipeline-doctor coverage for the recovery layer: "stage_checkpoint"
// instants rebuild a "recovery" section that matches the stage driver's own
// counts, for cold runs (all misses), resumed runs (all hits, no jobs at
// all), and crashed runs resumed mid-pipeline.
#include "obs/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "core/pipeline.hpp"
#include "mr/recovery.hpp"
#include "obs/trace.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::obs::pipeline {
namespace {

class PipelineRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().clear();
    Tracer::global().set_output_path("");
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().set_output_path("");
    Tracer::global().clear();
  }

  static std::string fresh_dir(const std::string& tag) {
    static int serial = 0;
    const std::string dir = ::testing::TempDir() + "/mrmc_obs_recovery_" +
                            tag + std::to_string(serial++);
    std::filesystem::remove_all(dir);
    return dir;
  }

  static std::vector<bio::FastaRecord> sample_reads() {
    return simdata::build_whole_metagenome(
               simdata::whole_metagenome_spec("S2"), {.reads = 60, .seed = 3})
        .reads;
  }

  static core::PipelineResult run_checkpointed(const std::string& ckpt_dir,
                                               const std::string& trace_path) {
    core::PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true,
                      .seed = 1};
    params.mode = core::Mode::kHierarchical;
    params.theta = 0.5;
    core::ExecutionOptions exec;
    exec.threads = 2;
    exec.records_per_split = 16;
    exec.checkpoint_dir = ckpt_dir;
    Tracer::global().set_output_path(trace_path);
    return core::run_pipeline(sample_reads(), params, exec);
  }

  static bool has_finding(const PipelineReport& report,
                          const std::string& id) {
    for (const auto& finding : report.findings) {
      if (finding.id == id) return true;
    }
    return false;
  }
};

TEST_F(PipelineRecoveryTest, ColdRunRecoverySectionRoundTripsByteIdentical) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_recovery_cold_trace.json";
  const core::PipelineResult result =
      run_checkpointed(fresh_dir("cold"), trace_path);

  const std::vector<PipelineReport> offline = analyze_trace_file(trace_path);
  ASSERT_EQ(offline.size(), 1u);
  EXPECT_EQ(offline[0].stages.size(), 3u);
  ASSERT_EQ(offline[0].recovery.rows.size(), 3u);
  // The section agrees with the driver's own counts.
  EXPECT_EQ(offline[0].recovery.hits, result.recovery.checkpoint_hits);
  EXPECT_EQ(offline[0].recovery.misses, result.recovery.checkpoint_misses);
  EXPECT_EQ(offline[0].recovery.writes, result.recovery.checkpoint_writes);
  EXPECT_EQ(offline[0].recovery.misses, 3u);
  EXPECT_EQ(offline[0].recovery.rows[0].stage, "sketch");
  EXPECT_EQ(offline[0].recovery.rows[0].outcome, "miss+write");
  EXPECT_FALSE(has_finding(offline[0], "checkpoint-resume"));

  // The tracer's in-memory events (MRMC_PIPELINE's route) give the bytes
  // the trace file does.
  const std::vector<PipelineReport> in_memory =
      analyze_trace(report::trace_root(Tracer::global()));
  ASSERT_EQ(in_memory.size(), 1u);
  EXPECT_EQ(to_json(in_memory[0]), to_json(offline[0]));

  // The renderers actually surface the section.
  EXPECT_NE(to_text(offline[0]).find("recovery:"), std::string::npos);
  const auto parsed = common::parse_json(to_json(offline[0]));
  EXPECT_EQ(parsed.at("recovery").at("stages").array.size(), 3u);
  EXPECT_NE(render(offline, "text").find("recovery"), std::string::npos);
}

TEST_F(PipelineRecoveryTest, ResumedRunIsRecoveryOnlyAndStillRoundTrips) {
  const std::string ckpt_dir = fresh_dir("resume");
  run_checkpointed(ckpt_dir, ::testing::TempDir() + "/mrmc_warmup_trace.json");
  Tracer::global().clear();

  // Warm run: every stage hits, no MapReduce job runs, so the pipeline
  // exists in the trace ONLY through its recovery rows — and MRMC_PIPELINE
  // must not treat such a pipeline as empty.
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_recovery_warm_trace.json";
  const std::string out_path =
      ::testing::TempDir() + "/mrmc_recovery_warm_report.json";
  ::setenv("MRMC_PIPELINE", out_path.c_str(), 1);
  const core::PipelineResult result =
      run_checkpointed(ckpt_dir, trace_path);
  ::unsetenv("MRMC_PIPELINE");
  EXPECT_EQ(result.recovery.checkpoint_hits, 3u);

  const std::vector<PipelineReport> offline = analyze_trace_file(trace_path);
  ASSERT_EQ(offline.size(), 1u);
  EXPECT_TRUE(offline[0].stages.empty());
  EXPECT_EQ(offline[0].recovery.hits, 3u);
  EXPECT_EQ(offline[0].recovery.misses, 0u);
  for (const RecoveryRecord& row : offline[0].recovery.rows) {
    EXPECT_EQ(row.outcome, "hit");
  }
  // A fully-resumed run announces itself.
  EXPECT_TRUE(has_finding(offline[0], "checkpoint-resume"));

  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  const auto parsed = common::parse_json(text.str());
  ASSERT_EQ(parsed.at("pipelines").array.size(), 1u);
  EXPECT_EQ(parsed.at("pipelines")
                .array[0]
                .at("recovery")
                .at("hits")
                .number,
            3.0);
}

TEST_F(PipelineRecoveryTest, CrashedThenResumedRunKeepsStageNamesAligned) {
  // Kill the driver after "similarity"; the resumed run claims the killed
  // stages' lineage slots from checkpoint, so its computed stage keeps the
  // sequence number an uninterrupted run would give it.
  const std::string ckpt_dir = fresh_dir("crash");
  ::setenv("MRMC_CRASH_AFTER_STAGE", "similarity", 1);
  EXPECT_THROW(run_checkpointed(ckpt_dir, ::testing::TempDir() +
                                              "/mrmc_crash_trace.json"),
               mr::recovery::InjectedDriverCrash);
  ::unsetenv("MRMC_CRASH_AFTER_STAGE");
  Tracer::global().clear();

  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_resume_trace.json";
  const core::PipelineResult result = run_checkpointed(ckpt_dir, trace_path);

  const std::vector<PipelineReport> offline = analyze_trace_file(trace_path);
  ASSERT_EQ(offline.size(), 1u);
  // One computed job, two checkpoint hits — and the computed job landed on
  // the sequence slot of an uninterrupted run (2, after the two hits).
  ASSERT_EQ(offline[0].stages.size(), 1u);
  EXPECT_EQ(offline[0].stages[0].job.name, "hierarchical-cluster");
  EXPECT_EQ(offline[0].stages[0].job.sequence, 2u);  // slots 0-1 were
                                                     // claimed by the hits
  EXPECT_EQ(offline[0].stages[0].job.total_s,
            result.cluster_stats.timeline.total_s);
  EXPECT_EQ(offline[0].recovery.hits, 2u);
  EXPECT_EQ(offline[0].recovery.misses, 1u);
  EXPECT_TRUE(has_finding(offline[0], "checkpoint-resume"));
}

}  // namespace
}  // namespace mrmc::obs::pipeline
