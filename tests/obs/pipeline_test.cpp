#include "obs/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "core/mrmc.hpp"
#include "mr/faults.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::obs::pipeline {
namespace {

// ------------------------------------------------------- lineage context

TEST(Lineage, NoScopeMeansNoClaim) {
  EXPECT_FALSE(active());
  EXPECT_FALSE(claim().has_value());
  EXPECT_FALSE(last_claim().has_value());
  EXPECT_FALSE(take_flow_link().valid);
}

TEST(Lineage, ClaimsAdvanceTheSequenceAndCarryTheStage) {
  PipelineScope scope("unit");
  EXPECT_TRUE(active());
  // The id is the name plus a process-wide serial.
  EXPECT_EQ(scope.id().rfind("unit#", 0), 0u);

  const auto first = claim();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->pipeline, scope.id());
  EXPECT_EQ(first->stage, "");
  EXPECT_EQ(first->round, -1);
  EXPECT_EQ(first->sequence, 0u);

  {
    StageScope stage("sketch", 3);
    const auto second = claim();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->stage, "sketch");
    EXPECT_EQ(second->round, 3);
    EXPECT_EQ(second->sequence, 1u);
    EXPECT_EQ(last_claim()->sequence, 1u);
  }
  // StageScope restored the previous (empty) stage.
  const auto third = claim();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->stage, "");
  EXPECT_EQ(third->sequence, 2u);
}

TEST(Lineage, NestedScopesShadowAndRestore) {
  PipelineScope outer("outer");
  (void)claim();
  {
    PipelineScope inner("inner");
    const auto inner_claim = claim();
    ASSERT_TRUE(inner_claim.has_value());
    EXPECT_EQ(inner_claim->pipeline.rfind("inner#", 0), 0u);
    EXPECT_EQ(inner_claim->sequence, 0u);
  }
  const auto outer_claim = claim();
  ASSERT_TRUE(outer_claim.has_value());
  EXPECT_EQ(outer_claim->pipeline, outer.id());
  EXPECT_EQ(outer_claim->sequence, 1u);  // outer counter kept its place
}

TEST(Lineage, StageScopeOutsideAPipelineIsANoOp) {
  StageScope stage("orphan");
  EXPECT_FALSE(active());
  EXPECT_FALSE(claim().has_value());
}

TEST(Lineage, FlowLinksAreConsumedOnce) {
  PipelineScope scope("flows");
  EXPECT_FALSE(take_flow_link().valid);
  set_flow_link(7, 1234.5);
  const FlowLink link = take_flow_link();
  EXPECT_TRUE(link.valid);
  EXPECT_EQ(link.pid, 7u);
  EXPECT_EQ(link.end_ts_us, 1234.5);
  EXPECT_FALSE(take_flow_link().valid);  // consumed
}

TEST(Lineage, FlowEventIdsAreDeterministic) {
  Claim a{"pipeline-x#1", "sketch", -1, 2};
  Claim b{"pipeline-x#1", "similarity", -1, 2};  // stage is irrelevant
  Claim c{"pipeline-y#1", "sketch", -1, 2};
  EXPECT_EQ(flow_event_id(a), flow_event_id(b));
  EXPECT_NE(flow_event_id(a), flow_event_id(c));
  EXPECT_NE(flow_event_id(a), flow_event_id(Claim{"pipeline-x#1", "", -1, 3}));
}

// ------------------------------------------------------- synthetic analyze

report::JobInput stage_input(const std::string& pipeline,
                             const std::string& stage, std::size_t sequence,
                             double startup_s, double shuffle_bytes) {
  report::JobInput input;
  input.name = stage;
  input.nodes = 2;
  input.map_slots_per_node = 2;
  input.reduce_slots_per_node = 1;
  input.job_startup_s = startup_s;
  input.shuffle_s = 0.5;
  input.shuffle_bytes = shuffle_bytes;
  input.map_tasks = {{0, 0, 0, 0.0, 4.0, true},
                     {1, 0, 1, 0.0, 3.0, true},
                     {2, 1, 0, 0.0, 5.0, true},
                     {3, 1, 1, 0.0, 4.5, true}};
  input.reduce_tasks = {{0, 0, 0, 0.0, 2.0, true}, {1, 1, 0, 0.0, 2.5, true}};
  input.pipeline = pipeline;
  input.stage = stage;
  input.sequence = sequence;
  return input;
}

PipelineInput two_stage_input() {
  PipelineInput input;
  input.id = "unit#1";
  StageRecord first{stage_input("unit#1", "sketch", 0, 8.0, 9e5), 1000.0,
                    21000.0};
  StageRecord second{stage_input("unit#1", "cluster", 1, 2.0, 1e5), 25000.0,
                     30000.0};
  input.stages = {first, second};
  return input;
}

TEST(Analyze, StitchesStagesInSequenceOrder) {
  const PipelineReport report = analyze(two_stage_input());
  EXPECT_EQ(report.id, "unit#1");
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].job.name, "sketch");
  EXPECT_EQ(report.stages[1].job.name, "cluster");

  // Aggregates are the left-to-right sums of the per-stage critical paths:
  // stage total = startup + map makespan (5.0) + shuffle (0.5) + reduce
  // makespan (2.5).
  EXPECT_EQ(report.startup_s, 8.0 + 2.0);
  EXPECT_EQ(report.map_s, 5.0 + 5.0);
  EXPECT_EQ(report.shuffle_s, 0.5 + 0.5);
  EXPECT_EQ(report.reduce_s, 2.5 + 2.5);
  EXPECT_EQ(report.sim_total_s,
            report.stages[0].job.total_s + report.stages[1].job.total_s);
  EXPECT_EQ(report.shuffle_bytes, 9e5 + 1e5);
  EXPECT_EQ(report.stages[0].sim_share + report.stages[1].sim_share, 1.0);

  // Wall facts from the driver's windows (microseconds -> seconds).
  EXPECT_TRUE(report.has_wall);
  EXPECT_DOUBLE_EQ(report.wall_total_s, (30000.0 - 1000.0) * 1e-6);
  EXPECT_DOUBLE_EQ(report.stages[1].gap_before_s, (25000.0 - 21000.0) * 1e-6);
  EXPECT_DOUBLE_EQ(report.driver_gap_s, (25000.0 - 21000.0) * 1e-6);
}

TEST(Analyze, StagesSortBySequenceNotArrivalOrder) {
  PipelineInput input = two_stage_input();
  std::swap(input.stages[0], input.stages[1]);
  const PipelineReport report = analyze(input);
  EXPECT_EQ(report.stages[0].job.name, "sketch");
  EXPECT_EQ(report.stages[1].job.name, "cluster");
}

TEST(Analyze, IncludeWallFalseDropsEveryWallFact) {
  PipelineAnalyzeOptions options;
  options.include_wall = false;
  const PipelineReport report = analyze(two_stage_input(), options);
  EXPECT_FALSE(report.has_wall);
  EXPECT_EQ(report.wall_total_s, 0.0);
  EXPECT_EQ(report.driver_gap_s, 0.0);
  for (const StageReport& stage : report.stages) {
    EXPECT_FALSE(stage.has_wall);
    EXPECT_EQ(stage.wall_s, 0.0);
    EXPECT_EQ(stage.gap_before_s, 0.0);
  }
  const std::string json = to_json(report);
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

TEST(Analyze, FindingsNameTheDominantStageAndStartup) {
  PipelineInput input = two_stage_input();
  // Make "sketch" dominate: stretch its map tasks.
  for (auto& task : input.stages[0].job.map_tasks) task.end_s = 60.0;
  const PipelineReport report = analyze(input);
  bool dominant = false;
  bool startup = false;
  for (const auto& finding : report.findings) {
    if (finding.id == "stage-dominant") dominant = true;
    if (finding.id == "startup-bound-pipeline") startup = true;
  }
  EXPECT_TRUE(dominant);
  EXPECT_FALSE(startup);  // startup share shrank with the longer maps
}

TEST(Renderers, TextJsonAndBenchAgreeOnTheStory) {
  const PipelineReport report = analyze(two_stage_input());
  const std::string text = to_text(report);
  EXPECT_NE(text.find("unit#1"), std::string::npos);
  EXPECT_NE(text.find("sketch"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);

  const auto parsed = common::parse_json(to_json(report));
  EXPECT_EQ(parsed.at("id").string, "unit#1");
  EXPECT_EQ(parsed.at("stages").array.size(), 2u);
  EXPECT_TRUE(parsed.at("stages").array[0].has("job"));

  // Bench rows key on (pipeline, stage) with the process serial stripped.
  const std::vector<PipelineReport> reports{report};
  const auto bench = common::parse_json(to_bench_json(reports));
  EXPECT_EQ(bench.at("bench").string, "pipeline");
  EXPECT_EQ(bench.at("schema_version").number, 1.0);
  const auto& rows = bench.at("rows").array;
  ASSERT_EQ(rows.size(), 3u);  // two stages + <total>
  EXPECT_EQ(rows[0].at("pipeline").string, "unit");
  EXPECT_EQ(rows[2].at("stage").string, "<total>");
}

// ------------------------------------------------------- end to end

class PipelineDoctorTest : public ::testing::Test {
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

  static std::vector<bio::FastaRecord> sample_reads(std::size_t count) {
    simdata::WholeMetagenomeOptions options;
    options.reads = count;
    return simdata::build_whole_metagenome(
               simdata::whole_metagenome_spec("S2"), options)
        .reads;
  }

  static core::PipelineResult run_sample(const std::string& trace_path,
                                         std::size_t threads = 2,
                                         core::Mode mode =
                                             core::Mode::kHierarchical) {
    core::PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true,
                      .seed = 1};
    params.mode = mode;
    params.theta = mode == core::Mode::kHierarchical ? 0.5 : 0.3;
    core::ExecutionOptions exec;
    exec.threads = threads;
    exec.records_per_split = 16;
    Tracer::global().set_output_path(trace_path);
    return core::run_pipeline(sample_reads(80), params, exec);
  }

  /// The process-wide pipeline serial differs between runs; normalize the
  /// ids so two runs' reports can be compared byte for byte.
  static void normalize(PipelineReport& report) {
    report.id = "normalized";
    for (auto& stage : report.stages) stage.job.pipeline = "normalized";
  }

  /// Every stage the trace rebuilt matches the job the pipeline ran: name,
  /// sequence, and the simulated timeline bit for bit.
  static void expect_stages_match(const PipelineReport& report,
                                  const std::vector<std::string>& names,
                                  const std::vector<const mr::JobStats*>& jobs) {
    ASSERT_EQ(report.stages.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      SCOPED_TRACE(names[i]);
      const report::JobReport& job = report.stages[i].job;
      const mr::JobTimeline& timeline = jobs[i]->timeline;
      EXPECT_EQ(job.name, names[i]);
      EXPECT_EQ(job.stage, names[i]);
      EXPECT_EQ(job.sequence, i);
      EXPECT_EQ(job.total_s, timeline.total_s);
      EXPECT_EQ(job.map_phase.makespan_s, timeline.map_phase.makespan_s);
      EXPECT_EQ(job.shuffle_s, timeline.shuffle_s);
      EXPECT_EQ(job.reduce_phase.makespan_s, timeline.reduce_phase.makespan_s);
      EXPECT_EQ(job.shuffle_bytes, jobs[i]->shuffle_bytes);
    }
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_F(PipelineDoctorTest, TraceReconstructionMatchesThePipelineResult) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_pipeline_roundtrip.json";
  const core::PipelineResult result = run_sample(trace_path);

  const std::vector<PipelineReport> reports = analyze_trace_file(trace_path);
  ASSERT_EQ(reports.size(), 1u);
  expect_stages_match(
      reports[0], {"sketch", "similarity", "hierarchical-cluster"},
      {&result.sketch_stats, &result.similarity_stats, &result.cluster_stats});
  // Stage totals add up in the order run_pipeline sums them.
  EXPECT_EQ(reports[0].sim_total_s, result.sim_total_s);
  // Every stage carries the driver's wall window.
  EXPECT_TRUE(reports[0].has_wall);
  for (const StageReport& stage : reports[0].stages) {
    EXPECT_TRUE(stage.has_wall);
  }
}

TEST_F(PipelineDoctorTest, LshCandidateStagesAppearAndRoundTrip) {
  // The hierarchical LSH path adds two jobs the doctor has never been
  // taught about — "candidates" and "verify" — and the stage list must
  // pick them up from lineage alone.
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_pipeline_candidates.json";
  core::PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true, .seed = 1};
  params.mode = core::Mode::kHierarchical;
  params.theta = 0.5;
  params.candidates.backend = core::candidates::Backend::kLshBanded;
  core::ExecutionOptions exec;
  exec.threads = 2;
  exec.records_per_split = 16;
  Tracer::global().set_output_path(trace_path);
  const core::PipelineResult result =
      core::run_pipeline(sample_reads(80), params, exec);

  const std::vector<PipelineReport> reports = analyze_trace_file(trace_path);
  ASSERT_EQ(reports.size(), 1u);
  expect_stages_match(reports[0],
                      {"sketch", "candidates", "verify", "hierarchical-cluster"},
                      {&result.sketch_stats, &result.candidate_stats,
                       &result.verify_stats, &result.cluster_stats});
}

TEST_F(PipelineDoctorTest, SamplerProgressAndFaultsLeaveTheReportIdentical) {
  // Combined-feature round trip: resource sampler + fault plan + progress
  // tracking + lineage all on.  Counter and flow events ride along in the
  // trace but must not perturb the reconstructed pipeline report, which is
  // held to the same faulted run without them.
  const std::string plain_path =
      ::testing::TempDir() + "/mrmc_pipeline_plain.json";
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_pipeline_combined.json";
  const auto run_faulted = [](const std::string& path) {
    core::PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true,
                      .seed = 1};
    params.mode = core::Mode::kHierarchical;
    params.theta = 0.5;
    core::ExecutionOptions exec;
    exec.threads = 2;
    exec.records_per_split = 16;
    exec.fault_plan = mr::faults::FaultPlan::random(11, exec.cluster.nodes, 1,
                                                    30.0);
    Tracer::global().set_output_path(path);
    return core::run_pipeline(sample_reads(80), params, exec);
  };
  run_faulted(plain_path);
  Tracer::global().clear();

  auto& progress_tracker = obs::progress::Tracker::global();
  progress_tracker.set_render(false);
  progress_tracker.set_enabled(true);
  {
    SamplerScope sampler(ResourceSampler::global());
    run_faulted(trace_path);
  }
  progress_tracker.set_enabled(false);

  // The trace really carries the ride-along layers...
  const std::string text = read_file(trace_path);
  EXPECT_NE(text.find("sim progress"), std::string::npos);
  EXPECT_NE(text.find("sim active tasks"), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(text.find("job_lineage"), std::string::npos);

  // ...and the simulated report equals the plain run's exactly.
  PipelineAnalyzeOptions options;
  options.include_wall = false;  // wall pacing differs between any two runs
  std::vector<PipelineReport> plain = analyze_trace_file(plain_path, options);
  std::vector<PipelineReport> combined =
      analyze_trace_file(trace_path, options);
  ASSERT_EQ(plain.size(), 1u);
  ASSERT_EQ(combined.size(), 1u);
  const std::string combined_id = combined[0].id;
  normalize(plain[0]);
  normalize(combined[0]);
  EXPECT_EQ(to_json(plain[0]), to_json(combined[0]));

  // The single-job doctor is equally unperturbed by the new layers.
  const auto jobs = report::analyze_trace_file(trace_path);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].pipeline, combined_id);
}

TEST_F(PipelineDoctorTest, SimFactsAreStableAcrossThreadCounts) {
  const std::string one_path = ::testing::TempDir() + "/mrmc_pipe_t1.json";
  const std::string three_path = ::testing::TempDir() + "/mrmc_pipe_t3.json";
  run_sample(one_path, 1);
  Tracer::global().clear();
  run_sample(three_path, 3);

  PipelineAnalyzeOptions options;
  options.include_wall = false;  // wall pacing is the only thread-y layer
  std::vector<PipelineReport> one = analyze_trace_file(one_path, options);
  std::vector<PipelineReport> three = analyze_trace_file(three_path, options);
  ASSERT_EQ(one.size(), 1u);
  ASSERT_EQ(three.size(), 1u);
  normalize(one[0]);
  normalize(three[0]);
  EXPECT_EQ(to_json(one[0]), to_json(three[0]));
}

TEST_F(PipelineDoctorTest, ConfiguredReportsWriteTheirFormats) {
  // MRMC_REPORT / MRMC_PIPELINE: run_pipeline renders both from the
  // tracer's events at its boundary, with no trace file involved.
  const std::string report_path =
      ::testing::TempDir() + "/mrmc_env_report.json";
  const std::string pipeline_path =
      ::testing::TempDir() + "/mrmc_env_pipeline.json";
  std::remove(report_path.c_str());
  std::remove(pipeline_path.c_str());
  ::setenv("MRMC_REPORT", report_path.c_str(), 1);
  ::setenv("MRMC_PIPELINE", pipeline_path.c_str(), 1);
  run_sample("");
  ::unsetenv("MRMC_REPORT");
  ::unsetenv("MRMC_PIPELINE");

  const auto parsed = common::parse_json(read_file(pipeline_path));
  ASSERT_EQ(parsed.at("pipelines").array.size(), 1u);
  EXPECT_EQ(parsed.at("pipelines").array[0].at("stages").array.size(), 3u);
  const auto jobs = common::parse_json(read_file(report_path)).at("jobs");
  bool cluster_stage = false;
  for (const auto& job : jobs.array) {
    cluster_stage |=
        job.at("lineage").at("stage").string == "hierarchical-cluster";
  }
  EXPECT_TRUE(cluster_stage);
}

#ifdef MRMC_DOCTOR_BIN
TEST_F(PipelineDoctorTest, CliPipelineModeReproducesTheInProcessReport) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_pipeline_cli_trace.json";
  const std::string in_process_path =
      ::testing::TempDir() + "/mrmc_pipeline_cli_in_process.json";
  const std::string out_path =
      ::testing::TempDir() + "/mrmc_pipeline_cli_report.json";
  ::setenv("MRMC_PIPELINE", in_process_path.c_str(), 1);
  run_sample(trace_path);
  ::unsetenv("MRMC_PIPELINE");

  const std::string command = std::string(MRMC_DOCTOR_BIN) + " pipeline " +
                              trace_path + " --format=json -o " + out_path;
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  // The CLI on the trace file writes exactly what MRMC_PIPELINE wrote from
  // the in-memory events — wall windows included.
  const std::string cli_text = read_file(out_path);
  EXPECT_FALSE(cli_text.empty());
  EXPECT_EQ(cli_text, read_file(in_process_path));
}

TEST_F(PipelineDoctorTest, CliJobsAndJobSelectorsBehave) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_pipeline_cli_jobs.json";
  const std::string jobs_path =
      ::testing::TempDir() + "/mrmc_pipeline_cli_jobs.txt";
  run_sample(trace_path);

  // `jobs` lists every simulated job with its pid and lineage.
  const std::string jobs_cmd = std::string(MRMC_DOCTOR_BIN) + " jobs " +
                               trace_path + " -o " + jobs_path;
  ASSERT_EQ(std::system(jobs_cmd.c_str()), 0) << jobs_cmd;
  std::ifstream in(jobs_path);
  std::ostringstream listing;
  listing << in.rdbuf();
  EXPECT_NE(listing.str().find("pid 2"), std::string::npos);
  EXPECT_NE(listing.str().find("\"sketch\""), std::string::npos);
  EXPECT_NE(listing.str().find("pipeline \""), std::string::npos);

  // --job narrows the report to one pid; an unknown pid is a clear error.
  const std::string one_job = std::string(MRMC_DOCTOR_BIN) + " " + trace_path +
                              " --job 2 --format=json -o " +
                              ::testing::TempDir() + "/mrmc_cli_job2.json";
  EXPECT_EQ(std::system(one_job.c_str()), 0) << one_job;
  const std::string bad_job = std::string(MRMC_DOCTOR_BIN) + " " + trace_path +
                              " --job 999 --format=json -o /dev/null"
                              " 2>/dev/null";
  EXPECT_NE(std::system(bad_job.c_str()), 0) << bad_job;
}
#endif  // MRMC_DOCTOR_BIN

}  // namespace
}  // namespace mrmc::obs::pipeline
