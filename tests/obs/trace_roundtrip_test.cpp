// Acceptance test for the dual-clock tracer: run the real pipeline with
// tracing enabled and prove that the exported per-task simulated events
// reconstruct each job's JobTimeline EXACTLY (bit-for-bit doubles), first
// from the in-memory events and then again after a full write-to-JSON /
// parse-back round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "common/mini_json.hpp"
#include "obs/trace.hpp"
#include "simdata/datasets.hpp"

namespace mrmc {
namespace {

using mrmc::common::JsonValue;
using mrmc::common::parse_json;

/// Phase endpoints recovered from trace events, grouped per simulated job.
struct RecoveredJob {
  std::vector<double> map_ends;
  std::vector<double> reduce_ends;
  double shuffle_start = 0.0;
  double shuffle_end = 0.0;
  bool has_shuffle = false;
};

double parse_exact(std::string_view text) {
  return std::strtod(std::string(text).c_str(), nullptr);
}

double max_or_zero(const std::vector<double>& values) {
  double max = 0.0;
  for (const double v : values) max = std::max(max, v);
  return max;
}

/// Group the tracer's in-memory sim events by job name (via the
/// "sim: <name>" process metadata on each sim pid).
std::map<std::string, RecoveredJob> recover_from_events(
    const std::vector<obs::TraceEvent>& events) {
  std::map<std::uint32_t, std::string> pid_to_job;
  for (const obs::TraceEvent& event : events) {
    if (event.phase == 'M' && event.name == "process_name" &&
        event.pid != obs::kRealPid) {
      std::string name(event.arg("name"));
      if (name.rfind("sim: ", 0) == 0) name.erase(0, 5);
      pid_to_job[event.pid] = name;
    }
  }

  std::map<std::string, RecoveredJob> jobs;
  for (const obs::TraceEvent& event : events) {
    if (event.category != "sim" || event.phase != 'X') continue;
    RecoveredJob& job = jobs[pid_to_job.at(event.pid)];
    const std::string_view phase = event.arg("phase");
    const double start = parse_exact(event.arg("start_s"));
    const double end = parse_exact(event.arg("end_s"));
    if (phase == "map") {
      job.map_ends.push_back(end);
    } else if (phase == "reduce") {
      job.reduce_ends.push_back(end);
    } else if (phase == "shuffle") {
      job.has_shuffle = true;
      job.shuffle_start = start;
      job.shuffle_end = end;
    }
  }
  return jobs;
}

/// Same recovery, but from the serialized Chrome trace JSON.
std::map<std::string, RecoveredJob> recover_from_json(const JsonValue& root) {
  const JsonValue& events = root.at("traceEvents");
  std::map<double, std::string> pid_to_job;  // JSON numbers parse as double
  for (const JsonValue& event : events.array) {
    if (event.at("ph").string == "M" &&
        event.at("name").string == "process_name" &&
        event.at("pid").number != obs::kRealPid) {
      std::string name = event.at("args").at("name").string;
      if (name.rfind("sim: ", 0) == 0) name.erase(0, 5);
      pid_to_job[event.at("pid").number] = name;
    }
  }

  std::map<std::string, RecoveredJob> jobs;
  for (const JsonValue& event : events.array) {
    if (event.at("ph").string != "X" || event.at("cat").string != "sim") {
      continue;
    }
    const JsonValue& args = event.at("args");
    RecoveredJob& job = jobs[pid_to_job.at(event.at("pid").number)];
    const std::string phase = args.at("phase").string;
    const double start = parse_exact(args.at("start_s").string);
    const double end = parse_exact(args.at("end_s").string);
    if (phase == "map") {
      job.map_ends.push_back(end);
    } else if (phase == "reduce") {
      job.reduce_ends.push_back(end);
    } else if (phase == "shuffle") {
      job.has_shuffle = true;
      job.shuffle_start = start;
      job.shuffle_end = end;
    }
  }
  return jobs;
}

/// The exactness claim: recovered endpoints equal the scheduler's doubles
/// bit for bit, so makespans (and the job total, re-added in the same
/// order simulate_job uses) match with EXPECT_EQ, not EXPECT_NEAR.
void expect_exact_reconstruction(const RecoveredJob& recovered,
                                 const mr::JobStats& stats,
                                 const mr::ClusterConfig& cluster,
                                 const std::string& context) {
  SCOPED_TRACE(context);
  const mr::JobTimeline& timeline = stats.timeline;
  ASSERT_EQ(recovered.map_ends.size(), timeline.map_phase.tasks.size());
  ASSERT_EQ(recovered.reduce_ends.size(), timeline.reduce_phase.tasks.size());

  const double map_makespan = max_or_zero(recovered.map_ends);
  const double reduce_makespan = max_or_zero(recovered.reduce_ends);
  EXPECT_EQ(map_makespan, timeline.map_phase.makespan_s);
  EXPECT_EQ(reduce_makespan, timeline.reduce_phase.makespan_s);

  double shuffle_s = 0.0;
  if (recovered.has_shuffle) {
    EXPECT_EQ(recovered.shuffle_start, 0.0);
    shuffle_s = recovered.shuffle_end;
  }
  EXPECT_EQ(shuffle_s, timeline.shuffle_s);

  // simulate_job computes total_s = startup + map + shuffle + reduce in this
  // order; repeating the additions left to right reproduces it exactly.
  EXPECT_EQ(cluster.job_startup_s + map_makespan + shuffle_s + reduce_makespan,
            timeline.total_s);
}

class TraceRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_output_path("");
    obs::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().set_output_path("");
    obs::Tracer::global().clear();
  }

  static std::vector<bio::FastaRecord> sample_reads(std::size_t count) {
    simdata::WholeMetagenomeOptions options;
    options.reads = count;
    return simdata::build_whole_metagenome(
               simdata::whole_metagenome_spec("S2"), options)
        .reads;
  }
};

TEST_F(TraceRoundTripTest, HierarchicalPipelineEventsReconstructTimelines) {
  const auto reads = sample_reads(80);
  core::PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true, .seed = 1};
  params.mode = core::Mode::kHierarchical;
  params.theta = 0.5;
  core::ExecutionOptions exec;
  exec.threads = 2;
  exec.records_per_split = 16;  // several map tasks per job

  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_roundtrip_hier.json";
  obs::Tracer::global().set_output_path(trace_path);

  const core::PipelineResult result = core::run_pipeline(reads, params, exec);

  // Pass 1: reconstruct from the in-memory events.
  const auto jobs = recover_from_events(obs::Tracer::global().events());
  ASSERT_TRUE(jobs.count("sketch"));
  ASSERT_TRUE(jobs.count("similarity"));
  ASSERT_TRUE(jobs.count("hierarchical-cluster"));
  expect_exact_reconstruction(jobs.at("sketch"), result.sketch_stats,
                              exec.cluster, "sketch (memory)");
  expect_exact_reconstruction(jobs.at("similarity"), result.similarity_stats,
                              exec.cluster, "similarity (memory)");
  expect_exact_reconstruction(jobs.at("hierarchical-cluster"),
                              result.cluster_stats, exec.cluster,
                              "cluster (memory)");

  // Pass 2: the pipeline flushed the Chrome trace file; parse it back and
  // verify the very same equalities survive serialization.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = parse_json(buffer.str());
  EXPECT_EQ(root.at("displayTimeUnit").string, "ms");

  const auto json_jobs = recover_from_json(root);
  ASSERT_EQ(json_jobs.size(), 3u);
  expect_exact_reconstruction(json_jobs.at("sketch"), result.sketch_stats,
                              exec.cluster, "sketch (json)");
  expect_exact_reconstruction(json_jobs.at("similarity"),
                              result.similarity_stats, exec.cluster,
                              "similarity (json)");
  expect_exact_reconstruction(json_jobs.at("hierarchical-cluster"),
                              result.cluster_stats, exec.cluster,
                              "cluster (json)");
}

TEST_F(TraceRoundTripTest, GreedyPipelineEventsReconstructTimelines) {
  const auto reads = sample_reads(60);
  core::PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true, .seed = 2};
  params.mode = core::Mode::kGreedy;
  params.theta = 0.3;
  core::ExecutionOptions exec;
  exec.threads = 2;
  exec.records_per_split = 16;

  const core::PipelineResult result = core::run_pipeline(reads, params, exec);

  const auto jobs = recover_from_events(obs::Tracer::global().events());
  ASSERT_TRUE(jobs.count("sketch"));
  ASSERT_TRUE(jobs.count("greedy-cluster"));
  expect_exact_reconstruction(jobs.at("sketch"), result.sketch_stats,
                              exec.cluster, "sketch");
  expect_exact_reconstruction(jobs.at("greedy-cluster"), result.cluster_stats,
                              exec.cluster, "greedy-cluster");

  // The wall-clock track carries the real-execution spans alongside.
  bool saw_pipeline_span = false;
  bool saw_job_span = false;
  for (const obs::TraceEvent& event : obs::Tracer::global().events()) {
    if (event.pid != obs::kRealPid || event.phase != 'X') continue;
    if (event.name.rfind("pipeline ", 0) == 0) saw_pipeline_span = true;
    if (event.name.rfind("mr.job ", 0) == 0) saw_job_span = true;
  }
  EXPECT_TRUE(saw_pipeline_span);
  EXPECT_TRUE(saw_job_span);
}

TEST_F(TraceRoundTripTest, LshPipelineSpansItsSerialSections) {
  // The serial work between an LSH run's jobs gets its own
  // wall-clock spans: the candidates CSR join and, on glibc, the
  // malloc_trim after the candidates job.
  const auto reads = sample_reads(60);
  core::PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 40, .canonical = true, .seed = 2};
  params.mode = core::Mode::kGreedy;
  params.theta = 0.3;
  params.candidates.backend = core::candidates::Backend::kLshBanded;
  core::ExecutionOptions exec;
  exec.threads = 2;
  exec.records_per_split = 16;

  (void)core::run_pipeline(reads, params, exec);

  std::map<std::string, int> spans;
  for (const obs::TraceEvent& event : obs::Tracer::global().events()) {
    if (event.pid == obs::kRealPid && event.phase == 'X') ++spans[event.name];
  }
  EXPECT_EQ(spans["pipeline/candidates_join"], 1);
#if defined(__GLIBC__)
  EXPECT_EQ(spans["pipeline/malloc_trim"], 1);
#endif
}

}  // namespace
}  // namespace mrmc
