// Tests for the job doctor (obs::report): the analyzer's critical-path
// arithmetic and findings heuristics, the golden straggler detection on a
// deterministic seeded Job timeline, and the exactness claim that a job
// rebuilt from the trace reproduces the simulated JobTimeline bit for bit.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "mr/cluster.hpp"
#include "mr/job.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mrmc {
namespace {

using obs::report::analyze;
using obs::report::AnalyzeOptions;
using obs::report::JobInput;
using obs::report::JobReport;
using obs::report::Severity;
using obs::report::TaskSample;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The jobs in the global tracer's buffer — the route MRMC_REPORT takes.
std::vector<JobInput> traced_jobs() {
  return obs::report::jobs_from_trace(
      obs::report::trace_root(obs::Tracer::global()));
}

JobInput two_node_input() {
  JobInput input;
  input.name = "unit";
  input.nodes = 2;
  input.map_slots_per_node = 2;
  input.reduce_slots_per_node = 1;
  input.job_startup_s = 8.0;
  input.shuffle_s = 3.5;
  input.shuffle_bytes = 1e6;
  input.map_tasks = {{0, 0, 0, 0.0, 4.0, true},
                     {1, 0, 1, 0.0, 3.0, true},
                     {2, 1, 0, 0.0, 5.0, true},
                     {3, 1, 1, 0.0, 4.5, true}};
  input.reduce_tasks = {{0, 0, 0, 0.0, 2.0, true}, {1, 1, 0, 0.0, 2.5, true}};
  return input;
}

TEST(Analyze, DecomposesTheCriticalPath) {
  const JobReport report = analyze(two_node_input());
  EXPECT_EQ(report.name, "unit");
  EXPECT_EQ(report.nodes, 2u);
  EXPECT_DOUBLE_EQ(report.map_phase.makespan_s, 5.0);
  EXPECT_DOUBLE_EQ(report.reduce_phase.makespan_s, 2.5);
  // Exactly startup + map + shuffle + reduce, left to right.
  EXPECT_EQ(report.total_s, ((8.0 + 5.0) + 3.5) + 2.5);
  EXPECT_DOUBLE_EQ(report.map_phase.busy_s, 16.5);
  EXPECT_EQ(report.map_phase.busy_slots, 4u);
  EXPECT_EQ(report.map_phase.slots, 4u);
  EXPECT_DOUBLE_EQ(report.map_phase.ideal_s, 16.5 / 4.0);
  EXPECT_DOUBLE_EQ(report.map_phase.parallel_efficiency, 16.5 / (5.0 * 4.0));
  ASSERT_EQ(report.map_phase.node_busy_s.size(), 2u);
  EXPECT_DOUBLE_EQ(report.map_phase.node_busy_s[0], 7.0);
  EXPECT_DOUBLE_EQ(report.map_phase.node_busy_s[1], 9.5);
  ASSERT_EQ(report.node_utilization.size(), 2u);
  // Node 0: 7.0 map + 2.0 reduce over (5.0 x 2 + 2.5 x 1) slot-seconds.
  EXPECT_DOUBLE_EQ(report.node_utilization[0].busy_s, 9.0);
  EXPECT_DOUBLE_EQ(report.node_utilization[0].utilization, 9.0 / 12.5);
  // Balanced job: no straggler/skew/idle findings.
  EXPECT_FALSE(report.has_finding("map-straggler"));
  EXPECT_FALSE(report.has_finding("reduce-skew"));
  EXPECT_FALSE(report.has_finding("map-idle-slots"));
}

TEST(Analyze, FlagsStragglerAndSkewAndNamesTheTask) {
  JobInput input = two_node_input();
  input.reduce_tasks = {{0, 0, 0, 0.0, 1.0, true},
                        {1, 1, 0, 0.0, 1.0, true},
                        {2, 0, 0, 1.0, 2.0, true},
                        {3, 1, 0, 1.0, 11.0, true}};
  const JobReport report = analyze(input);
  EXPECT_TRUE(report.has_finding("reduce-straggler"));
  EXPECT_TRUE(report.has_finding("reduce-skew"));
  bool named = false;
  for (const auto& finding : report.findings) {
    if (finding.id == "reduce-straggler") {
      named = finding.message.find("task 3 on node 1") != std::string::npos;
      EXPECT_EQ(finding.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(named);
}

TEST(Analyze, FlagsIdleSlotsStartupBoundAndLowLocality) {
  JobInput input = two_node_input();
  input.nodes = 8;  // way more slots than tasks
  input.map_tasks = {{0, 0, 0, 0.0, 4.0, false},
                     {1, 0, 1, 0.0, 3.0, false},
                     {2, 1, 0, 0.0, 5.0, true}};
  input.reduce_tasks = {{0, 0, 0, 0.0, 0.5, true}};
  const JobReport report = analyze(input);
  EXPECT_TRUE(report.has_finding("map-idle-slots"));
  EXPECT_TRUE(report.has_finding("reduce-idle-slots"));
  EXPECT_TRUE(report.has_finding("startup-bound"));  // 8s of a ~17s job
  EXPECT_TRUE(report.has_finding("low-locality"));   // 1 of 3 local
  EXPECT_TRUE(report.has_finding("low-parallel-efficiency"));
  // Findings are ordered most severe first.
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_GE(static_cast<int>(report.findings[i - 1].severity),
              static_cast<int>(report.findings[i].severity));
  }
}

TEST(Analyze, ShuffleBoundFiresOnShuffleHeavyJobs) {
  JobInput input = two_node_input();
  input.shuffle_s = 50.0;
  input.shuffle_bytes = 4e9;
  const JobReport report = analyze(input);
  EXPECT_TRUE(report.has_finding("shuffle-bound"));
}

TEST(Renderers, TextJsonAndHtmlTellTheSameStory) {
  JobInput input = two_node_input();
  input.name = "render <job> & escape";
  input.map_tasks.push_back({4, 1, 0, 5.0, 25.0, true});  // a straggler
  const JobReport report = analyze(input);
  ASSERT_TRUE(report.has_finding("map-straggler"));

  const std::string text = obs::report::to_text(report);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("map-straggler"), std::string::npos);
  EXPECT_NE(text.find("node utilization"), std::string::npos);

  const std::string json = obs::report::to_json(report);
  const common::JsonValue root = common::parse_json(json);
  EXPECT_EQ(root.at("name").string, input.name);
  // %.17g doubles survive the parse bit-for-bit.
  EXPECT_EQ(root.at("critical_path").at("total_s").number, report.total_s);
  EXPECT_EQ(root.at("map").at("busy_s").number, report.map_phase.busy_s);
  bool straggler_in_json = false;
  for (const auto& finding : root.at("findings").array) {
    straggler_in_json |= finding.at("id").string == "map-straggler";
  }
  EXPECT_TRUE(straggler_in_json);

  const std::vector<JobInput> jobs{input};
  const std::string html = obs::report::to_html(jobs);
  EXPECT_NE(html.find("<h3>schedule</h3>"), std::string::npos);  // the Gantt
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("render &lt;job&gt; &amp; escape"), std::string::npos);
  EXPECT_EQ(html.find("<job>"), std::string::npos);  // name was escaped
}

// ---------------------------------------------------------------- golden

using CountJob = mr::Job<std::string, std::string, long,
                         std::pair<std::string, long>>;

/// Deterministic job with seeded injected stragglers: every map task models
/// the same work, except the straggler_rate fraction that runs
/// straggler_slowdown x longer (mr::Job's per-task-index seeded rng).
mr::JobStats golden_straggler_stats(double straggler_rate) {
  static common::ThreadPool pool(2);
  mr::JobConfig config;
  config.name = "golden";
  config.records_per_split = 1;  // one map task per line
  config.pool = &pool;
  config.cluster.nodes = 4;
  config.seed = 7;
  config.straggler_rate = straggler_rate;
  config.straggler_slowdown = 8.0;

  CountJob job(
      config,
      [](const std::string& line, mr::Emitter<std::string, long>& emit) {
        emit.emit(line.substr(0, 1), 1);
      },
      [](const std::string& key, std::vector<long>& counts,
         std::vector<std::pair<std::string, long>>& out) {
        out.emplace_back(key, static_cast<long>(counts.size()));
      });
  job.with_map_work([](const std::string&) { return 40.0; });

  std::vector<std::string> lines;
  for (int i = 0; i < 16; ++i) lines.push_back("line " + std::to_string(i));
  return job.run(lines).stats;
}

TEST(GoldenStraggler, InjectedSkewYieldsANamedFinding) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  (void)golden_straggler_stats(0.25);
  (void)golden_straggler_stats(0.0);  // control: no injection
  const std::vector<JobInput> jobs = traced_jobs();
  tracer.set_enabled(false);
  tracer.clear();
  ASSERT_EQ(jobs.size(), 2u);
  const JobInput& input = jobs[0];
  ASSERT_EQ(input.map_tasks.size(), 16u);

  // Sanity: the injection really produced a >2x-median map task.
  double median = 0.0, max = 0.0;
  {
    std::vector<double> durations;
    for (const TaskSample& task : input.map_tasks) {
      durations.push_back(task.duration_s());
    }
    std::sort(durations.begin(), durations.end());
    median = durations[durations.size() / 2];
    max = durations.back();
  }
  ASSERT_GT(max, 2.0 * median)
      << "seeded straggler injection produced no straggler";

  EXPECT_TRUE(analyze(input).has_finding("map-straggler"));
  // Without injection the same job is clean.
  EXPECT_FALSE(analyze(jobs[1]).has_finding("map-straggler"));
}

// ------------------------------------------------------------- round trip

class DoctorRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().set_output_path("");
    obs::Tracer::global().clear();
  }
};

constexpr double kShuffleBytes[] = {2.3e8, 7.7e7};

mr::ClusterConfig two_job_cluster() {
  mr::ClusterConfig config;
  config.nodes = 3;
  return config;
}

/// Two dissimilar jobs with awkward doubles: bandwidth divisions, locality
/// misses, a straggler, and an empty map phase.  Flushes the trace to
/// `trace_path` and returns the timelines simulate_job computed — the
/// reference every reconstruction is held to.
std::vector<mr::JobTimeline> simulate_two_jobs(const std::string& trace_path) {
  const mr::SimScheduler scheduler(two_job_cluster());

  std::vector<mr::TaskSpec> maps;
  for (int i = 0; i < 11; ++i) {
    maps.push_back({i == 4 ? 700.0 : 30.0 + static_cast<double>(i) / 3.0,
                    1.7e6, 3.1e5, i % 4 == 0 ? -1 : i % 3});
  }
  std::vector<mr::TaskSpec> reduces(5, {20.0, 2.5e6, 1.25e6, -1});
  mr::JobTimeline first =
      simulate_job(scheduler, maps, kShuffleBytes[0], {}, reduces, "roundtrip A");

  std::vector<mr::TaskSpec> lone_reduce{{55.5, 9.9e6, 1e3, -1}};
  mr::JobTimeline second =
      simulate_job(scheduler, {}, kShuffleBytes[1], {}, lone_reduce,
                   "roundtrip B");

  auto& tracer = obs::Tracer::global();
  tracer.set_output_path(trace_path);
  EXPECT_TRUE(tracer.flush());
  return {std::move(first), std::move(second)};
}

/// A job rebuilt from the trace carries the simulated timeline's numbers
/// bit for bit: cluster shape, every task placement, shuffle, makespans.
void expect_matches_timeline(const JobInput& job,
                             const mr::JobTimeline& timeline,
                             double shuffle_bytes) {
  const mr::ClusterConfig config = two_job_cluster();
  EXPECT_EQ(job.nodes, config.nodes);
  EXPECT_EQ(job.map_slots_per_node, config.map_slots_per_node);
  EXPECT_EQ(job.reduce_slots_per_node, config.reduce_slots_per_node);
  EXPECT_EQ(job.job_startup_s, config.job_startup_s);
  EXPECT_EQ(job.shuffle_s, timeline.shuffle_s);
  EXPECT_EQ(job.shuffle_bytes, shuffle_bytes);
  const auto expect_tasks = [](const std::vector<TaskSample>& tasks,
                               const mr::PhaseTimeline& phase) {
    ASSERT_EQ(tasks.size(), phase.tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      SCOPED_TRACE("task " + std::to_string(i));
      EXPECT_EQ(tasks[i].index, i);
      EXPECT_EQ(tasks[i].node, phase.tasks[i].node);
      EXPECT_EQ(tasks[i].slot, phase.tasks[i].slot);
      EXPECT_EQ(tasks[i].start_s, phase.tasks[i].start_s);
      EXPECT_EQ(tasks[i].end_s, phase.tasks[i].end_s);
      EXPECT_EQ(tasks[i].data_local, phase.tasks[i].data_local);
    }
  };
  expect_tasks(job.map_tasks, timeline.map_phase);
  expect_tasks(job.reduce_tasks, timeline.reduce_phase);
  const JobReport report = analyze(job);
  EXPECT_EQ(report.map_phase.makespan_s, timeline.map_phase.makespan_s);
  EXPECT_EQ(report.reduce_phase.makespan_s, timeline.reduce_phase.makespan_s);
  EXPECT_EQ(report.total_s, timeline.total_s);
}

TEST_F(DoctorRoundTripTest, TraceRebuildsTheTimelineBitForBit) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_doctor_roundtrip.json";
  const std::vector<mr::JobTimeline> timelines = simulate_two_jobs(trace_path);

  const std::vector<JobInput> jobs =
      obs::report::jobs_from_trace(obs::report::load_trace(trace_path));
  ASSERT_EQ(jobs.size(), timelines.size());
  EXPECT_EQ(jobs[0].name, "roundtrip A");
  EXPECT_EQ(jobs[1].name, "roundtrip B");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].name);
    expect_matches_timeline(jobs[i], timelines[i], kShuffleBytes[i]);
  }
}

TEST_F(DoctorRoundTripTest, SamplerCountersLeaveTheReportByteIdentical) {
  // Counter events ('C') ride along in the trace but are invisible to the
  // report reconstruction: a sampler-on trace must yield the exact bytes a
  // sampler-off trace does.
  const std::string off_path = ::testing::TempDir() + "/sampler_off.json";
  const std::string on_path = ::testing::TempDir() + "/sampler_on.json";
  simulate_two_jobs(off_path);

  auto& sampler = obs::ResourceSampler::global();
  sampler.set_period_ms(1e9);  // enabled, but the thread never gets a tick
  sampler.set_enabled(true);
  obs::Tracer::global().clear();
  sampler.sample_once();  // wall-clock counters on the real track
  simulate_two_jobs(on_path);  // + deterministic sim-grid task counters
  sampler.set_enabled(false);

  // The sampler-on trace really carries counter events...
  const std::string trace_text = read_file(on_path);
  EXPECT_NE(trace_text.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(trace_text.find("sim active tasks"), std::string::npos);

  // ...and the reconstructed reports are byte-identical regardless.
  const std::vector<JobReport> off = obs::report::analyze_trace_file(off_path);
  const std::vector<JobReport> on = obs::report::analyze_trace_file(on_path);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(obs::report::to_json(off[i]), obs::report::to_json(on[i]));
  }
}

TEST_F(DoctorRoundTripTest, ByteAccountingSurvivesTheTraceRoundTrip) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_doctor_bytes.json";
  const std::vector<mr::JobTimeline> timelines = simulate_two_jobs(trace_path);
  ASSERT_FALSE(timelines[0].bytes.empty());

  const std::vector<JobReport> reports =
      obs::report::analyze_trace_file(trace_path);
  ASSERT_EQ(reports.size(), timelines.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const obs::report::ByteSummary& want = timelines[i].bytes;
    const obs::report::ByteSummary& got = reports[i].bytes;
    EXPECT_EQ(got.map_input_bytes, want.map_input_bytes);
    EXPECT_EQ(got.map_output_bytes, want.map_output_bytes);
    EXPECT_EQ(got.reduce_input_bytes, want.reduce_input_bytes);
    EXPECT_EQ(got.reduce_output_bytes, want.reduce_output_bytes);
    EXPECT_EQ(got.fetch_bytes, want.fetch_bytes);
    EXPECT_EQ(got.fetch_count, want.fetch_count);
    EXPECT_EQ(got.max_fetch_fan_in, want.max_fetch_fan_in);
    // The rendered "bytes" section appears exactly when bytes were moved.
    EXPECT_EQ(obs::report::to_json(reports[i]).find("\"bytes\"") !=
                  std::string::npos,
              !want.empty());
  }
}

#ifdef MRMC_DOCTOR_BIN
TEST_F(DoctorRoundTripTest, CliBinaryReproducesTheInProcessReport) {
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_doctor_cli_trace.json";
  const std::string out_path =
      ::testing::TempDir() + "/mrmc_doctor_cli_report.json";
  const std::string html_path =
      ::testing::TempDir() + "/mrmc_doctor_cli_report.html";
  const std::vector<mr::JobTimeline> timelines = simulate_two_jobs(trace_path);
  // What MRMC_REPORT renders from the tracer's in-memory events.
  const std::string in_process = obs::report::render(traced_jobs(), "json");

  const std::string command = std::string(MRMC_DOCTOR_BIN) + " " + trace_path +
                              " --format=json -o " + out_path;
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  EXPECT_EQ(read_file(out_path), in_process);

  const common::JsonValue root = common::parse_json(in_process);
  const auto& jobs = root.at("jobs").array;
  ASSERT_EQ(jobs.size(), timelines.size());
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    // strtod on the CLI's %.17g output recovers the scheduler's doubles.
    const common::JsonValue& path = jobs[i].at("critical_path");
    EXPECT_EQ(path.at("total_s").number, timelines[i].total_s);
    EXPECT_EQ(path.at("map_s").number, timelines[i].map_phase.makespan_s);
    EXPECT_EQ(path.at("reduce_s").number,
              timelines[i].reduce_phase.makespan_s);
    EXPECT_EQ(path.at("shuffle_s").number, timelines[i].shuffle_s);
  }

  // The offline HTML report draws each job's schedule.
  const std::string html_command = std::string(MRMC_DOCTOR_BIN) + " " +
                                   trace_path + " -o " + html_path +
                                   " 2>/dev/null";
  ASSERT_EQ(std::system(html_command.c_str()), 0) << html_command;
  EXPECT_NE(read_file(html_path).find("<h3>schedule</h3>"),
            std::string::npos);
}
#endif  // MRMC_DOCTOR_BIN

// ------------------------------------------------------------------ output

TEST(ReportOutput, WritesTheFormatTheExtensionAsksFor) {
  const std::vector<JobInput> jobs{two_node_input()};

  const std::string html_path = ::testing::TempDir() + "/mrmc_report.html";
  ASSERT_TRUE(obs::report::write_report(html_path, jobs));
  const std::string html = read_file(html_path);
  EXPECT_NE(html.find("<h3>schedule</h3>"), std::string::npos);
  EXPECT_NE(html.find("unit"), std::string::npos);

  const std::string json_path = ::testing::TempDir() + "/mrmc_report.json";
  ASSERT_TRUE(obs::report::write_report(json_path, jobs));
  const common::JsonValue root = common::parse_json(read_file(json_path));
  ASSERT_EQ(root.at("jobs").array.size(), 1u);
  EXPECT_EQ(root.at("jobs").array[0].at("name").string, "unit");

  const std::string text_path = ::testing::TempDir() + "/mrmc_report.txt";
  ASSERT_TRUE(obs::report::write_report(text_path, jobs));
  EXPECT_NE(read_file(text_path).find("critical path"), std::string::npos);

  EXPECT_FALSE(obs::report::write_report(text_path, {}));  // nothing to write
}

}  // namespace
}  // namespace mrmc
