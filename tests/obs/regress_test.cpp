// Tests for the cross-run regression doctor (obs::regress): artifact
// loaders (BENCH records, Chrome traces, report JSON, metrics snapshots),
// the direction/noise heuristics, the compare verdict logic, and the
// acceptance claims — two same-seed runs compare clean, an artificially
// slowed run is flagged (including via the mrmc_doctor CLI's exit code).
#include "obs/regress.hpp"

#include <gtest/gtest.h>
#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/mini_json.hpp"
#include "mr/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace mrmc::obs::regress {
namespace {

constexpr const char* kBenchJson =
    "{\"bench\": \"fig9\", \"schema_version\": 1,"
    " \"keys\": [\"reads\", \"nodes\"], \"rows\": [\n"
    "  {\"reads\": 1000, \"nodes\": 2, \"sim_total_s\": 38.5,"
    "   \"parallel_efficiency\": 0.71, \"findings\": \"startup-bound\"},\n"
    "  {\"reads\": 1000, \"nodes\": 4, \"sim_total_s\": 21.25,"
    "   \"parallel_efficiency\": 0.64, \"findings\": \"\"}\n"
    "]}\n";

TEST(Heuristics, DirectionFollowsTheMetricName) {
  EXPECT_EQ(metric_direction("sim_total_s"), Direction::kLowerBetter);
  EXPECT_EQ(metric_direction("shuffle_bytes"), Direction::kLowerBetter);
  EXPECT_EQ(metric_direction("ns_per_kmer_hash"), Direction::kLowerBetter);
  EXPECT_EQ(metric_direction("rmse_component"), Direction::kLowerBetter);
  EXPECT_EQ(metric_direction("parallel_efficiency"),
            Direction::kHigherBetter);
  EXPECT_EQ(metric_direction("speedup_vs_baseline"),
            Direction::kHigherBetter);
  // "gb_per_s" ends in _s but must classify as a throughput.
  EXPECT_EQ(metric_direction("gb_per_s"), Direction::kHigherBetter);
  EXPECT_EQ(metric_direction("wacc"), Direction::kHigherBetter);
  EXPECT_EQ(metric_direction("node_crashes"), Direction::kInformational);
  EXPECT_EQ(metric_direction("fetch_count"), Direction::kInformational);
}

TEST(Heuristics, NoiseFollowsTheClockThatProducedTheMetric) {
  EXPECT_TRUE(metric_is_noisy("seconds"));
  EXPECT_TRUE(metric_is_noisy("wall_s"));
  EXPECT_TRUE(metric_is_noisy("ns_per_pair"));
  EXPECT_TRUE(metric_is_noisy("sketch_us_per_read"));
  EXPECT_TRUE(metric_is_noisy("gb_per_s"));
  // Simulated-clock metrics are deterministic however loaded the machine.
  EXPECT_FALSE(metric_is_noisy("sim_total_s"));
  EXPECT_FALSE(metric_is_noisy("shuffle_bytes"));
  EXPECT_FALSE(metric_is_noisy("parallel_efficiency"));
}

TEST(BenchLoader, KeysIdentifyRowsAndNumbersBecomeMetrics) {
  const auto rows = rows_from_json(common::parse_json(kBenchJson), "test");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].source, "fig9");
  EXPECT_EQ(rows[0].key, "reads=1000,nodes=2");
  EXPECT_EQ(rows[1].key, "reads=1000,nodes=4");
  EXPECT_DOUBLE_EQ(rows[0].metrics.at("sim_total_s"), 38.5);
  EXPECT_DOUBLE_EQ(rows[0].metrics.at("parallel_efficiency"), 0.71);
  // Key fields and strings are identity, not measurements.
  EXPECT_FALSE(rows[0].metrics.count("reads"));
  EXPECT_FALSE(rows[0].metrics.count("findings"));
}

TEST(Compare, IdenticalRunsReportZeroRegressions) {
  const auto rows = rows_from_json(common::parse_json(kBenchJson), "test");
  const CompareReport report = compare(rows, rows);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.improvements, 0u);
  EXPECT_EQ(report.missing, 0u);
  EXPECT_EQ(report.compared, 4u);  // 2 rows x 2 numeric metrics
}

TEST(Compare, SlowedMetricRegressesAndSortsFirst) {
  const auto baseline = rows_from_json(common::parse_json(kBenchJson), "b");
  auto candidate = baseline;
  candidate[1].metrics["sim_total_s"] *= 2.0;  // beyond the 1.25x default
  const CompareReport report = compare(baseline, candidate);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.regressions, 1u);
  EXPECT_EQ(report.entries.front().status, Status::kRegression);
  EXPECT_EQ(report.entries.front().metric, "sim_total_s");
  EXPECT_EQ(report.entries.front().key, "reads=1000,nodes=4");
  EXPECT_DOUBLE_EQ(report.entries.front().ratio, 2.0);
  // Renderers mention the verdict.
  EXPECT_NE(to_text(report).find("FAIL"), std::string::npos);
  EXPECT_NE(to_json(report).find("\"regressions\": 1"), std::string::npos);
  EXPECT_NE(to_json(report).find("\"status\": \"regression\""),
            std::string::npos);
}

TEST(Compare, DirectionsAndThresholdKnobsAreHonored) {
  const auto baseline = rows_from_json(common::parse_json(kBenchJson), "b");
  auto candidate = baseline;
  // Efficiency is higher-better: halving it regresses.
  candidate[0].metrics["parallel_efficiency"] /= 2.0;
  EXPECT_EQ(compare(baseline, candidate).regressions, 1u);
  // ...and improvements are symmetric, not regressions.
  candidate = baseline;
  candidate[0].metrics["parallel_efficiency"] = 0.99;
  candidate[0].metrics["sim_total_s"] /= 2.0;
  const CompareReport better = compare(baseline, candidate);
  EXPECT_TRUE(better.ok());
  EXPECT_EQ(better.improvements, 2u);
  // A generous ratio tolerates the doubling.
  candidate = baseline;
  candidate[1].metrics["sim_total_s"] *= 2.0;
  EXPECT_TRUE(compare(baseline, candidate, {.ratio = 3.0}).ok());
  // abs_slack tolerates small absolute drifts whatever the ratio says.
  candidate = baseline;
  candidate[1].metrics["sim_total_s"] += 30.0;
  EXPECT_FALSE(compare(baseline, candidate).ok());
  Thresholds slack;
  slack.abs_slack = 60.0;
  EXPECT_TRUE(compare(baseline, candidate, slack).ok());
}

TEST(Compare, MissingAndNewMetricsAreReportedButOnlyMissingCounts) {
  const auto baseline = rows_from_json(common::parse_json(kBenchJson), "b");
  auto candidate = baseline;
  candidate[0].metrics.erase("sim_total_s");
  candidate[1].metrics["brand_new_gauge"] = 1.0;
  const CompareReport report = compare(baseline, candidate);
  EXPECT_TRUE(report.ok());  // missing warns, never gates
  EXPECT_EQ(report.missing, 1u);
  bool saw_new = false;
  for (const CompareEntry& entry : report.entries) {
    saw_new |= entry.status == Status::kNew &&
               entry.metric == "brand_new_gauge";
  }
  EXPECT_TRUE(saw_new);
}

TEST(Compare, NoisyMetricsUseTheLooserThresholdOrDemoteToInfo) {
  MetricRow base{"kern", "section=sketch", {{"seconds", 1.0}}};
  MetricRow cand{"kern", "section=sketch", {{"seconds", 2.0}}};
  // 2x is beyond the deterministic default (1.25) but inside noisy (2.5).
  EXPECT_TRUE(compare({base}, {cand}).ok());
  Thresholds tight;
  tight.noisy_ratio = 1.5;
  EXPECT_FALSE(compare({base}, {cand}, tight).ok());
  // noisy_ratio = 0 demotes wall-clock metrics to informational entries.
  Thresholds demote;
  demote.noisy_ratio = 0.0;
  const CompareReport report = compare({base}, {cand}, demote);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].status, Status::kInfo);
}

TEST(MetricsLoader, SnapshotBecomesCounterAndHistogramRows) {
  Registry registry;
  registry.counter("mr.spill_runs").add(6);
  registry.gauge("sample.process_rss_mb").set(123.0);
  registry.histogram("mr.map_task_sim_s", std::vector<double>{1.0, 10.0})
      .observe(4.0);
  const auto rows =
      rows_from_json(common::parse_json(registry.snapshot().to_json()), "m");
  const MetricRow* counters = nullptr;
  const MetricRow* hist = nullptr;
  for (const MetricRow& row : rows) {
    if (row.key == "counters") counters = &row;
    if (row.key == "hist:mr.map_task_sim_s") hist = &row;
  }
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->metrics.at("mr.spill_runs"), 6.0);
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->metrics.at("count"), 1.0);
  EXPECT_TRUE(hist->metrics.count("p50"));
}

// ------------------------------------------------------- trace acceptance

class TraceRegressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().clear();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
};

/// Simulate one deterministic job and flush its trace; `slowdown` scales
/// the straggler task's work (1.0 = the healthy run).
void write_job_trace(const std::string& path, double slowdown) {
  Tracer::global().clear();
  mr::ClusterConfig config;
  config.nodes = 3;
  const mr::SimScheduler scheduler(config);
  std::vector<mr::TaskSpec> maps;
  for (int i = 0; i < 12; ++i) {
    const double work = (i == 5 ? 45.0 * slowdown : 30.0);
    maps.push_back({work, 1.5e6, 4.0e5, i % 3});
  }
  std::vector<mr::TaskSpec> reduces(4, {18.0, 2.0e6, 1.0e6, -1});
  simulate_job(scheduler, maps, 1.6e7, {}, reduces, "accept");
  auto& tracer = Tracer::global();
  tracer.set_output_path(path);
  ASSERT_TRUE(tracer.flush());
}

TEST_F(TraceRegressTest, SameSeedTracesCompareClean) {
  const std::string a = ::testing::TempDir() + "/regress_same_a.json";
  const std::string b = ::testing::TempDir() + "/regress_same_b.json";
  write_job_trace(a, 1.0);
  write_job_trace(b, 1.0);
  const CompareReport report = compare(load_rows(a), load_rows(b));
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.missing, 0u);
  EXPECT_GT(report.compared, 0u);
}

TEST_F(TraceRegressTest, StragglerBumpedTraceIsFlagged) {
  const std::string base = ::testing::TempDir() + "/regress_fast.json";
  const std::string slow = ::testing::TempDir() + "/regress_slow.json";
  write_job_trace(base, 1.0);
  write_job_trace(slow, 8.0);  // one map task straggles 8x
  const CompareReport report = compare(load_rows(base), load_rows(slow));
  EXPECT_FALSE(report.ok());
  bool map_phase_flagged = false;
  for (const CompareEntry& entry : report.entries) {
    if (entry.status != Status::kRegression) break;  // sorted first
    map_phase_flagged |= entry.metric == "map_s" || entry.metric == "total_s";
  }
  EXPECT_TRUE(map_phase_flagged);
}

TEST_F(TraceRegressTest, TraceRowsCarryTheByteAccounting) {
  const std::string path = ::testing::TempDir() + "/regress_bytes.json";
  write_job_trace(path, 1.0);
  const auto rows = load_rows(path);
  ASSERT_EQ(rows.size(), 1u);
  // 12 maps x 1.5e6 in / 4e5 out; 4 reduces x 2e6 in / 1e6 out.
  EXPECT_DOUBLE_EQ(rows[0].metrics.at("bytes.map_input_bytes"), 12 * 1.5e6);
  EXPECT_DOUBLE_EQ(rows[0].metrics.at("bytes.map_output_bytes"), 12 * 4.0e5);
  EXPECT_DOUBLE_EQ(rows[0].metrics.at("bytes.reduce_input_bytes"), 4 * 2.0e6);
  EXPECT_DOUBLE_EQ(rows[0].metrics.at("bytes.reduce_output_bytes"),
                   4 * 1.0e6);
  // The scalar-shuffle overload has no per-fetch specs; the field is still
  // present (and zero) so cross-run compares see a stable metric set.
  EXPECT_TRUE(rows[0].metrics.count("bytes.fetch_count"));
}

#ifdef MRMC_DOCTOR_BIN
int doctor_exit(const std::string& arguments) {
  const std::string command = std::string(MRMC_DOCTOR_BIN) + " " + arguments;
  const int status = std::system(command.c_str());
#if defined(__unix__) || defined(__APPLE__)
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  return status;
#endif
}

TEST_F(TraceRegressTest, CliCompareExitsZeroCleanAndTwoOnRegression) {
  const std::string base = ::testing::TempDir() + "/regress_cli_base.json";
  const std::string slow = ::testing::TempDir() + "/regress_cli_slow.json";
  write_job_trace(base, 1.0);
  write_job_trace(slow, 8.0);
  EXPECT_EQ(doctor_exit("compare " + base + " " + base + " >/dev/null"), 0);
  EXPECT_EQ(doctor_exit("compare " + base + " " + slow + " >/dev/null"), 2);
}

TEST_F(TraceRegressTest, CliRejectsThresholdsThatAreNotNumbersInRange) {
  const std::string base = ::testing::TempDir() + "/regress_cli_flags.json";
  write_job_trace(base, 1.0);
  const std::string compare = "compare " + base + " " + base;
  EXPECT_EQ(doctor_exit(compare + " --threshold=1.5 --noisy-threshold=0"
                                  " --abs-slack=0.01 >/dev/null"),
            0);
  for (const char* flag :
       {"--threshold=abc", "--threshold=1.5x", "--threshold=", "--threshold=0",
        "--threshold=-2", "--noisy-threshold=abc", "--noisy-threshold=-1",
        "--abs-slack=abc", "--abs-slack=-0.5", "--threshold=nan"}) {
    EXPECT_EQ(doctor_exit(compare + " " + flag + " >/dev/null 2>&1"), 1) << flag;
  }
}

TEST_F(TraceRegressTest, CliRegressWalksTheBaselineManifest) {
  const std::string base_dir = ::testing::TempDir() + "/regress_baselines";
  const std::string cand_dir = ::testing::TempDir() + "/regress_candidates";
  for (const std::string& dir : {base_dir, cand_dir}) {
    std::system(("mkdir -p " + dir).c_str());
  }
  {
    std::ofstream(base_dir + "/BENCH_fig9.json") << kBenchJson;
    std::string slowed(kBenchJson);
    const auto at = slowed.find("21.25");
    ASSERT_NE(at, std::string::npos);
    slowed.replace(at, 5, "99.99");
    std::ofstream(cand_dir + "/BENCH_fig9.json") << slowed;
  }
  ASSERT_EQ(doctor_exit("index " + base_dir), 0);
  EXPECT_EQ(doctor_exit("regress --baseline-dir=" + base_dir +
                        " --candidate-dir=" + base_dir + " >/dev/null"),
            0);
  EXPECT_EQ(doctor_exit("regress --baseline-dir=" + base_dir +
                        " --candidate-dir=" + cand_dir + " >/dev/null"),
            2);
}
#endif  // MRMC_DOCTOR_BIN

}  // namespace
}  // namespace mrmc::obs::regress
