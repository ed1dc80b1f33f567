// Chaos tests: the headline fault-tolerance invariant.  For any FaultPlan
// that leaves at least one live node, a job's (and the pipeline's) output is
// byte-identical to the fault-free run — only the simulated timeline pays
// for killed attempts, invalidated map outputs, and blacklisted nodes.
//
// Scenarios: crash during the map phase, crash during the (barrier)
// shuffle, crash with recovery, a repeat offender crossing the blacklist
// threshold, seeded random plans, and a crash after the job would have
// finished (which must leave the timeline bit-for-bit untouched).  The CI
// chaos job re-runs the seeded-plan scenario under extra seeds via
// MRMC_CHAOS_SEED.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/pipeline.hpp"
#include "mr/cluster.hpp"
#include "mr/faults.hpp"
#include "mr/job.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::mr {
namespace {

using CountJob = Job<long, long, long, std::pair<long, long>>;

CountJob::Mapper histogram_mapper() {
  return [](const long& record, Emitter<long, long>& emit) {
    emit.emit(record, 1);
    emit.count("records.mapped");
  };
}

CountJob::Reducer sum_reducer() {
  return [](const long& key, std::vector<long>& values,
            std::vector<std::pair<long, long>>& out) {
    long total = 0;
    for (const long v : values) total += v;
    out.emplace_back(key, total);
  };
}

/// Strictly distinct split sizes: unique task durations, no scheduling ties.
std::vector<std::vector<long>> make_splits(std::size_t count,
                                           std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<std::vector<long>> splits(count);
  for (std::size_t s = 0; s < count; ++s) {
    splits[s].resize(5 + 3 * s);
    for (auto& value : splits[s]) value = static_cast<long>(rng.bounded(23));
  }
  return splits;
}

JobConfig chaos_config(const std::string& name) {
  static common::ThreadPool pool(2);
  JobConfig config;
  config.name = name;
  config.num_reducers = 4;
  config.cluster.nodes = 4;
  config.pool = &pool;
  return config;
}

JobResult<std::pair<long, long>> run_with_plan(
    const std::string& name, const faults::FaultPlan& plan,
    const std::vector<std::vector<long>>& splits, bool overlapped = true) {
  auto config = chaos_config(name);
  config.fault_plan = plan;
  config.overlapped_shuffle = overlapped;
  CountJob job(config, histogram_mapper(), sum_reducer());
  const std::vector<int> nodes(splits.size(), -1);
  return job.run_splits(splits, nodes);
}

/// The executor's loss model: each map is pinned to node (index % nodes)
/// and re-executes once per crash of that node.
std::size_t expected_lost_reruns(const faults::FaultPlan& plan,
                                 std::size_t maps, std::size_t nodes) {
  std::size_t reruns = 0;
  for (std::size_t m = 0; m < maps; ++m) {
    reruns += plan.crash_count(static_cast<int>(m % nodes));
  }
  return reruns;
}

void expect_same_output(const JobResult<std::pair<long, long>>& faulted,
                        const JobResult<std::pair<long, long>>& baseline) {
  EXPECT_EQ(faulted.output, baseline.output);  // byte-identical, order included
  EXPECT_EQ(faulted.stats.counters, baseline.stats.counters);
  EXPECT_EQ(faulted.stats.reduce_groups, baseline.stats.reduce_groups);
  EXPECT_EQ(faulted.stats.shuffle_bytes, baseline.stats.shuffle_bytes);
}

void expect_consistent_accounting(const JobStats& stats) {
  const faults::FaultOutcome& outcome = stats.timeline.faults;
  EXPECT_EQ(stats.node_crashes, outcome.events.size());
  EXPECT_EQ(stats.killed_attempts, outcome.killed_attempts);
  EXPECT_EQ(stats.lost_map_outputs, outcome.lost_map_outputs);
  EXPECT_EQ(stats.blacklisted_nodes, outcome.blacklisted_nodes);
  // Every destroyed attempt is itemized with the matching kind.
  std::size_t killed = 0, lost = 0;
  for (const faults::LostAttempt& attempt : outcome.lost_attempts) {
    if (attempt.kind == "killed") ++killed;
    if (attempt.kind == "lost-output") ++lost;
    EXPECT_GE(attempt.end_s, attempt.start_s);
  }
  EXPECT_EQ(killed, outcome.killed_attempts);
  EXPECT_EQ(lost, outcome.lost_map_outputs);
}

TEST(Chaos, CrashDuringMapKillsAttemptsButNotTheAnswer) {
  const auto splits = make_splits(24, 61);
  const auto baseline = run_with_plan("chaos-map-base", {}, splits);

  // Node 1 dies half a second into the map phase (well before the shortest
  // task can finish): both of its occupied map slots lose their running
  // attempt, nothing has completed yet.
  const double crash_s = chaos_config("x").cluster.job_startup_s + 0.5;
  faults::FaultPlan plan({{1, crash_s, faults::kNever}});
  const auto faulted = run_with_plan("chaos-map", plan, splits);

  expect_same_output(faulted, baseline);
  expect_consistent_accounting(faulted.stats);
  EXPECT_EQ(faulted.stats.node_crashes, 1u);
  EXPECT_EQ(faulted.stats.killed_attempts, 2u);  // map_slots_per_node
  EXPECT_EQ(faulted.stats.lost_map_outputs, 0u);  // nothing had finished
  EXPECT_EQ(faulted.stats.lost_map_reruns,
            expected_lost_reruns(plan, splits.size(), 4));
  EXPECT_GT(faulted.stats.lost_map_reruns, 0u);
  // The lost work is re-paid in simulated time.
  EXPECT_GT(faulted.stats.timeline.total_s, baseline.stats.timeline.total_s);
}

TEST(Chaos, CrashDuringShuffleInvalidatesCompletedMapOutputs) {
  const auto splits = make_splits(16, 67);
  // Barrier shuffle: every map output is only safe once the aggregate
  // transfer completes, so a crash inside the shuffle window invalidates
  // every completed map on the dead node.
  const auto baseline =
      run_with_plan("chaos-shuffle-base", {}, splits, /*overlapped=*/false);
  const JobTimeline& base = baseline.stats.timeline;
  ASSERT_GT(base.shuffle_s, 0.0);
  const double crash_s =
      8.0 + base.map_phase.makespan_s + 0.5 * base.shuffle_s;

  faults::FaultPlan plan({{2, crash_s, faults::kNever}});
  const auto faulted =
      run_with_plan("chaos-shuffle", plan, splits, /*overlapped=*/false);

  expect_same_output(faulted, baseline);
  expect_consistent_accounting(faulted.stats);
  EXPECT_GT(faulted.stats.lost_map_outputs, 0u);  // fetch-failure path fired
  EXPECT_GT(faulted.stats.timeline.total_s, base.total_s);
}

TEST(Chaos, CrashWithRecoveryRejoinsAndStaysCorrect) {
  const auto splits = make_splits(20, 71);
  const auto baseline = run_with_plan("chaos-recover-base", {}, splits);

  faults::FaultPlan plan({{3, 9.0, 9.0 + 45.0}});
  const auto faulted = run_with_plan("chaos-recover", plan, splits);

  expect_same_output(faulted, baseline);
  expect_consistent_accounting(faulted.stats);
  ASSERT_EQ(faulted.stats.timeline.faults.events.size(), 1u);
  const faults::NodeDownEvent& event = faulted.stats.timeline.faults.events[0];
  EXPECT_FALSE(event.blacklisted);
  EXPECT_DOUBLE_EQ(event.recover_s, 54.0);  // finite: the node came back
  EXPECT_EQ(faulted.stats.blacklisted_nodes, 0u);
  EXPECT_GE(faulted.stats.timeline.total_s, baseline.stats.timeline.total_s);
}

TEST(Chaos, RepeatOffenderIsBlacklistedDespitePlannedRecoveries) {
  const auto splits = make_splits(20, 73);
  const auto baseline = run_with_plan("chaos-blacklist-base", {}, splits);

  // Three crashes of node 1 against the default max_node_failures = 2: the
  // third planned recovery is cancelled and the node never rejoins.
  faults::FaultPlan plan(
      {{1, 9.0, 20.0}, {1, 25.0, 40.0}, {1, 45.0, 60.0}});
  ASSERT_TRUE(plan.blacklists(1));
  const auto faulted = run_with_plan("chaos-blacklist", plan, splits);

  expect_same_output(faulted, baseline);
  expect_consistent_accounting(faulted.stats);
  EXPECT_EQ(faulted.stats.node_crashes, 3u);
  EXPECT_EQ(faulted.stats.blacklisted_nodes, 1u);
  const auto& events = faulted.stats.timeline.faults.events;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[0].blacklisted);
  EXPECT_FALSE(events[1].blacklisted);
  EXPECT_TRUE(events[2].blacklisted);
  EXPECT_DOUBLE_EQ(events[2].recover_s, -1.0);
  EXPECT_EQ(faulted.stats.lost_map_reruns,
            expected_lost_reruns(plan, splits.size(), 4));
}

TEST(Chaos, SeededRandomPlansNeverChangeTheOutput) {
  const auto splits = make_splits(18, 79);
  const auto baseline = run_with_plan("chaos-random-base", {}, splits);
  const double horizon = 8.0 + baseline.stats.timeline.total_s;

  std::vector<std::uint64_t> seeds{11, 23, 47, 89, 131};
  if (const char* extra = std::getenv("MRMC_CHAOS_SEED")) {
    seeds.push_back(std::strtoull(extra, nullptr, 10));
  }
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const faults::FaultPlan plan =
        faults::FaultPlan::random(seed, 4, 2, horizon);
    const auto faulted =
        run_with_plan("chaos-random-" + std::to_string(seed), plan, splits);
    expect_same_output(faulted, baseline);
    expect_consistent_accounting(faulted.stats);
    EXPECT_EQ(faulted.stats.node_crashes, plan.events().size());
    EXPECT_EQ(faulted.stats.lost_map_reruns,
              expected_lost_reruns(plan, splits.size(), 4));
    EXPECT_GE(faulted.stats.timeline.total_s,
              baseline.stats.timeline.total_s);
  }
}

TEST(Chaos, CrashAfterTheJobEndsLeavesTheTimelineUntouched) {
  const auto splits = make_splits(12, 83);
  const auto baseline = run_with_plan("chaos-late-base", {}, splits);
  const JobTimeline& base = baseline.stats.timeline;

  // The crash lands far beyond the job's last simulated instant: nothing to
  // kill, nothing to invalidate — the schedule must be bit-for-bit the
  // fault-free one even though the faulted code path ran.
  faults::FaultPlan plan({{2, 8.0 + base.total_s + 1000.0, faults::kNever}});
  const auto faulted = run_with_plan("chaos-late", plan, splits);

  expect_same_output(faulted, baseline);
  const JobTimeline& timeline = faulted.stats.timeline;
  EXPECT_EQ(timeline.map_phase.makespan_s, base.map_phase.makespan_s);
  EXPECT_EQ(timeline.shuffle_s, base.shuffle_s);
  EXPECT_EQ(timeline.reduce_phase.makespan_s, base.reduce_phase.makespan_s);
  EXPECT_EQ(timeline.total_s, base.total_s);
  ASSERT_EQ(timeline.map_phase.tasks.size(), base.map_phase.tasks.size());
  for (std::size_t i = 0; i < base.map_phase.tasks.size(); ++i) {
    EXPECT_EQ(timeline.map_phase.tasks[i].node, base.map_phase.tasks[i].node);
    EXPECT_EQ(timeline.map_phase.tasks[i].start_s,
              base.map_phase.tasks[i].start_s);
    EXPECT_EQ(timeline.map_phase.tasks[i].end_s,
              base.map_phase.tasks[i].end_s);
  }
  // The crash is still reported, just with no casualties.
  EXPECT_EQ(faulted.stats.node_crashes, 1u);
  EXPECT_EQ(faulted.stats.killed_attempts, 0u);
  EXPECT_EQ(faulted.stats.lost_map_outputs, 0u);
  EXPECT_TRUE(timeline.faults.lost_attempts.empty());
}

// --------------------------------------------------------------- pipeline

TEST(Chaos, PipelineClusteringIsByteIdenticalUnderFaults) {
  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = 60, .seed = 5});
  core::PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 64, .canonical = true, .seed = 1};
  params.mode = core::Mode::kGreedy;
  params.theta = 0.34;

  core::ExecutionOptions clean;
  clean.threads = 2;
  const auto baseline = core::run_pipeline(sample.reads, params, clean);

  core::ExecutionOptions faulty = clean;
  faulty.fault_plan = faults::FaultPlan({{1, 10.0, faults::kNever}});
  const auto faulted = core::run_pipeline(sample.reads, params, faulty);

  EXPECT_EQ(faulted.labels, baseline.labels);
  EXPECT_EQ(faulted.num_clusters, baseline.num_clusters);
  EXPECT_GE(faulted.sim_total_s, baseline.sim_total_s);
  // The plan is threaded into every job of the pipeline.
  EXPECT_EQ(faulted.sketch_stats.node_crashes, 1u);
  EXPECT_EQ(faulted.cluster_stats.node_crashes, 1u);
}

// ------------------------------------------------- doctor ingestion parity

TEST(Chaos, DoctorFaultsSectionIsByteIdenticalAcrossIngestionPaths) {
  auto& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();

  ClusterConfig config;
  config.nodes = 3;
  const SimScheduler scheduler(config);
  std::vector<TaskSpec> maps;
  for (int i = 0; i < 9; ++i) {
    maps.push_back({40.0 + static_cast<double>(i), 1.5e6, 4e5, -1});
  }
  const std::vector<TaskSpec> reduces(4, {25.0, 2.0e6, 1.0e6, -1});

  // Fault-free dry run (untraced) to aim the crashes: one mid-map on node
  // 1, one inside the barrier shuffle on node 2.
  const JobTimeline dry =
      simulate_job(scheduler, maps, 1.0e8, {}, reduces, "chaos dry");
  ASSERT_GT(dry.shuffle_s, 0.0);
  const faults::FaultPlan plan(
      {{1, config.job_startup_s + 0.4 * dry.map_phase.makespan_s,
        faults::kNever},
       {2,
        config.job_startup_s + dry.map_phase.makespan_s + 0.3 * dry.shuffle_s,
        faults::kNever}});

  tracer.set_enabled(true);
  const JobTimeline faulted =
      simulate_job(scheduler, maps, 1.0e8, {}, reduces, "chaos doctor", plan);
  const std::string trace_path =
      ::testing::TempDir() + "/mrmc_chaos_doctor_trace.json";
  tracer.set_output_path(trace_path);
  ASSERT_TRUE(tracer.flush());
  // The in-memory events, as MRMC_REPORT reads them.
  const std::vector<obs::report::JobInput> in_memory =
      obs::report::jobs_from_trace(obs::report::trace_root(tracer));
  tracer.set_enabled(false);
  tracer.set_output_path("");
  tracer.clear();

  // The reference: the fault lists simulate_job returned, field by field.
  ASSERT_FALSE(faulted.faults.empty());
  ASSERT_EQ(in_memory.size(), 1u);
  const obs::report::JobInput& job = in_memory[0];
  ASSERT_EQ(job.fault_events.size(), faulted.faults.events.size());
  for (std::size_t i = 0; i < job.fault_events.size(); ++i) {
    const faults::NodeDownEvent& want = faulted.faults.events[i];
    EXPECT_EQ(job.fault_events[i].node, want.node);
    EXPECT_EQ(job.fault_events[i].crash_s, want.crash_s);
    EXPECT_EQ(job.fault_events[i].detect_s, want.detect_s);
    EXPECT_EQ(job.fault_events[i].recover_s, want.recover_s);
    EXPECT_EQ(job.fault_events[i].blacklisted, want.blacklisted);
  }
  ASSERT_EQ(job.lost_attempts.size(), faulted.faults.lost_attempts.size());
  for (std::size_t i = 0; i < job.lost_attempts.size(); ++i) {
    const faults::LostAttempt& want = faulted.faults.lost_attempts[i];
    EXPECT_EQ(job.lost_attempts[i].phase, want.phase);
    EXPECT_EQ(job.lost_attempts[i].kind, want.kind);
    EXPECT_EQ(job.lost_attempts[i].task, want.task);
    EXPECT_EQ(job.lost_attempts[i].node, want.node);
    EXPECT_EQ(job.lost_attempts[i].slot, want.slot);
    EXPECT_EQ(job.lost_attempts[i].start_s, want.start_s);
    EXPECT_EQ(job.lost_attempts[i].end_s, want.end_s);
  }

  const obs::report::JobReport report = obs::report::analyze(job);
  EXPECT_FALSE(report.faults.empty());
  EXPECT_TRUE(report.has_finding("node-failures"));
  EXPECT_EQ(report.total_s, faulted.total_s);

  // The Faults section (and the whole report) renders byte-identically
  // from the in-memory events and from the trace file.
  const std::vector<obs::report::JobReport> offline =
      obs::report::analyze_trace_file(trace_path);
  ASSERT_EQ(offline.size(), 1u);
  EXPECT_EQ(obs::report::to_json(report), obs::report::to_json(offline[0]));
  EXPECT_EQ(obs::report::to_text(report), obs::report::to_text(offline[0]));
}

}  // namespace
}  // namespace mrmc::mr
