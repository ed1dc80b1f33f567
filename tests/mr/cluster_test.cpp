#include "mr/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mrmc::mr {
namespace {

ClusterConfig small_cluster(std::size_t nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.task_startup_s = 1.0;
  config.job_startup_s = 5.0;
  return config;
}

TEST(SimScheduler, RejectsDegenerateConfigs) {
  ClusterConfig config;
  config.nodes = 0;
  EXPECT_THROW(SimScheduler{config}, common::InvalidArgument);
  config = ClusterConfig{};
  config.node.cpu_rate = 0.0;
  EXPECT_THROW(SimScheduler{config}, common::InvalidArgument);
}

TEST(SimScheduler, RejectsNegativeStartupOverheads) {
  ClusterConfig config;
  config.task_startup_s = -1.0;
  EXPECT_THROW(SimScheduler{config}, common::InvalidArgument);
  config = ClusterConfig{};
  config.job_startup_s = -1.0;
  EXPECT_THROW(SimScheduler{config}, common::InvalidArgument);
}

TEST(SimScheduler, TaskDurationComposesCosts) {
  const SimScheduler scheduler(small_cluster(2));
  const TaskSpec task{10.0, 80e6, 40e6, -1};  // 10 s work, 1 s disk in, .5 s out
  // startup 1 + work 10 + in 80e6/80e6 + out 40e6/80e6 = 12.5
  EXPECT_DOUBLE_EQ(scheduler.task_duration(task, true), 12.5);
  // remote input goes over the 40 MB/s NIC: 1 + 10 + 2 + 0.5
  EXPECT_DOUBLE_EQ(scheduler.task_duration(task, false), 13.5);
}

TEST(SimScheduler, EmptyPhaseHasZeroMakespan) {
  const SimScheduler scheduler(small_cluster(4));
  const auto timeline = scheduler.schedule_phase({}, 2);
  EXPECT_DOUBLE_EQ(timeline.makespan_s, 0.0);
  EXPECT_TRUE(timeline.tasks.empty());
}

TEST(SimScheduler, SingleTaskMakespanIsItsDuration) {
  const SimScheduler scheduler(small_cluster(4));
  const std::vector<TaskSpec> tasks{{5.0, 0.0, 0.0, -1}};
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_DOUBLE_EQ(timeline.makespan_s, 6.0);  // startup + work
}

TEST(SimScheduler, ParallelSlotsShortenMakespan) {
  const SimScheduler scheduler2(small_cluster(2));
  const SimScheduler scheduler8(small_cluster(8));
  const std::vector<TaskSpec> tasks(32, TaskSpec{10.0, 0.0, 0.0, -1});
  const double makespan2 = scheduler2.schedule_phase(tasks, 2).makespan_s;
  const double makespan8 = scheduler8.schedule_phase(tasks, 2).makespan_s;
  EXPECT_LT(makespan8, makespan2);
  // 32 tasks of 11 s over 4 slots = 8 waves; over 16 slots = 2 waves.
  EXPECT_DOUBLE_EQ(makespan2, 8 * 11.0);
  EXPECT_DOUBLE_EQ(makespan8, 2 * 11.0);
}

TEST(SimScheduler, MakespanMonotoneNonIncreasingInNodes) {
  const std::vector<TaskSpec> tasks(50, TaskSpec{3.0, 1e6, 1e6, -1});
  double previous = 1e18;
  for (const std::size_t nodes : {2u, 4u, 6u, 8u, 10u, 12u}) {
    const SimScheduler scheduler(small_cluster(nodes));
    const double makespan = scheduler.schedule_phase(tasks, 2).makespan_s;
    EXPECT_LE(makespan, previous + 1e-9) << nodes;
    previous = makespan;
  }
}

TEST(SimScheduler, SmallInputGainsNothingFromMoreNodes) {
  // One task cannot parallelize — the flat line of Figure 2's 1000-read curve.
  const std::vector<TaskSpec> tasks{{30.0, 0.0, 0.0, -1}};
  const SimScheduler s2(small_cluster(2));
  const SimScheduler s12(small_cluster(12));
  EXPECT_DOUBLE_EQ(s2.schedule_phase(tasks, 2).makespan_s,
                   s12.schedule_phase(tasks, 2).makespan_s);
}

TEST(SimScheduler, HonorsLocalityPreference) {
  const SimScheduler scheduler(small_cluster(4));
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back({1.0, 1e6, 0.0, i});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_EQ(timeline.data_local_tasks, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(timeline.tasks[i].node, i);
    EXPECT_TRUE(timeline.tasks[i].data_local);
  }
}

TEST(SimScheduler, OverloadedPreferredNodeSpillsRemote) {
  const SimScheduler scheduler(small_cluster(4));
  // 12 tasks all preferring node 0 with heavy work: delay scheduling gives
  // up and runs some remotely.
  const std::vector<TaskSpec> tasks(12, TaskSpec{50.0, 1e6, 0.0, 0});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_LT(timeline.data_local_tasks, 12u);
  EXPECT_GT(timeline.data_local_tasks, 0u);
}

TEST(SimScheduler, ShuffleTimeScalesWithBytesAndNodes) {
  const SimScheduler s2(small_cluster(2));
  const SimScheduler s8(small_cluster(8));
  EXPECT_DOUBLE_EQ(s2.shuffle_time(0.0), 0.0);
  EXPECT_GT(s2.shuffle_time(1e9), s8.shuffle_time(1e9));
  EXPECT_GT(s2.shuffle_time(2e9), s2.shuffle_time(1e9));
}

TEST(SimScheduler, SingleNodeShuffleIsDiskOnly) {
  const SimScheduler s1(small_cluster(1));
  // All data stays local: time = bytes / disk_bw.
  EXPECT_DOUBLE_EQ(s1.shuffle_time(80e6), 1.0);
}

TEST(SimulateJob, TotalComposesPhases) {
  const SimScheduler scheduler(small_cluster(2));
  const std::vector<TaskSpec> maps(4, TaskSpec{2.0, 0.0, 0.0, -1});
  const std::vector<TaskSpec> reduces(2, TaskSpec{1.0, 0.0, 0.0, -1});
  const auto timeline = simulate_job(scheduler, maps, 0.0, {}, reduces, "job");
  EXPECT_DOUBLE_EQ(timeline.total_s, 5.0 + timeline.map_phase.makespan_s +
                                         timeline.reduce_phase.makespan_s);
  EXPECT_FALSE(timeline.summary().empty());
}

TEST(SimScheduler, SpeculativeExecutionRescuesInjectedStraggler) {
  ClusterConfig config = small_cluster(4);
  std::vector<TaskSpec> tasks(16, TaskSpec{2.0, 0.0, 0.0, -1});
  tasks[5].work = 200.0;  // one task 100x slower: a failing disk / data skew

  const SimScheduler baseline{config};
  const auto without = baseline.schedule_phase(tasks, 2);
  EXPECT_EQ(without.speculated_tasks, 0u);

  config.speculative_execution = true;
  const SimScheduler speculating{config};
  const auto with = speculating.schedule_phase(tasks, 2);
  EXPECT_GT(with.speculated_tasks, 0u);
  EXPECT_LT(with.makespan_s, without.makespan_s);
  // The backup copy caps the straggler at (factor + 1) x the phase median
  // (3 s per task here), measured from its start.
  const double median = 3.0;
  EXPECT_DOUBLE_EQ(with.tasks[5].end_s,
                   with.tasks[5].start_s +
                       (config.speculation_factor + 1.0) * median);
}

TEST(SimScheduler, SpeculationLeavesUniformPhasesAlone) {
  ClusterConfig config = small_cluster(4);
  config.speculative_execution = true;
  const SimScheduler scheduler{config};
  const std::vector<TaskSpec> tasks(16, TaskSpec{2.0, 0.0, 0.0, -1});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_EQ(timeline.speculated_tasks, 0u);
}

TEST(SimScheduler, PlacementsNeverOverlapOnASlot) {
  const SimScheduler scheduler(small_cluster(3));
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 24; ++i) tasks.push_back({1.0 + i % 5, 1e5, 1e5, i % 3});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  // Sort each (node, slot) track's intervals and check back-to-back order.
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> tracks;
  for (const TaskPlacement& task : timeline.tasks) {
    EXPECT_GE(task.node, 0);
    EXPECT_LT(task.node, 3);
    EXPECT_GE(task.slot, 0);
    EXPECT_LT(task.slot, 2);
    tracks[{task.node, task.slot}].emplace_back(task.start_s, task.end_s);
  }
  for (auto& [slot, intervals] : tracks) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second)
          << "overlap on node " << slot.first << " slot " << slot.second;
    }
  }
}

TEST(JobTimeline, SummaryReportsEveryPhase) {
  const SimScheduler scheduler(small_cluster(2));
  const std::vector<TaskSpec> maps(4, TaskSpec{2.0, 0.0, 0.0, -1});
  const std::vector<TaskSpec> reduces(2, TaskSpec{1.0, 0.0, 0.0, -1});
  const auto timeline = simulate_job(scheduler, maps, 80e6, {}, reduces, "t");
  const std::string summary = timeline.summary();
  EXPECT_NE(summary.find("map="), std::string::npos);
  EXPECT_NE(summary.find("shuffle="), std::string::npos);
  EXPECT_NE(summary.find("reduce="), std::string::npos);
  EXPECT_NE(summary.find("total="), std::string::npos);
  // An all-empty job still reports (zero) phases rather than crashing.
  const auto empty = simulate_job(scheduler, {}, 0.0, {}, {}, "empty");
  EXPECT_DOUBLE_EQ(empty.total_s, scheduler.config().job_startup_s);
  EXPECT_NE(empty.summary().find("shuffle=0"), std::string::npos);
}

TEST(SimulateJob, DeterministicAcrossCalls) {
  const SimScheduler scheduler(small_cluster(3));
  std::vector<TaskSpec> maps;
  for (int i = 0; i < 10; ++i) maps.push_back({1.0 + i, 1e5, 1e5, i % 3});
  const auto a = simulate_job(scheduler, maps, 5e6, {}, {}, "job");
  const auto b = simulate_job(scheduler, maps, 5e6, {}, {}, "job");
  EXPECT_DOUBLE_EQ(a.total_s, b.total_s);
}

TEST(Speculation, RescuesInjectedStraggler) {
  ClusterConfig config;
  config.nodes = 4;
  std::vector<TaskSpec> tasks(16, TaskSpec{10.0, 0.0, 0.0, -1});
  tasks[5].work = 200.0;  // one straggler

  const SimScheduler plain(config);
  const double slow = plain.schedule_phase(tasks, 2).makespan_s;

  config.speculative_execution = true;
  const SimScheduler speculative(config);
  const auto timeline = speculative.schedule_phase(tasks, 2);
  EXPECT_LT(timeline.makespan_s, slow);
  EXPECT_EQ(timeline.speculated_tasks, 1u);
}

TEST(Speculation, NoEffectOnUniformTasks) {
  ClusterConfig config;
  config.nodes = 4;
  config.speculative_execution = true;
  const SimScheduler scheduler(config);
  const std::vector<TaskSpec> tasks(12, TaskSpec{10.0, 0.0, 0.0, -1});
  const auto timeline = scheduler.schedule_phase(tasks, 2);
  EXPECT_EQ(timeline.speculated_tasks, 0u);
}

// One fault-free job, every number pinned: locality preferences (one
// naming node 5 of 3), a per-fetch shuffle and speculation in both phases.
// The expected values were computed by the scheduler this suite was first
// written against; any drift in the fault-free schedule shows here.
TEST(SimulateJob, FaultFreeTimelineMatchesPinnedValues) {
  ClusterConfig config;
  config.nodes = 3;
  config.map_slots_per_node = 2;
  config.reduce_slots_per_node = 1;
  config.task_startup_s = 1.0;
  config.job_startup_s = 5.0;
  config.speculative_execution = true;
  const SimScheduler scheduler(config);
  const std::vector<TaskSpec> maps = {
      {3.0, 40e6, 8e6, 0},  {5.5, 20e6, 4e6, 1}, {2.0, 60e6, 2e6, 2},
      {60.0, 10e6, 1e6, 0}, {4.0, 30e6, 6e6, 5}, {2.5, 50e6, 3e6, -1},
      {3.5, 25e6, 5e6, 1},  {4.5, 35e6, 7e6, 2}};
  std::vector<FetchSpec> fetches;
  double shuffle_bytes = 0.0;
  for (std::size_t m = 0; m < maps.size(); ++m) {
    for (std::size_t r = 0; r < 3; ++r) {
      const double bytes = 1e6 * static_cast<double>(1 + (m * 3 + r) % 7);
      fetches.push_back({m, r, bytes});
      shuffle_bytes += bytes;
    }
  }
  const std::vector<TaskSpec> reduces = {{2.0, 8e6, 1e6, -1},
                                         {40.0, 6e6, 1e6, -1},
                                         {3.0, 9e6, 2e6, -1},
                                         {2.5, 7e6, 1e6, -1}};
  const JobTimeline timeline =
      simulate_job(scheduler, maps, shuffle_bytes, fetches, reduces, "pinned");

  const auto expect_phase = [](const PhaseTimeline& phase,
                               const std::vector<TaskPlacement>& expected) {
    ASSERT_EQ(phase.tasks.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("task " + std::to_string(i));
      EXPECT_EQ(phase.tasks[i].node, expected[i].node);
      EXPECT_EQ(phase.tasks[i].slot, expected[i].slot);
      EXPECT_EQ(phase.tasks[i].start_s, expected[i].start_s);
      EXPECT_EQ(phase.tasks[i].end_s, expected[i].end_s);
      EXPECT_EQ(phase.tasks[i].data_local, expected[i].data_local);
    }
  };
  expect_phase(timeline.map_phase,
               {{2, 1, 0, 5.0999999999999996, false},
                {1, 0, 0, 6.7999999999999998, true},
                {2, 1, 5.0999999999999996, 8.875, true},
                {0, 0, 0, 14.5625, true},
                {0, 1, 0, 5.8250000000000002, false},
                {1, 1, 4.875, 9.0374999999999996, true},
                {1, 1, 0, 4.875, true},
                {2, 0, 0, 6.0250000000000004, true}});
  EXPECT_EQ(timeline.map_phase.makespan_s, 14.5625);
  EXPECT_EQ(timeline.map_phase.data_local_tasks, 6u);
  EXPECT_EQ(timeline.map_phase.speculated_tasks, 1u);
  expect_phase(timeline.reduce_phase,
               {{2, 0, 3.6000000000000001, 6.7125000000000004, true},
                {0, 0, 0, 10.34375, true},
                {1, 0, 0, 4.1375000000000002, true},
                {2, 0, 0, 3.6000000000000001, true}});
  EXPECT_EQ(timeline.reduce_phase.makespan_s, 10.34375);
  EXPECT_EQ(timeline.reduce_phase.data_local_tasks, 4u);
  EXPECT_EQ(timeline.reduce_phase.speculated_tasks, 1u);

  const std::vector<FetchPlacement> expected_fetches = {
      {6, 0, 4.875, 4.979166666666667, 5000000},
      {0, 0, 5.0999999999999996, 5.1208333333333327, 1000000},
      {4, 0, 5.8250000000000002, 5.9500000000000002, 6000000},
      {7, 0, 6.0250000000000004, 6.0458333333333334, 1000000},
      {1, 0, 6.7999999999999998, 6.8833333333333329, 4000000},
      {2, 0, 8.875, 9.0208333333333339, 7000000},
      {5, 0, 9.0374999999999996, 9.0791666666666657, 2000000},
      {3, 0, 14.5625, 14.625, 3000000},
      {6, 1, 4.875, 5, 6000000},
      {0, 1, 5.0999999999999996, 5.1416666666666666, 2000000},
      {4, 1, 5.8250000000000002, 5.9708333333333332, 7000000},
      {7, 1, 6.0250000000000004, 6.0666666666666673, 2000000},
      {1, 1, 6.7999999999999998, 6.9041666666666668, 5000000},
      {2, 1, 8.875, 8.8958333333333339, 1000000},
      {5, 1, 9.0374999999999996, 9.0999999999999996, 3000000},
      {3, 1, 14.5625, 14.645833333333334, 4000000},
      {6, 2, 4.875, 5.020833333333333, 7000000},
      {0, 2, 5.0999999999999996, 5.1624999999999996, 3000000},
      {4, 2, 5.8250000000000002, 5.8458333333333332, 1000000},
      {7, 2, 6.0250000000000004, 6.0875000000000004, 3000000},
      {1, 2, 6.7999999999999998, 6.9249999999999998, 6000000},
      {2, 2, 8.875, 8.9166666666666661, 2000000},
      {5, 2, 9.0374999999999996, 9.1208333333333336, 4000000},
      {3, 2, 14.5625, 14.666666666666666, 5000000}};
  ASSERT_EQ(timeline.fetches.size(), expected_fetches.size());
  for (std::size_t i = 0; i < expected_fetches.size(); ++i) {
    SCOPED_TRACE("fetch " + std::to_string(i));
    EXPECT_EQ(timeline.fetches[i].map_task, expected_fetches[i].map_task);
    EXPECT_EQ(timeline.fetches[i].reducer, expected_fetches[i].reducer);
    EXPECT_EQ(timeline.fetches[i].start_s, expected_fetches[i].start_s);
    EXPECT_EQ(timeline.fetches[i].end_s, expected_fetches[i].end_s);
    EXPECT_EQ(timeline.fetches[i].bytes, expected_fetches[i].bytes);
  }
  EXPECT_EQ(timeline.shuffle_s, 0.10416666666666607);
  EXPECT_EQ(timeline.total_s, 30.010416666666664);
}

// Speculation is applied only under the empty plan: a plan whose one crash
// lands after the job ends still switches it off, in both phases.
TEST(Speculation, OffUnderAFaultPlan) {
  ClusterConfig config = small_cluster(4);
  config.speculative_execution = true;
  const SimScheduler scheduler(config);
  std::vector<TaskSpec> tasks(16, TaskSpec{2.0, 0.0, 0.0, -1});
  tasks[5].work = 200.0;  // one task 100x slower

  const JobTimeline speculated =
      simulate_job(scheduler, tasks, 0.0, {}, tasks, "speculated");
  ASSERT_GT(speculated.map_phase.speculated_tasks, 0u);

  const faults::FaultPlan late(
      {{1, 10.0 * speculated.total_s + 1e6, faults::kNever}});
  const JobTimeline timeline =
      simulate_job(scheduler, tasks, 0.0, {}, tasks, "late-crash", late);
  EXPECT_EQ(timeline.map_phase.speculated_tasks, 0u);
  EXPECT_EQ(timeline.reduce_phase.speculated_tasks, 0u);
  EXPECT_TRUE(timeline.faults.lost_attempts.empty());

  // The unspeculated makespan: the straggler runs its full 1 + 200 s, as
  // it does with speculation off.
  EXPECT_EQ(timeline.map_phase.makespan_s, 201.0);
  config.speculative_execution = false;
  const SimScheduler plain(config);
  const JobTimeline unspeculated =
      simulate_job(plain, tasks, 0.0, {}, tasks, "plain");
  EXPECT_EQ(timeline.map_phase.makespan_s, unspeculated.map_phase.makespan_s);
  EXPECT_EQ(timeline.reduce_phase.makespan_s,
            unspeculated.reduce_phase.makespan_s);
  EXPECT_EQ(timeline.total_s, unspeculated.total_s);
  EXPECT_GT(timeline.total_s, speculated.total_s);
}

}  // namespace
}  // namespace mrmc::mr
