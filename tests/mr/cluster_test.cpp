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

}  // namespace
}  // namespace mrmc::mr
