#include "obs/progress.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mrmc::obs::progress {
namespace {

class ProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& tracker = Tracker::global();
    tracker.set_render(false);  // keep test output clean
    tracker.set_enabled(true);
  }
  void TearDown() override { Tracker::global().set_enabled(false); }
};

TEST_F(ProgressTest, CountsTasksRetriesAndBytes) {
  auto& tracker = Tracker::global();
  tracker.begin_job("unit", 4, 8, 2);
  tracker.task_done(TaskClass::kMap);
  tracker.task_done(TaskClass::kMap);
  tracker.task_done(TaskClass::kFetch);
  tracker.task_done(TaskClass::kReduce);
  tracker.task_done(TaskClass::kOther);
  tracker.retry();
  tracker.add_bytes(1024.0);
  tracker.add_bytes(512.0);

  const Tracker::Snapshot snap = tracker.snapshot();
  EXPECT_TRUE(snap.active);
  EXPECT_EQ(snap.job, "unit");
  EXPECT_EQ(snap.planned_maps, 4u);
  EXPECT_EQ(snap.done_maps, 2u);
  EXPECT_EQ(snap.planned_fetches, 8u);
  EXPECT_EQ(snap.done_fetches, 1u);
  EXPECT_EQ(snap.planned_reduces, 2u);
  EXPECT_EQ(snap.done_reduces, 1u);
  EXPECT_EQ(snap.done_other, 1u);
  EXPECT_EQ(snap.retries, 1u);
  EXPECT_DOUBLE_EQ(snap.bytes, 1536.0);
  // 4 of 14 planned tasks are done.
  EXPECT_DOUBLE_EQ(snap.fraction, 4.0 / 14.0);
  EXPECT_GE(snap.elapsed_s, 0.0);
  EXPECT_GE(snap.eta_s, 0.0);  // fraction > 0 makes the estimate available

  tracker.end_job();
  const Tracker::Snapshot after = tracker.snapshot();
  EXPECT_FALSE(after.active);
  EXPECT_EQ(after.jobs_completed, snap.jobs_completed + 1);
}

TEST_F(ProgressTest, BeginJobResetsTheTallies) {
  auto& tracker = Tracker::global();
  tracker.begin_job("first", 2, 2, 2);
  tracker.task_done(TaskClass::kMap);
  tracker.add_bytes(99.0);
  tracker.end_job();

  tracker.begin_job("second", 5, 0, 1);
  const Tracker::Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.job, "second");
  EXPECT_EQ(snap.done_maps, 0u);
  EXPECT_DOUBLE_EQ(snap.bytes, 0.0);
  EXPECT_DOUBLE_EQ(snap.fraction, 0.0);
  EXPECT_EQ(snap.eta_s, -1.0);  // nothing done yet: no estimate
  tracker.end_job();
}

TEST_F(ProgressTest, DisabledTrackerIgnoresTheHotPath) {
  auto& tracker = Tracker::global();
  tracker.begin_job("gated", 1, 1, 1);
  tracker.set_enabled(false);
  tracker.task_done(TaskClass::kMap);
  tracker.retry();
  tracker.add_bytes(7.0);
  tracker.set_enabled(true);
  const Tracker::Snapshot snap = tracker.snapshot();
  EXPECT_EQ(snap.done_maps, 0u);
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_DOUBLE_EQ(snap.bytes, 0.0);
  tracker.end_job();
}

TEST_F(ProgressTest, JobScopeEndsTheJobWhenAnExceptionUnwinds) {
  auto& tracker = Tracker::global();
  try {
    Tracker::JobScope scope(tracker, "doomed", 3, 3, 3);
    EXPECT_TRUE(tracker.snapshot().active);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(tracker.snapshot().active);
}

TEST_F(ProgressTest, JobScopeIsANoOpWhileDisabled) {
  auto& tracker = Tracker::global();
  tracker.set_enabled(false);
  const std::size_t before = tracker.snapshot().jobs_completed;
  { Tracker::JobScope scope(tracker, "ghost", 1, 1, 1); }
  tracker.set_enabled(true);
  EXPECT_EQ(tracker.snapshot().jobs_completed, before);
}

// ------------------------------------------------------- sim progress grid

std::vector<TraceEvent> grid_events() {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : Tracer::global().events()) {
    if (event.phase == 'C' && event.name == "sim progress") {
      out.push_back(event);
    }
  }
  return out;
}

class ProgressGridTest : public ::testing::Test {
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

TEST_F(ProgressGridTest, CumulativeCountsFollowTheSimClock) {
  const std::vector<SimInterval> maps = {{0.0, 2.0}, {0.0, 4.0}};
  const std::vector<SimInterval> fetches = {{2.0, 3.0}};
  const std::vector<SimInterval> reduces = {{4.0, 8.0}};
  emit_sim_grid(Tracer::global(), 2, SimGrid::kProgress, maps, fetches,
                reduces, 8.0, 4);

  const auto events = grid_events();
  ASSERT_EQ(events.size(), 5u);  // points + 1 instants
  // t=0: nothing done yet.
  EXPECT_EQ(events[0].arg("map_done"), "0");
  // t=2: the first map (end 2.0 <= 2) is done.
  EXPECT_EQ(events[1].arg("map_done"), "1");
  EXPECT_EQ(events[1].arg("fetch_done"), "0");
  // t=4: both maps and the fetch are done.
  EXPECT_EQ(events[2].arg("map_done"), "2");
  EXPECT_EQ(events[2].arg("fetch_done"), "1");
  EXPECT_EQ(events[2].arg("reduce_done"), "0");
  // t=8: everything.
  EXPECT_EQ(events[4].arg("reduce_done"), "1");
}

TEST_F(ProgressGridTest, GridIsDeterministic) {
  const std::vector<SimInterval> maps = {{0.0, 1.5}, {0.5, 3.25}};
  const std::vector<SimInterval> reduces = {{3.25, 7.75}};
  emit_sim_grid(Tracer::global(), 3, SimGrid::kProgress, maps, {}, reduces,
                7.75);
  const auto first = grid_events();
  Tracer::global().clear();
  emit_sim_grid(Tracer::global(), 3, SimGrid::kProgress, maps, {}, reduces,
                7.75);
  const auto second = grid_events();
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 65u);  // default 64 points + 1
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].ts_us, second[i].ts_us);
    EXPECT_EQ(first[i].args, second[i].args);
  }
}

TEST_F(ProgressGridTest, NoOpWithoutTracerOrHorizon) {
  const std::vector<SimInterval> maps = {{0.0, 1.0}};
  Tracer::global().set_enabled(false);
  emit_sim_grid(Tracer::global(), 2, SimGrid::kProgress, maps, {}, {}, 1.0);
  Tracer::global().set_enabled(true);
  emit_sim_grid(Tracer::global(), 2, SimGrid::kProgress, maps, {}, {}, 0.0);
  EXPECT_TRUE(grid_events().empty());
}

}  // namespace
}  // namespace mrmc::obs::progress
