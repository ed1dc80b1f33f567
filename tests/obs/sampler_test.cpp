#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/mini_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mrmc::obs {
namespace {

class SamplerTest : public ::testing::Test {
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

std::vector<TraceEvent> counter_events(const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : Tracer::global().events()) {
    if (event.phase == 'C' && event.name == name) out.push_back(event);
  }
  return out;
}

TEST_F(SamplerTest, SampleOncePublishesGaugesAndCounterEvents) {
  auto& sampler = ResourceSampler::global();
  sampler.register_probe("test.queue_depth", [] { return 42.0; });
  sampler.sample_once();

  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("sample.test.queue_depth"), 42.0);
  EXPECT_TRUE(snap.gauges.count("sample.process_rss_mb"));

  const auto probe_events = counter_events("test.queue_depth");
  ASSERT_EQ(probe_events.size(), 1u);
  EXPECT_EQ(probe_events[0].category, "counter");
  EXPECT_EQ(probe_events[0].arg("value"), "42");
  EXPECT_FALSE(counter_events("process rss (MB)").empty());
}

TEST_F(SamplerTest, ReRegisteringAProbeReplacesIt) {
  auto& sampler = ResourceSampler::global();
  const std::size_t before = sampler.probe_count();
  sampler.register_probe("test.replaced", [] { return 1.0; });
  EXPECT_EQ(sampler.probe_count(), before + 1);
  sampler.register_probe("test.replaced", [] { return 2.0; });
  EXPECT_EQ(sampler.probe_count(), before + 1);
  sampler.sample_once();
  EXPECT_DOUBLE_EQ(
      Registry::global().snapshot().gauges.at("sample.test.replaced"), 2.0);
}

TEST_F(SamplerTest, ProcessGaugesReadRealValues) {
#if defined(__linux__)
  EXPECT_GT(process_rss_bytes(), 0.0);
#else
  EXPECT_GE(process_rss_bytes(), 0.0);
#endif
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GE(process_cpu_seconds(), 0.0);
#endif
}

TEST_F(SamplerTest, CounterArgsSerializeAsJsonNumbers) {
  // 'C' events must carry unquoted numeric args or Chrome/Perfetto cannot
  // plot them; round-trip the serialized trace through the JSON parser.
  auto& sampler = ResourceSampler::global();
  sampler.register_probe("test.numeric", [] { return 2.5; });
  sampler.sample_once();

  std::ostringstream out;
  Tracer::global().write_chrome_trace(out);
  const auto root = common::parse_json(out.str());
  bool found = false;
  for (const auto& event : root.at("traceEvents").array) {
    if (event.at("ph").string != "C" ||
        event.at("name").string != "test.numeric") {
      continue;
    }
    found = true;
    const auto& value = event.at("args").at("value");
    ASSERT_EQ(value.type, common::JsonValue::Type::kNumber);
    EXPECT_DOUBLE_EQ(value.number, 2.5);
  }
  EXPECT_TRUE(found);
}

TEST_F(SamplerTest, SimTaskCountersFollowTheSimGrid) {
  auto& tracer = Tracer::global();
  const std::uint32_t pid = tracer.begin_sim_job("grid");
  const std::vector<SimInterval> map_tasks{{0.0, 1.0}};
  const std::vector<SimInterval> fetches{{1.0, 2.0}};
  const std::vector<SimInterval> reduce_tasks{{2.0, 3.0}};
  emit_sim_grid(tracer, pid, SimGrid::kActiveTasks, map_tasks, fetches,
                reduce_tasks, /*horizon_s=*/3.0, /*points=*/3);

  const auto events = counter_events("sim active tasks");
  ASSERT_EQ(events.size(), 4u);  // t = 0, 1, 2, 3
  const auto expect_point = [&](std::size_t i, double ts_s, const char* map,
                                const char* fetch, const char* reduce) {
    EXPECT_DOUBLE_EQ(events[i].ts_us, ts_s * 1e6);
    EXPECT_EQ(events[i].pid, pid);
    EXPECT_EQ(events[i].arg("map"), map);
    EXPECT_EQ(events[i].arg("fetch"), fetch);
    EXPECT_EQ(events[i].arg("reduce"), reduce);
  };
  // Intervals are [start, end): each instant sees exactly one live phase.
  expect_point(0, 0.0, "1", "0", "0");
  expect_point(1, 1.0, "0", "1", "0");
  expect_point(2, 2.0, "0", "0", "1");
  expect_point(3, 3.0, "0", "0", "0");
}

TEST_F(SamplerTest, SimTaskCountersAreDeterministic) {
  auto& tracer = Tracer::global();
  const std::vector<SimInterval> map_tasks{{0.0, 2.5}, {0.5, 3.25}};
  const std::vector<SimInterval> fetches{{2.5, 4.0}};
  const std::vector<SimInterval> reduce_tasks{{4.0, 7.75}};

  const auto emit_and_collect = [&] {
    tracer.clear();
    const std::uint32_t pid = tracer.begin_sim_job("det");
    emit_sim_grid(tracer, pid, SimGrid::kActiveTasks, map_tasks, fetches,
                  reduce_tasks, 7.75);
    std::string flat;
    for (const TraceEvent& event : Tracer::global().events()) {
      if (event.phase != 'C') continue;
      flat += event.name + "@" + trace_double(event.ts_us);
      for (const auto& [key, value] : event.args) {
        flat += " " + key + "=" + value;
      }
      flat += "\n";
    }
    return flat;
  };

  const std::string first = emit_and_collect();
  const std::string second = emit_and_collect();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(SamplerTest, BackgroundThreadSamplesOnItsOwn) {
  auto& sampler = ResourceSampler::global();
  std::atomic<int> calls{0};
  sampler.register_probe("test.background", [&calls] {
    calls.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  });
  sampler.set_period_ms(1.0);
  sampler.set_enabled(true);
  // One tick lands within a second even on a loaded machine.
  for (int i = 0; i < 1000 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.set_enabled(false);
  // Unregister the dangling probe by replacing it with a self-contained one.
  sampler.register_probe("test.background", [] { return 0.0; });
  EXPECT_GT(calls.load(), 0);
}

TEST_F(SamplerTest, ScopeRestoresTheStateItFound) {
  auto& sampler = ResourceSampler::global();
  sampler.set_period_ms(1e9);  // enabled, but the thread never ticks
  ASSERT_FALSE(sampler.enabled());
  {
    SamplerScope scope(sampler);
    EXPECT_TRUE(sampler.enabled());
    {
      // Nested double-enable is a no-op start; the inner scope restores the
      // (enabled) state the outer scope established.
      SamplerScope inner(sampler);
      EXPECT_TRUE(sampler.enabled());
    }
    EXPECT_TRUE(sampler.enabled());
  }
  EXPECT_FALSE(sampler.enabled());
}

TEST_F(SamplerTest, ScopeRestoresWhenAnExceptionUnwinds) {
  auto& sampler = ResourceSampler::global();
  sampler.set_period_ms(1e9);
  ASSERT_FALSE(sampler.enabled());
  try {
    SamplerScope scope(sampler);
    EXPECT_TRUE(sampler.enabled());
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // The background thread is joined and the sampler is exactly as found —
  // the regression this guards: a mid-job unwind used to leave the thread
  // running with no owner to stop it.
  EXPECT_FALSE(sampler.enabled());
  sampler.set_enabled(false);  // idempotent double-stop is safe
}

}  // namespace
}  // namespace mrmc::obs
