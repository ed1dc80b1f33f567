// Tests for the task-graph runtime (mr/runtime.hpp) and the Job façade's
// determinism guarantees on top of it: identical output, counters, and
// simulated timeline at any thread count and under any split ordering, plus
// the real-re-execution retry model.
#include "mr/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "mr/bytes.hpp"
#include "mr/job.hpp"
#include "obs/metrics.hpp"

namespace mrmc::mr {
namespace {

// --------------------------------------------------------------- TaskGraph

TEST(TaskGraph, DependentsRunAfterAllDependencies) {
  common::ThreadPool pool(4);
  runtime::TaskGraph graph;
  std::mutex mutex;
  std::vector<int> order;
  const auto record = [&](int id) {
    std::lock_guard lock(mutex);
    order.push_back(id);
  };
  // Diamond: 0 -> {1, 2} -> 3.
  const auto a = graph.add_task([&](std::size_t) { record(0); }, {});
  const auto b = graph.add_task([&](std::size_t) { record(1); }, {a});
  const auto c = graph.add_task([&](std::size_t) { record(2); }, {a});
  const auto d = graph.add_task([&](std::size_t) { record(3); }, {b, c});
  graph.run(pool);

  ASSERT_EQ(order.size(), 4u);
  const auto pos = [&](int id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_EQ(graph.attempts(d), 1u);
  EXPECT_EQ(graph.total_retries(), 0u);
}

TEST(TaskGraph, TaskFailureIsRetriedUpToTheCap) {
  common::ThreadPool pool(2);
  runtime::TaskGraph graph;
  std::atomic<int> runs{0};
  const auto id = graph.add_task(
      [&](std::size_t attempt) {
        ++runs;
        if (attempt < 2) throw runtime::TaskFailure("flaky");
      },
      {}, {.label = "", .max_attempts = 3});
  graph.run(pool);
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(graph.attempts(id), 3u);
  EXPECT_EQ(graph.total_retries(), 2u);
}

TEST(TaskGraph, ExhaustedAttemptsAbortAndSkipDependents) {
  common::ThreadPool pool(2);
  runtime::TaskGraph graph;
  std::atomic<bool> dependent_ran{false};
  const auto bad = graph.add_task(
      [](std::size_t) -> void { throw runtime::TaskFailure("always"); }, {},
      {.label = "", .max_attempts = 2});
  graph.add_task([&](std::size_t) { dependent_ran = true; }, {bad});
  EXPECT_THROW(graph.run(pool), runtime::TaskFailure);
  EXPECT_EQ(graph.attempts(bad), 2u);
  EXPECT_FALSE(dependent_ran.load());
}

TEST(TaskGraph, NonRetryableExceptionAbortsImmediately) {
  common::ThreadPool pool(2);
  runtime::TaskGraph graph;
  const auto id = graph.add_task(
      [](std::size_t) -> void { throw std::runtime_error("bug"); }, {},
      {.label = "", .max_attempts = 5});
  EXPECT_THROW(graph.run(pool), std::runtime_error);
  EXPECT_EQ(graph.attempts(id), 1u);  // programming errors are not retried
}

TEST(TaskGraph, QueueDepthGaugeDrainsToZero) {
  common::ThreadPool pool(3);
  runtime::TaskGraph graph;
  for (int i = 0; i < 20; ++i) {
    graph.add_task([](std::size_t) {}, {});
  }
  graph.run(pool);
  EXPECT_EQ(
      obs::Registry::global().gauge("runtime.task_queue_depth").value(), 0.0);
}

// ---------------------------------------------------------- lost inputs

TEST(TaskGraph, LostInputReExecutesTheCompletedUpstream) {
  common::ThreadPool pool(2);
  runtime::TaskGraph graph;
  std::atomic<int> producer_runs{0};
  const auto producer =
      graph.add_task([&](std::size_t) { ++producer_runs; }, {});
  std::atomic<int> consumer_runs{0};
  const auto consumer = graph.add_task(
      [&](std::size_t attempt) {
        ++consumer_runs;
        // First try: the producer's output "died with its node".
        if (attempt == 0) {
          throw runtime::LostInputFailure("output lost", producer);
        }
      },
      {producer});
  graph.run(pool);

  EXPECT_EQ(producer_runs.load(), 2);  // original + re-execution
  EXPECT_EQ(consumer_runs.load(), 2);  // parked, resumed after the re-run
  EXPECT_EQ(graph.attempts(producer), 2u);
  EXPECT_EQ(graph.lost_input_reruns(producer), 1u);
  EXPECT_EQ(graph.lost_input_reruns(consumer), 0u);
  EXPECT_EQ(graph.attempts(consumer), 2u);
  // Lost-input re-runs are not failures: nothing counts as a retry.
  EXPECT_EQ(graph.total_retries(), 0u);
}

TEST(TaskGraph, RepeatedLossesRerunTheUpstreamEachTime) {
  common::ThreadPool pool(3);
  runtime::TaskGraph graph;
  const auto producer = graph.add_task([](std::size_t) {}, {});
  const auto consumer = graph.add_task(
      [&](std::size_t attempt) {
        if (attempt < 3) {
          throw runtime::LostInputFailure("still lost", producer);
        }
      },
      {producer}, {.label = "", .max_attempts = 1});
  graph.run(pool);
  EXPECT_EQ(graph.lost_input_reruns(producer), 3u);
  EXPECT_EQ(graph.attempts(producer), 4u);
  EXPECT_EQ(graph.attempts(consumer), 4u);  // under max_attempts = 1: no retry
  EXPECT_EQ(graph.total_retries(), 0u);
}

TEST(TaskGraph, DownstreamDependentsAreReleasedOnlyOnce) {
  common::ThreadPool pool(4);
  runtime::TaskGraph graph;
  const auto producer = graph.add_task([](std::size_t) {}, {});
  // One sibling re-runs the producer; the other two dependents must still
  // run exactly once despite the producer finishing twice.
  const auto flaky = graph.add_task(
      [&](std::size_t attempt) {
        if (attempt == 0) {
          throw runtime::LostInputFailure("lost", producer);
        }
      },
      {producer});
  std::atomic<int> sibling_runs{0};
  const auto sibling =
      graph.add_task([&](std::size_t) { ++sibling_runs; }, {producer});
  std::atomic<int> join_runs{0};
  const auto join = graph.add_task([&](std::size_t) { ++join_runs; },
                                   {producer, flaky, sibling});
  graph.run(pool);
  EXPECT_EQ(sibling_runs.load(), 1);
  EXPECT_EQ(join_runs.load(), 1);
  EXPECT_EQ(graph.attempts(sibling), 1u);
  EXPECT_EQ(graph.attempts(join), 1u);
}

TEST(TaskGraph, LostInputNamingANonDependencyAborts) {
  common::ThreadPool pool(2);
  runtime::TaskGraph graph;
  const auto id = graph.add_task(
      [](std::size_t) -> void {
        // A task cannot claim to have lost its *own* (or a later) output;
        // that is a programming error, not a recoverable fault.
        throw runtime::LostInputFailure("bogus", 0);
      },
      {});
  EXPECT_THROW(graph.run(pool), common::Error);
  EXPECT_EQ(graph.attempts(id), 1u);
}

TEST(PoolLease, SharedByDefaultIsolatedOnRequest) {
  EXPECT_EQ(&runtime::shared_pool(), &runtime::shared_pool());
  runtime::PoolLease shared(0, false);
  EXPECT_EQ(&shared.pool(), &runtime::shared_pool());
  EXPECT_FALSE(shared.owns_pool());

  runtime::PoolLease sized(2, false);
  EXPECT_TRUE(sized.owns_pool());
  EXPECT_EQ(sized.pool().size(), 2u);
  EXPECT_NE(&sized.pool(), &runtime::shared_pool());

  runtime::PoolLease isolated(0, true);
  EXPECT_TRUE(isolated.owns_pool());
  EXPECT_NE(&isolated.pool(), &runtime::shared_pool());
}

// ------------------------------------------------------------- stable hash

// Independent re-statement of the specified algorithm (FNV-1a over
// length-prefixed bytes, finished with mix64).  If either copy drifts, the
// partitioner's cross-platform stability guarantee broke.
std::uint64_t reference_fnv(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto feed = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
  };
  const std::uint64_t size = text.size();
  feed(&size, sizeof(size));
  feed(text.data(), text.size());
  return common::mix64(hash);
}

TEST(StableHash, MatchesTheSpecifiedAlgorithm) {
  for (const std::string key : {"", "fox", "the quick brown fox", "\x01\x02"}) {
    EXPECT_EQ(stable_hash(key), reference_fnv(key)) << key;
  }
}

TEST(StableHash, LengthPrefixDisambiguatesComposites) {
  using P = std::pair<std::string, std::string>;
  EXPECT_NE(stable_hash(P{"ab", "c"}), stable_hash(P{"a", "bc"}));
  EXPECT_NE(stable_hash(std::vector<std::string>{"a", "b"}),
            stable_hash(std::vector<std::string>{"ab"}));
  EXPECT_NE(stable_hash(std::int64_t{1}), stable_hash(std::int64_t{2}));
  EXPECT_EQ(stable_hash(std::string("fox")), stable_hash(std::string("fox")));
}

// ----------------------------------------------- determinism across shapes

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

/// Splits with strictly distinct sizes so every simulated task duration is
/// unique — the LPT schedule (and thus the fetch timeline) has no ties to
/// break arbitrarily under reordering.
std::vector<std::vector<long>> make_splits(std::size_t count,
                                           std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<std::vector<long>> splits(count);
  for (std::size_t s = 0; s < count; ++s) {
    splits[s].resize(5 + 3 * s);  // distinct sizes
    for (auto& value : splits[s]) value = static_cast<long>(rng.bounded(23));
  }
  return splits;
}

struct RunSnapshot {
  std::vector<std::pair<long, long>> output;
  Counters counters;
  std::size_t reduce_groups = 0;
  double shuffle_bytes = 0.0;
  double map_makespan = 0.0;
  double reduce_makespan = 0.0;
  double shuffle_s = 0.0;
  double total_s = 0.0;
  std::vector<std::pair<double, double>> task_spans;  // sorted (start, end)
};

RunSnapshot snapshot(const JobResult<std::pair<long, long>>& result) {
  RunSnapshot snap;
  snap.output = result.output;
  snap.counters = result.stats.counters;
  snap.reduce_groups = result.stats.reduce_groups;
  snap.shuffle_bytes = result.stats.shuffle_bytes;
  const JobTimeline& timeline = result.stats.timeline;
  snap.map_makespan = timeline.map_phase.makespan_s;
  snap.reduce_makespan = timeline.reduce_phase.makespan_s;
  snap.shuffle_s = timeline.shuffle_s;
  snap.total_s = timeline.total_s;
  for (const TaskPlacement& task : timeline.map_phase.tasks) {
    snap.task_spans.emplace_back(task.start_s, task.end_s);
  }
  for (const TaskPlacement& task : timeline.reduce_phase.tasks) {
    snap.task_spans.emplace_back(task.start_s, task.end_s);
  }
  std::sort(snap.task_spans.begin(), snap.task_spans.end());
  return snap;
}

void expect_identical(const RunSnapshot& a, const RunSnapshot& b,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.output, b.output);  // identical ordering, not just same set
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.reduce_groups, b.reduce_groups);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);  // bit-exact doubles
  EXPECT_EQ(a.map_makespan, b.map_makespan);
  EXPECT_EQ(a.reduce_makespan, b.reduce_makespan);
  EXPECT_EQ(a.shuffle_s, b.shuffle_s);
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.task_spans, b.task_spans);
}

common::ThreadPool& two_workers() {
  static common::ThreadPool pool(2);
  return pool;
}

JobConfig determinism_config(common::ThreadPool& pool = two_workers()) {
  JobConfig config;
  config.name = "determinism";
  config.num_reducers = 4;
  config.cluster.nodes = 4;
  config.pool = &pool;
  return config;
}

TEST(JobDeterminism, OutputCountersAndTimelineAgreeAcrossThreadCounts) {
  const auto splits = make_splits(9, 29);
  const std::vector<int> nodes(splits.size(), -1);

  RunSnapshot base;
  bool have_base = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0} /* shared hw pool */}) {
    runtime::PoolLease lease(threads, false);
    CountJob job(determinism_config(lease.pool()), histogram_mapper(),
                 sum_reducer());
    const RunSnapshot snap = snapshot(job.run_splits(splits, nodes));
    if (!have_base) {
      base = snap;
      have_base = true;
      EXPECT_FALSE(base.output.empty());
      continue;
    }
    expect_identical(base, snap, "threads=" + std::to_string(threads));
  }
}

TEST(JobDeterminism, ShuffledSplitOrderIsByteIdentical) {
  const auto splits = make_splits(8, 31);
  const std::vector<int> nodes(splits.size(), -1);

  CountJob job(determinism_config(), histogram_mapper(), sum_reducer());
  const RunSnapshot base = snapshot(job.run_splits(splits, nodes));

  // A fixed derangement of the split order.
  std::vector<std::size_t> perm(splits.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::rotate(perm.begin(), perm.begin() + 3, perm.end());
  std::vector<std::vector<long>> shuffled;
  shuffled.reserve(splits.size());
  for (const std::size_t p : perm) shuffled.push_back(splits[p]);

  CountJob job2(determinism_config(), histogram_mapper(), sum_reducer());
  const RunSnapshot snap = snapshot(job2.run_splits(shuffled, nodes));
  expect_identical(base, snap, "rotated split order");
}

// ------------------------------------------------------------- retry model

TEST(JobRetries, ReduceFailureIsReExecutedAndCounted) {
  const auto splits = make_splits(4, 37);
  const std::vector<int> nodes(splits.size(), -1);

  auto config = determinism_config();
  config.name = "reduce-retry";
  config.reduce_failure_rate = 1.0;  // every reduce task fails...
  config.max_task_attempts = 3;      // ...twice, succeeding on the last try

  CountJob job(config, histogram_mapper(), sum_reducer());
  const auto result = job.run_splits(splits, nodes);

  EXPECT_EQ(result.stats.reduce_retries, 2u * config.num_reducers);
  EXPECT_EQ(result.stats.map_retries, 0u);
  EXPECT_EQ(result.stats.max_task_attempts, 3u);

  // Re-execution must not corrupt the answer.
  auto clean_config = determinism_config();
  clean_config.name = "reduce-clean";
  CountJob clean(clean_config, histogram_mapper(), sum_reducer());
  const auto baseline = clean.run_splits(splits, nodes);
  EXPECT_EQ(result.output, baseline.output);
  EXPECT_EQ(result.stats.counters, baseline.stats.counters);
  // The failed attempts are re-paid in simulated time.
  EXPECT_GT(result.stats.timeline.total_s, baseline.stats.timeline.total_s);
}

TEST(JobRetries, MapAndReduceFailuresCompose) {
  const auto splits = make_splits(5, 41);
  const std::vector<int> nodes(splits.size(), -1);

  auto config = determinism_config();
  config.name = "both-retry";
  config.map_failure_rate = 1.0;
  config.reduce_failure_rate = 1.0;
  config.max_task_attempts = 2;

  CountJob job(config, histogram_mapper(), sum_reducer());
  const auto result = job.run_splits(splits, nodes);
  EXPECT_EQ(result.stats.map_retries, splits.size());
  EXPECT_EQ(result.stats.reduce_retries, config.num_reducers);

  auto clean_config = determinism_config();
  clean_config.name = "both-clean";
  CountJob clean(clean_config, histogram_mapper(), sum_reducer());
  EXPECT_EQ(result.output, clean.run_splits(splits, nodes).output);
}

TEST(JobRetries, UserExceptionIsNotRetried) {
  auto config = determinism_config();
  config.name = "user-error";
  CountJob job(config, histogram_mapper(),
               [](const long&, std::vector<long>&,
                  std::vector<std::pair<long, long>>&) {
                 throw std::runtime_error("reducer bug");
               });
  EXPECT_THROW(job.run(std::vector<long>{1, 2, 3}), std::runtime_error);
}

// ------------------------------------------- overlapped shuffle simulation

TEST(OverlappedShuffle, HidesTransferTimeUnderTheMapPhase) {
  const auto splits = make_splits(10, 43);
  const std::vector<int> nodes(splits.size(), -1);

  auto overlapped_config = determinism_config();
  overlapped_config.name = "overlapped";
  overlapped_config.overlapped_shuffle = true;
  auto barrier_config = determinism_config();
  barrier_config.name = "barrier";
  barrier_config.overlapped_shuffle = false;

  CountJob overlapped_job(overlapped_config, histogram_mapper(), sum_reducer());
  CountJob barrier_job(barrier_config, histogram_mapper(), sum_reducer());
  const auto overlapped = overlapped_job.run_splits(splits, nodes);
  const auto barrier = barrier_job.run_splits(splits, nodes);

  // Real output and shuffle volume are independent of the shuffle model.
  EXPECT_EQ(overlapped.output, barrier.output);
  EXPECT_EQ(overlapped.stats.shuffle_bytes, barrier.stats.shuffle_bytes);

  // The overlapped model records per-fetch events; the barrier model keeps
  // the aggregate transfer.
  EXPECT_FALSE(overlapped.stats.timeline.fetches.empty());
  EXPECT_TRUE(barrier.stats.timeline.fetches.empty());
  EXPECT_GT(barrier.stats.timeline.shuffle_s, 0.0);

  // Small per-map runs drain while later map tasks still compute, so only a
  // tail (here: none) outlives the map phase.
  EXPECT_LE(overlapped.stats.timeline.shuffle_s,
            barrier.stats.timeline.shuffle_s);
  EXPECT_LE(overlapped.stats.timeline.total_s, barrier.stats.timeline.total_s);

  // Every fetch starts at or after its producing map task's end.
  const auto& timeline = overlapped.stats.timeline;
  for (const FetchPlacement& fetch : timeline.fetches) {
    ASSERT_LT(fetch.map_task, timeline.map_phase.tasks.size());
    EXPECT_GE(fetch.start_s, timeline.map_phase.tasks[fetch.map_task].end_s);
    EXPECT_GE(fetch.end_s, fetch.start_s);
  }
}

TEST(OverlappedShuffle, MergeWidthHistogramObservesEveryReducer) {
  const long before = obs::Registry::global()
                          .histogram("runtime.reduce_merge_width")
                          .snapshot()
                          .count;
  auto config = determinism_config();
  config.name = "merge-width";
  CountJob job(config, histogram_mapper(), sum_reducer());
  job.run(make_splits(3, 47)[2]);  // any input
  const long after = obs::Registry::global()
                         .histogram("runtime.reduce_merge_width")
                         .snapshot()
                         .count;
  EXPECT_EQ(after - before, static_cast<long>(config.num_reducers));
}

}  // namespace
}  // namespace mrmc::mr
