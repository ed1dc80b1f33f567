#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mrmc::common {
namespace {

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSizeHonored) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ManySubmissionsAllComplete) {
  ThreadPool pool(4);
  std::vector<int> squares(100);
  std::latch done(100);
  for (int i = 0; i < 100; ++i) {
    pool.post([&, i] {
      squares[i] = i * i;
      done.count_down();
    });
  }
  done.wait();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(500);
  pool.parallel_for(500, [&](std::size_t i) { ++visits[i]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForGrainVisitsEveryIndexExactlyOnce) {
  // Counts on both sides of the one-index grain boundary (size × 64) and a
  // prime count whose last block is short.
  ThreadPool pool(3);
  const std::size_t boundary = pool.size() * 64;
  for (const std::size_t count :
       {std::size_t{1}, boundary - 1, boundary + 1, std::size_t{10007}}) {
    std::vector<std::atomic<int>> visits(count);
    pool.parallel_for(count, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "count " << count << " index " << i;
    }
  }
}

TEST(ThreadPool, ParallelForThrowInsideABlockStillRunsTheRest) {
  // 10007 indices on 2 workers claim blocks of 78, so index 100 throws in
  // the middle of a block; the rest of that block and every other index
  // must still run, and the exception must reach the caller.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> visits(10007);
  EXPECT_THROW(pool.parallel_for(visits.size(),
                                 [&](std::size_t i) {
                                   ++visits[i];
                                   if (i == 100) throw std::runtime_error("at 100");
                                 }),
               std::runtime_error);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int value = 0;
  pool.parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
}

TEST(ThreadPool, ParallelForRethrowsWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("at 57");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForContinuesAfterException) {
  // An exception in one run must not poison the pool for the next run.
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForAccumulatesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> partial(1000);
  pool.parallel_for(1000, [&](std::size_t i) { partial[i] = static_cast<long>(i); });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0L), 499500L);
}

// parallel_for from the pool's own workers: the caller claims blocks too,
// so the loop finishes even when no other worker is free.

/// Each nested loop's visit counts, and whether its caller saw the throw.
struct NestedRun {
  std::vector<std::vector<std::atomic<int>>> visits;
  std::vector<int> rethrown;
};

/// Runs a nested parallel_for of `count` indices from `callers` tasks posted
/// at once to `pool` (each task blocks until every task started, so all
/// workers are busy with a caller); index `throw_at` throws in every loop.
NestedRun run_nested(ThreadPool& pool, std::size_t callers, std::size_t count,
                     std::size_t throw_at) {
  NestedRun run;
  run.visits = std::vector<std::vector<std::atomic<int>>>(callers);
  for (auto& visits : run.visits) {
    visits = std::vector<std::atomic<int>>(count);
  }
  run.rethrown.assign(callers, 0);
  std::latch started(static_cast<std::ptrdiff_t>(callers));
  std::latch done(static_cast<std::ptrdiff_t>(callers));
  for (std::size_t c = 0; c < callers; ++c) {
    pool.post([&, c] {
      started.arrive_and_wait();
      try {
        pool.parallel_for(count, [&](std::size_t i) {
          ++run.visits[c][i];
          if (i == throw_at) throw std::runtime_error("nested");
        });
      } catch (const std::runtime_error&) {
        run.rethrown[c] = 1;
      }
      done.count_down();
    });
  }
  done.wait();
  return run;
}

TEST(ThreadPool, NestedParallelForOnOneWorkerRunsEveryIndexOnce) {
  ThreadPool pool(1);
  const NestedRun run = run_nested(pool, 1, 1000, 1000);
  for (const auto& v : run.visits[0]) EXPECT_EQ(v.load(), 1);
  EXPECT_EQ(run.rethrown[0], 0);
}

TEST(ThreadPool, NestedParallelForFromEveryWorkerAtOnce) {
  ThreadPool pool(4);
  const NestedRun run = run_nested(pool, 4, 10007, 10007);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < 10007; ++i) {
      ASSERT_EQ(run.visits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
    EXPECT_EQ(run.rethrown[c], 0);
  }
  // Helpers the callers posted but never needed drain as no-ops.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForRethrowsToTheNestedCaller) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    const NestedRun run = run_nested(pool, workers, 5000, 123);
    for (std::size_t c = 0; c < workers; ++c) {
      EXPECT_EQ(run.rethrown[c], 1) << workers << " workers, caller " << c;
      for (const auto& v : run.visits[c]) ASSERT_EQ(v.load(), 1);
    }
  }
}

}  // namespace
}  // namespace mrmc::common
