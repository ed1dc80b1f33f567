#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
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

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManySubmissionsAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
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

}  // namespace
}  // namespace mrmc::common
