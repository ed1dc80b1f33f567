// A fixed-size work-stealing-free thread pool with a bulk parallel_for
// helper.  One pool per pipeline run (the process-wide pool by default) runs
// the MapReduce engine's task graph and every parallel loop of the library:
// sketching, the pairwise similarity fill, candidate enumeration and
// verification, clustering, and the evaluation code.  parallel_for may be
// called from the pool's own workers, so a task can run a parallel loop.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mrmc::common {

class ThreadPool {
 public:
  /// Creates `threads` workers (at least 1).  `threads == 0` means
  /// hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks enqueued but not yet picked up by a worker (a telemetry probe;
  /// the value is stale the moment it is read).
  [[nodiscard]] std::size_t queue_depth() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  /// Enqueue a task.  The task must not throw: an exception that escapes it
  /// terminates the process, so a task that can fail catches inside itself
  /// (parallel_for's helpers and mr::runtime::TaskGraph's nodes both do).
  void post(std::function<void()> task);

  /// Run fn(i) for i in [0, count) across the pool and block until done.
  /// Claimants take contiguous blocks of max(1, count / (size() × 64))
  /// indices from one shared counter, so a cheap fn is not dominated by the
  /// claim.  Every index runs exactly once, even after another index threw;
  /// the first exception recorded is rethrown.  A caller that is one of this
  /// pool's workers claims blocks too, so a task may nest a parallel_for
  /// (even on a 1-thread pool); any other caller only waits.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// fn(i) for every i in [0, count): through pool->parallel_for when there is
/// a pool and more than one index, else in order on the calling thread.
inline void parallel_for(ThreadPool* pool, std::size_t count,
                         const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && count > 1) {
    pool->parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

}  // namespace mrmc::common
