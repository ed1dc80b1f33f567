// A fixed-size work-stealing-free thread pool with a bulk parallel_for
// helper.  One process-wide pool runs the MapReduce engine's task waves and
// every parallel loop of the library: sketching, the pairwise similarity
// fill, candidate enumeration and verification, and the evaluation code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
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

  /// Enqueue a task; the returned future rethrows any exception the task threw.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task]() mutable { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, count) across the pool and block until done.
  /// Workers claim contiguous blocks of max(1, count / (size() × 64))
  /// indices from one shared counter, so a cheap fn is not dominated by the
  /// claim.  Every index runs exactly once, even after another index threw;
  /// the first exception caught is rethrown.
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
