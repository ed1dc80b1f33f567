#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace mrmc::common {

namespace {

/// The pool whose worker_loop runs on this thread, if any.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Each fetch_add claims a block of `grain` indices: about 64 blocks per
  // worker, so one shared counter is not hit once per index.
  const std::size_t grain = std::max<std::size_t>(1, count / (size() * 64));
  const std::size_t tasks = std::min((count + grain - 1) / grain, size() * 4);
  // Helpers hold the loop's state by shared_ptr: one that starts after the
  // caller returned still finds the counter, sees it past the end and
  // returns without touching fn, which is read only after a claim succeeds
  // (the caller waits until every claimant reported its indices).
  struct Loop {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t finished = 0;  // guarded by mutex, as is error
    std::exception_ptr error;
  };
  const auto loop = std::make_shared<Loop>();
  const auto claim = [loop, count, grain, fn = &fn] {
    std::size_t done = 0;
    std::exception_ptr error;
    for (;;) {
      const std::size_t begin =
          loop->next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) break;
      const std::size_t end = std::min(count, begin + grain);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*fn)(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      done += end - begin;
    }
    std::lock_guard lock(loop->mutex);
    if (!loop->error) loop->error = error;
    if ((loop->finished += done) == count) loop->cv.notify_all();
  };
  // A worker of this pool claims blocks itself, so its loop finishes even
  // when every other worker is busy (or there is none).
  const bool nested = current_pool == this;
  for (std::size_t t = nested ? 1 : 0; t < tasks; ++t) post(claim);
  if (nested) claim();
  std::unique_lock lock(loop->mutex);
  loop->cv.wait(lock, [&] { return loop->finished == count; });
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace mrmc::common
