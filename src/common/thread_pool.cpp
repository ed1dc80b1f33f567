#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace mrmc::common {

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

void ThreadPool::worker_loop() {
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

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Each fetch_add claims a block of `grain` indices: about 64 blocks per
  // worker, so one shared counter is not hit once per index.
  const std::size_t grain = std::max<std::size_t>(1, count / (size() * 64));
  const std::size_t blocks = (count + grain - 1) / grain;
  const std::size_t tasks = std::min(blocks, size() * 4);
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    futures.push_back(submit([&] {
      for (;;) {
        const std::size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= count) return;
        const std::size_t end = std::min(count, begin + grain);
        for (std::size_t i = begin; i < end; ++i) {
          try {
            fn(i);
          } catch (...) {
            std::lock_guard lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mrmc::common
