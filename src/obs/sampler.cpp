#include "obs/sampler.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace mrmc::obs {

double process_rss_bytes() noexcept {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  long size_pages = 0;
  long resident_pages = 0;
  const int fields = std::fscanf(statm, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident_pages) *
         static_cast<double>(page > 0 ? page : 4096);
#else
  return 0.0;
#endif
}

double process_cpu_seconds() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
  const auto to_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
#else
  return -1.0;
#endif
}

ResourceSampler::ResourceSampler() {
  // Touch the singletons this sampler publishes to, so they are constructed
  // before (and therefore destroyed after) the sampler and its thread.
  (void)Registry::global();
  (void)Tracer::global();
  if (const char* value = std::getenv("MRMC_SAMPLE")) {
    if (*value != '\0') {
      const double period = std::strtod(value, nullptr);
      period_ms_ = period > 0.0 ? period : 100.0;
      enabled_.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      start_locked();
    }
  }
}

ResourceSampler::~ResourceSampler() { stop_thread(); }

ResourceSampler& ResourceSampler::global() {
  static ResourceSampler sampler;
  return sampler;
}

void ResourceSampler::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  if (enabled) {
    std::lock_guard<std::mutex> lock(mutex_);
    start_locked();
  } else {
    stop_thread();
  }
}

double ResourceSampler::period_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return period_ms_;
}

void ResourceSampler::set_period_ms(double period_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (period_ms > 0.0) period_ms_ = period_ms;
}

void ResourceSampler::register_probe(std::string name,
                                     std::function<double()> probe) {
  if (!probe) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, fn] : probes_) {
    if (existing == name) {
      fn = std::move(probe);
      return;
    }
  }
  probes_.emplace_back(std::move(name), std::move(probe));
}

std::size_t ResourceSampler::probe_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return probes_.size();
}

void ResourceSampler::sample_once() {
  auto& registry = Registry::global();
  auto& tracer = Tracer::global();

  const double rss_mb = process_rss_bytes() / 1e6;
  registry.gauge("sample.process_rss_mb").set(rss_mb);
  tracer.counter("process rss (MB)", {{"rss_mb", trace_double(rss_mb)}});

  // CPU utilization: cpu-seconds burned per wall-second since the previous
  // sample (can exceed 1.0 — the process is multi-threaded).
  const double cpu_s = process_cpu_seconds();
  if (cpu_s >= 0.0) {
    double util = 0.0;
    {
      std::lock_guard<std::mutex> lock(cpu_mutex_);
      const double wall_us = tracer.now_us();
      if (last_cpu_s_ >= 0.0 && wall_us > last_wall_us_) {
        util = (cpu_s - last_cpu_s_) / ((wall_us - last_wall_us_) * 1e-6);
      }
      last_cpu_s_ = cpu_s;
      last_wall_us_ = wall_us;
    }
    registry.gauge("sample.process_cpu_util").set(util);
    tracer.counter("process cpu util", {{"cpu_util", trace_double(util)}});
  }

  // Registered probes, outside the lock (a probe may touch the registry).
  std::vector<std::pair<std::string, std::function<double()>>> probes;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    probes = probes_;
  }
  for (const auto& [name, probe] : probes) {
    const double value = probe();
    registry.gauge("sample." + name).set(value);
    tracer.counter(name, {{"value", trace_double(value)}});
  }
}

void ResourceSampler::start_locked() {
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { run(); });
}

void ResourceSampler::stop_thread() {
  // Move the worker out under the lock so concurrent stop calls can never
  // both reach join() on the same std::thread (which would be UB): exactly
  // one caller owns the handle, everyone else sees it already gone.
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!thread_.joinable()) return;
    stop_ = true;
    worker = std::move(thread_);
  }
  cv_.notify_all();
  worker.join();
  std::lock_guard<std::mutex> lock(mutex_);
  stop_ = false;
}

void ResourceSampler::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const auto period = std::chrono::duration<double, std::milli>(period_ms_);
    cv_.wait_for(lock, period, [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    if (enabled()) sample_once();
    lock.lock();
  }
}

void emit_sim_grid(Tracer& tracer, std::uint32_t pid, SimGrid grid,
                   std::span<const SimInterval> map_tasks,
                   std::span<const SimInterval> fetches,
                   std::span<const SimInterval> reduce_tasks, double horizon_s,
                   std::size_t points) {
  if (!tracer.enabled() || horizon_s <= 0.0 || points == 0) return;
  const bool progress = grid == SimGrid::kProgress;
  const char* const name = progress ? "sim progress" : "sim active tasks";
  const std::string suffix = progress ? "_done" : "";
  const auto count_at = [progress](std::span<const SimInterval> tasks,
                                   double t) {
    long count = 0;
    for (const SimInterval& task : tasks) {
      count += progress ? task.end_s <= t
                        : (task.start_s <= t && t < task.end_s);
    }
    return std::to_string(count);
  };
  for (std::size_t k = 0; k <= points; ++k) {
    const double t =
        horizon_s * static_cast<double>(k) / static_cast<double>(points);
    tracer.sim_counter(pid, name, t,
                       {{"map" + suffix, count_at(map_tasks, t)},
                        {"fetch" + suffix, count_at(fetches, t)},
                        {"reduce" + suffix, count_at(reduce_tasks, t)}});
  }
}

}  // namespace mrmc::obs
