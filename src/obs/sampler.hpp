// Background resource telemetry sampler (obs v2 layer 1).
//
// Samples time-series gauges — process RSS, CPU utilization, and any
// registered probe (thread-pool queue depth, live map/fetch/reduce task
// counts) — on a fixed period, publishing every sample twice:
//
//   * as a Chrome-trace counter event ('C') on the wall-clock track, so a
//     flushed trace shows resource usage stacked under the task spans;
//   * as an obs gauge `sample.<name>`, so MRMC_METRICS snapshots carry the
//     last observed value.
//
// Enable with MRMC_SAMPLE=<period_ms> (the background thread starts on
// first use of the global sampler) or programmatically via set_enabled();
// `sample_once()` takes one synchronous tick for deterministic tests.
//
// Layering: obs cannot see mr, so the sampler knows nothing about task
// graphs — mr::runtime registers plain `double()` probes here instead
// (probe inversion).  Probes must be callable from the sampler thread at
// any time and must not block.
//
// Simulated jobs need reproducible traces, so wall-clock sampling is wrong
// for them: emit_sim_grid() instead evaluates task activity (and, for the
// progress tracker, task completion) on a deterministic sim-time grid (pure
// arithmetic over the finished timeline), producing identical counter
// events on every run of a seeded job.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace mrmc::obs {

/// One task's lifetime on the simulated clock, [start_s, end_s).
struct SimInterval {
  double start_s = 0.0;
  double end_s = 0.0;
};

class ResourceSampler {
 public:
  /// The process-wide sampler; first use reads MRMC_SAMPLE (a period in
  /// milliseconds — enables sampling and starts the background thread).
  static ResourceSampler& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Enabling starts the background thread (when the period is positive);
  /// disabling stops it.  sample_once() works regardless.
  void set_enabled(bool enabled);

  [[nodiscard]] double period_ms() const;
  void set_period_ms(double period_ms);

  /// Register (or replace) a named probe.  The sampler calls it on every
  /// tick from its own thread; it must be thread-safe and non-blocking.
  void register_probe(std::string name, std::function<double()> probe);

  [[nodiscard]] std::size_t probe_count() const;

  /// Take one synchronous sample: built-in process gauges (RSS, CPU
  /// utilization) plus every registered probe, each published as a trace
  /// counter event and a `sample.<name>` gauge.
  void sample_once();

  ~ResourceSampler();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

 private:
  ResourceSampler();

  void start_locked();
  void stop_thread();
  void run();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  double period_ms_ = 100.0;
  bool stop_ = false;
  std::thread thread_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;

  // CPU-utilization state: deltas between consecutive samples.
  std::mutex cpu_mutex_;
  double last_cpu_s_ = -1.0;
  double last_wall_us_ = 0.0;
};

/// RAII sampler bracket: flips the sampler to `enabled` at construction and
/// restores the state it found at destruction — including when an exception
/// unwinds mid-job, so the background thread is always joined (or left
/// running) exactly as the caller found it.  Double-enabling is harmless:
/// set_enabled(true) on a running sampler is a no-op start.
class SamplerScope {
 public:
  explicit SamplerScope(ResourceSampler& sampler, bool enabled = true)
      : sampler_(&sampler), previous_(sampler.enabled()) {
    sampler_->set_enabled(enabled);
  }
  ~SamplerScope() { sampler_->set_enabled(previous_); }
  SamplerScope(const SamplerScope&) = delete;
  SamplerScope& operator=(const SamplerScope&) = delete;

 private:
  ResourceSampler* sampler_;
  bool previous_;
};

/// Resident set size of this process in bytes (/proc/self/statm on Linux);
/// 0.0 where unavailable.
[[nodiscard]] double process_rss_bytes() noexcept;

/// Total CPU seconds (user + system) this process has consumed (getrusage);
/// -1.0 where unavailable.
[[nodiscard]] double process_cpu_seconds() noexcept;

/// The deterministic sim-clock counter series of one simulated job.
enum class SimGrid {
  /// "sim active tasks" {map, fetch, reduce}: tasks live at t, [start, end).
  kActiveTasks,
  /// "sim progress" {map_done, fetch_done, reduce_done}: tasks ended by t.
  kProgress,
};

/// Sim-time counter grid for one simulated job: evaluates `grid` over the
/// map / fetch / reduce task intervals at each of `points + 1` equally
/// spaced instants t_k = horizon_s * k / points and emits one counter event
/// per instant on the job's `pid` track group.  Pure arithmetic over the
/// finished timeline — identical output on every run of a seeded job and
/// at any thread count, unlike wall-clock sampling, and invisible to the
/// doctor's trace reconstruction.  No-op while the tracer is disabled or
/// horizon_s <= 0.
void emit_sim_grid(Tracer& tracer, std::uint32_t pid, SimGrid grid,
                   std::span<const SimInterval> map_tasks,
                   std::span<const SimInterval> fetches,
                   std::span<const SimInterval> reduce_tasks, double horizon_s,
                   std::size_t points = 64);

}  // namespace mrmc::obs
