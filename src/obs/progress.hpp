// Live job progress (obs v3): maps/fetches/reduces done vs planned, retry
// counts and byte throughput, fed from the executor's task-completion path.
//
// The Tracker is a process-wide singleton of relaxed atomics — the hot path
// (one fetch_add per completed task) is lock-free and cheap enough to stay
// on even when nobody is watching.  Consumers read a coherent Snapshot; the
// opt-in MRMC_PROGRESS stderr status line ("\r"-refreshed, ETA-estimating)
// is throttled and rendered under a try_lock so it never blocks a worker.
//
// Everything here touches only real wall time and stderr; the simulated
// layer stays untouched, so seeded runs remain byte-deterministic with
// progress enabled.  For simulated jobs, obs::emit_sim_grid() with
// SimGrid::kProgress writes a deterministic sim-clock "sim progress"
// counter series into the trace — derived purely from the scheduler's task
// intervals, identical across runs and thread counts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace mrmc::obs::progress {

/// Task classes the engine reports.  obs cannot see mr, so the executor
/// maps its own TaskKind onto this enum at the callback boundary.
enum class TaskClass { kOther = 0, kMap = 1, kFetch = 2, kReduce = 3 };

inline constexpr std::size_t kTaskClasses = 4;

class Tracker {
 public:
  /// The process-wide tracker; first use reads MRMC_PROGRESS (any non-empty
  /// value enables it and turns on the stderr status line).
  static Tracker& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Stderr rendering on/off (snapshot() keeps working either way; tests
  /// disable rendering to keep their output clean).
  void set_render(bool render) noexcept {
    render_.store(render, std::memory_order_relaxed);
  }

  /// Start tracking a job: record its name and planned task counts, zero
  /// the done/retry/byte tallies.
  void begin_job(std::string name, std::size_t planned_maps,
                 std::size_t planned_fetches, std::size_t planned_reduces);
  /// One task of `cls` completed successfully.  Lock-free.
  void task_done(TaskClass cls) noexcept;
  /// One task attempt failed and was resubmitted (retry or lost-input
  /// rerun).  Lock-free.
  void retry() noexcept;
  /// Bytes moved by a shuffle fetch.  Lock-free.
  void add_bytes(double bytes) noexcept;
  /// Finish the job: render the final status line (with newline) and mark
  /// the tracker idle.
  void end_job();

  struct Snapshot {
    std::string job;
    bool active = false;
    std::size_t planned_maps = 0, done_maps = 0;
    std::size_t planned_fetches = 0, done_fetches = 0;
    std::size_t planned_reduces = 0, done_reduces = 0;
    std::size_t done_other = 0;
    std::size_t retries = 0;
    double bytes = 0.0;
    double fraction = 0.0;   ///< done / planned over all classes, in [0, 1]
    double elapsed_s = 0.0;  ///< wall seconds since begin_job
    double eta_s = -1.0;     ///< remaining-time estimate; -1 = unknown
    std::size_t jobs_completed = 0;  ///< end_job() calls so far
  };
  /// Coherent-enough view for dashboards/health endpoints: atomics are read
  /// individually (relaxed), the job name and clock under the mutex.
  [[nodiscard]] Snapshot snapshot() const;

  /// RAII job bracket: begin_job at construction, end_job at destruction —
  /// including when an exception unwinds mid-job.  No-op while disabled.
  class JobScope {
   public:
    JobScope(Tracker& tracker, std::string name, std::size_t planned_maps,
             std::size_t planned_fetches, std::size_t planned_reduces)
        : tracker_(&tracker), active_(tracker.enabled()) {
      if (active_) {
        tracker_->begin_job(std::move(name), planned_maps, planned_fetches,
                            planned_reduces);
      }
    }
    ~JobScope() {
      if (active_) tracker_->end_job();
    }
    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

   private:
    Tracker* tracker_;
    bool active_;
  };

 private:
  Tracker();

  void maybe_render(bool final_line);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> render_{true};
  std::atomic<long> planned_[kTaskClasses]{};
  std::atomic<long> done_[kTaskClasses]{};
  std::atomic<long> retries_{0};
  std::atomic<double> bytes_{0.0};

  mutable std::mutex mutex_;  // job name, clock, render throttle
  std::string job_;
  bool active_ = false;
  std::size_t jobs_completed_ = 0;
  static constexpr double kMinRenderIntervalMs = 100.0;
  std::chrono::steady_clock::time_point job_start_{};
  std::chrono::steady_clock::time_point last_render_{};
};

}  // namespace mrmc::obs::progress
