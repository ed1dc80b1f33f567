#include "obs/progress.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mrmc::obs::progress {

namespace {

// Over-completion is possible (lost-input reruns re-complete a task), so
// display/fraction math clamps done at planned.
long clamped(long done, long planned) noexcept {
  return planned > 0 ? std::min(done, planned) : done;
}

}  // namespace

Tracker::Tracker() {
  if (const char* env = std::getenv("MRMC_PROGRESS");
      env != nullptr && *env != '\0') {
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Tracker& Tracker::global() {
  static Tracker instance;
  return instance;
}

void Tracker::set_min_render_interval_ms(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  min_render_interval_ms_ = ms;
}

void Tracker::begin_job(std::string name, std::size_t planned_maps,
                        std::size_t planned_fetches,
                        std::size_t planned_reduces) {
  for (std::atomic<long>& done : done_) {
    done.store(0, std::memory_order_relaxed);
  }
  planned_[static_cast<std::size_t>(TaskClass::kOther)].store(
      0, std::memory_order_relaxed);
  planned_[static_cast<std::size_t>(TaskClass::kMap)].store(
      static_cast<long>(planned_maps), std::memory_order_relaxed);
  planned_[static_cast<std::size_t>(TaskClass::kFetch)].store(
      static_cast<long>(planned_fetches), std::memory_order_relaxed);
  planned_[static_cast<std::size_t>(TaskClass::kReduce)].store(
      static_cast<long>(planned_reduces), std::memory_order_relaxed);
  retries_.store(0, std::memory_order_relaxed);
  bytes_.store(0.0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  job_ = std::move(name);
  active_ = true;
  job_start_ = std::chrono::steady_clock::now();
  // Backdate the throttle so the first completion renders immediately.
  last_render_ = job_start_ - std::chrono::hours(1);
}

void Tracker::task_done(TaskClass cls) noexcept {
  if (!enabled()) return;
  done_[static_cast<std::size_t>(cls)].fetch_add(1, std::memory_order_relaxed);
  maybe_render(false);
}

void Tracker::retry() noexcept {
  if (!enabled()) return;
  retries_.fetch_add(1, std::memory_order_relaxed);
}

void Tracker::add_bytes(double bytes) noexcept {
  if (!enabled()) return;
  double current = bytes_.load(std::memory_order_relaxed);
  while (!bytes_.compare_exchange_weak(current, current + bytes,
                                       std::memory_order_relaxed)) {
  }
}

void Tracker::end_job() {
  maybe_render(true);
  std::lock_guard<std::mutex> lock(mutex_);
  active_ = false;
  ++jobs_completed_;
}

Tracker::Snapshot Tracker::snapshot() const {
  Snapshot snap;
  const auto load = [](const std::atomic<long>& value) {
    return static_cast<std::size_t>(
        std::max(0L, value.load(std::memory_order_relaxed)));
  };
  snap.planned_maps = load(planned_[static_cast<std::size_t>(TaskClass::kMap)]);
  snap.planned_fetches =
      load(planned_[static_cast<std::size_t>(TaskClass::kFetch)]);
  snap.planned_reduces =
      load(planned_[static_cast<std::size_t>(TaskClass::kReduce)]);
  snap.done_maps = load(done_[static_cast<std::size_t>(TaskClass::kMap)]);
  snap.done_fetches = load(done_[static_cast<std::size_t>(TaskClass::kFetch)]);
  snap.done_reduces =
      load(done_[static_cast<std::size_t>(TaskClass::kReduce)]);
  snap.done_other = load(done_[static_cast<std::size_t>(TaskClass::kOther)]);
  snap.retries = static_cast<std::size_t>(
      std::max(0L, retries_.load(std::memory_order_relaxed)));
  snap.bytes = bytes_.load(std::memory_order_relaxed);
  const std::size_t planned =
      snap.planned_maps + snap.planned_fetches + snap.planned_reduces;
  const std::size_t done =
      std::min(snap.done_maps, snap.planned_maps) +
      std::min(snap.done_fetches, snap.planned_fetches) +
      std::min(snap.done_reduces, snap.planned_reduces);
  snap.fraction =
      planned > 0 ? static_cast<double>(done) / static_cast<double>(planned)
                  : 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.job = job_;
  snap.active = active_;
  snap.jobs_completed = jobs_completed_;
  if (active_) {
    snap.elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - job_start_)
                         .count();
    if (snap.fraction > 0.0) {
      snap.eta_s = snap.elapsed_s * (1.0 - snap.fraction) / snap.fraction;
    }
  }
  return snap;
}

void Tracker::maybe_render(bool final_line) {
  if (!render_.load(std::memory_order_relaxed)) return;
  // A worker that loses the race simply skips this refresh; the next
  // completion will catch the display up.
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (!final_line) return;
    lock.lock();
  }
  if (!active_) return;
  const auto now = std::chrono::steady_clock::now();
  if (!final_line &&
      std::chrono::duration<double, std::milli>(now - last_render_).count() <
          min_render_interval_ms_) {
    return;
  }
  last_render_ = now;

  const auto loadc = [this](TaskClass cls) {
    const auto i = static_cast<std::size_t>(cls);
    return clamped(done_[i].load(std::memory_order_relaxed),
                   planned_[i].load(std::memory_order_relaxed));
  };
  const long done_maps = loadc(TaskClass::kMap);
  const long done_fetches = loadc(TaskClass::kFetch);
  const long done_reduces = loadc(TaskClass::kReduce);
  const long planned_total =
      planned_[static_cast<std::size_t>(TaskClass::kMap)].load(
          std::memory_order_relaxed) +
      planned_[static_cast<std::size_t>(TaskClass::kFetch)].load(
          std::memory_order_relaxed) +
      planned_[static_cast<std::size_t>(TaskClass::kReduce)].load(
          std::memory_order_relaxed);
  const long done_total = done_maps + done_fetches + done_reduces;
  const double fraction =
      planned_total > 0
          ? static_cast<double>(done_total) / static_cast<double>(planned_total)
          : 0.0;
  const double elapsed_s =
      std::chrono::duration<double>(now - job_start_).count();
  const double mb = bytes_.load(std::memory_order_relaxed) / 1e6;
  const long retries = retries_.load(std::memory_order_relaxed);

  char eta[32] = "--";
  if (!final_line && fraction > 0.0 && fraction < 1.0) {
    std::snprintf(eta, sizeof eta, "%.1fs",
                  elapsed_s * (1.0 - fraction) / fraction);
  }
  std::fprintf(
      stderr,
      "\r[mrmc] %s %3.0f%% | map %ld/%ld fetch %ld/%ld reduce %ld/%ld | "
      "%.1f MB | retries %ld | %.1fs elapsed, eta %s\x1b[K%s",
      job_.c_str(), fraction * 100.0, done_maps,
      planned_[static_cast<std::size_t>(TaskClass::kMap)].load(
          std::memory_order_relaxed),
      done_fetches,
      planned_[static_cast<std::size_t>(TaskClass::kFetch)].load(
          std::memory_order_relaxed),
      done_reduces,
      planned_[static_cast<std::size_t>(TaskClass::kReduce)].load(
          std::memory_order_relaxed),
      mb, retries, elapsed_s, eta, final_line ? "\n" : "");
  std::fflush(stderr);
}

}  // namespace mrmc::obs::progress
