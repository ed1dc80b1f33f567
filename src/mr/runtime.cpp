#include "mr/runtime.hpp"

#include <memory>
#include <optional>
#include <utility>

#include <array>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mrmc::mr::runtime {

namespace {

/// Live-task counters per TaskKind, process-wide (the sampler's probes read
/// them from its own thread while many graphs run).
std::array<std::atomic<long>, 4>& active_task_counts() noexcept {
  static std::array<std::atomic<long>, 4> counts{};
  return counts;
}

/// RAII bump of the live-task counter for one attempt's execution.
class ActiveTaskScope {
 public:
  explicit ActiveTaskScope(TaskKind kind) noexcept
      : counter_(&active_task_counts()[static_cast<std::size_t>(kind)]) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~ActiveTaskScope() { counter_->fetch_sub(1, std::memory_order_relaxed); }
  ActiveTaskScope(const ActiveTaskScope&) = delete;
  ActiveTaskScope& operator=(const ActiveTaskScope&) = delete;

 private:
  std::atomic<long>* counter_;
};

/// obs cannot see mr, so the executor translates its TaskKind into the
/// progress tracker's TaskClass at the callback boundary.
obs::progress::TaskClass progress_class(TaskKind kind) noexcept {
  switch (kind) {
    case TaskKind::kMap:
      return obs::progress::TaskClass::kMap;
    case TaskKind::kFetch:
      return obs::progress::TaskClass::kFetch;
    case TaskKind::kReduce:
      return obs::progress::TaskClass::kReduce;
    case TaskKind::kOther:
      break;
  }
  return obs::progress::TaskClass::kOther;
}

}  // namespace

long active_tasks(TaskKind kind) noexcept {
  return active_task_counts()[static_cast<std::size_t>(kind)].load(
      std::memory_order_relaxed);
}

void register_sampler_probes() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& sampler = obs::ResourceSampler::global();
    sampler.register_probe("runtime.active_map_tasks", [] {
      return static_cast<double>(active_tasks(TaskKind::kMap));
    });
    sampler.register_probe("runtime.active_fetch_tasks", [] {
      return static_cast<double>(active_tasks(TaskKind::kFetch));
    });
    sampler.register_probe("runtime.active_reduce_tasks", [] {
      return static_cast<double>(active_tasks(TaskKind::kReduce));
    });
    sampler.register_probe("runtime.pool_queue_depth", [] {
      return static_cast<double>(shared_pool().queue_depth());
    });
  });
}

common::ThreadPool& shared_pool() {
  static common::ThreadPool pool(0);
  return pool;
}

PoolLease::PoolLease(std::size_t threads, bool isolated) {
  if (isolated || threads != 0) {
    owned_ = std::make_unique<common::ThreadPool>(threads);
    pool_ = owned_.get();
  } else {
    pool_ = &shared_pool();
  }
}

TaskGraph::TaskGraph()
    : queue_depth_(&obs::Registry::global().gauge("runtime.task_queue_depth")) {
  register_sampler_probes();
}

std::size_t TaskGraph::add_task(TaskFn fn, std::vector<std::size_t> deps,
                                TaskOptions options) {
  MRMC_REQUIRE(!started_, "TaskGraph is one-shot; cannot add tasks after run()");
  MRMC_REQUIRE(fn != nullptr, "task body must be callable");
  MRMC_REQUIRE(options.max_attempts >= 1, "max_attempts must be >= 1");
  const std::size_t id = nodes_.size();
  Node node;
  node.fn = std::move(fn);
  node.options = std::move(options);
  node.remaining_deps = deps.size();
  nodes_.push_back(std::move(node));
  for (const std::size_t dep : deps) {
    MRMC_REQUIRE(dep < id, "dependencies must be added before their dependents");
    nodes_[dep].dependents.push_back(id);
  }
  return id;
}

void TaskGraph::run(common::ThreadPool& pool) {
  std::vector<std::size_t> ready;
  {
    std::lock_guard lock(mutex_);
    MRMC_REQUIRE(!started_, "TaskGraph is one-shot; run() already called");
    started_ = true;
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].remaining_deps == 0) ready.push_back(id);
    }
  }
  for (const std::size_t id : ready) submit(pool, id);

  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return completed_ == nodes_.size(); });
  if (error_) std::rethrow_exception(error_);
}

std::size_t TaskGraph::attempts(std::size_t id) const {
  std::lock_guard lock(mutex_);
  MRMC_REQUIRE(id < nodes_.size(), "task id out of range");
  return nodes_[id].attempts;
}

std::size_t TaskGraph::lost_input_reruns(std::size_t id) const {
  std::lock_guard lock(mutex_);
  MRMC_REQUIRE(id < nodes_.size(), "task id out of range");
  return nodes_[id].lost_input_reruns;
}

std::size_t TaskGraph::total_retries() const {
  std::lock_guard lock(mutex_);
  return retries_;
}

void TaskGraph::submit(common::ThreadPool& pool, std::size_t id) {
  {
    std::lock_guard lock(mutex_);
    ++inflight_;
    queue_depth_->set(static_cast<double>(inflight_));
  }
  pool.post([this, &pool, id] { execute(pool, id); });
}

void TaskGraph::execute(common::ThreadPool& pool, std::size_t id) {
  Node& node = nodes_[id];
  bool skip = false;
  std::size_t attempt = 0;
  {
    std::lock_guard lock(mutex_);
    // After a permanent failure, queued nodes drain without running: finish()
    // still releases their dependents so the completion count reaches the
    // total and run() can wake up and rethrow.
    skip = abort_;
    if (!skip) attempt = node.attempts++;
  }
  if (!skip) {
    const ActiveTaskScope active(node.options.kind);
    try {
      std::optional<obs::Tracer::Span> span;
      if (!node.options.label.empty() && obs::Tracer::global().enabled()) {
        span.emplace(obs::Tracer::global(), node.options.label,
                     std::initializer_list<obs::TraceArg>{
                         {"attempt", std::to_string(attempt)}});
      }
      node.fn(attempt);
      auto& progress = obs::progress::Tracker::global();
      if (progress.enabled()) {
        progress.task_done(progress_class(node.options.kind));
      }
    } catch (const LostInputFailure& failure) {
      const std::size_t input = failure.input();
      bool park = false;
      bool resubmit_input = false;
      {
        std::lock_guard lock(mutex_);
        if (input >= id) {
          // Only an upstream node can be a lost input; anything else is a
          // programming error (and would deadlock the dependency counters).
          if (!error_) {
            error_ = std::current_exception();
            abort_ = true;
          }
        } else if (!abort_) {
          // Park this attempt: it neither failed nor completed.  The input
          // re-runs as a fresh attempt; its finish() re-submits us.
          Node& source = nodes_[input];
          source.waiters.push_back(id);
          ++source.lost_input_reruns;
          if (source.done) {
            source.done = false;
            --completed_;
            resubmit_input = true;
          }
          // else: the input is already re-running for another waiter and
          // will drain the waiter list when it completes again.
          park = true;
          --inflight_;
          queue_depth_->set(static_cast<double>(inflight_));
        }
        // On abort just drain: fall through to finish() like a skip.
      }
      if (park) {
        obs::Registry::global().counter("runtime.lost_input_reruns").add(1);
        auto& progress = obs::progress::Tracker::global();
        if (progress.enabled()) progress.retry();
        if (resubmit_input) submit(pool, input);
        return;
      }
    } catch (const TaskFailure&) {
      bool retry = false;
      {
        std::lock_guard lock(mutex_);
        ++retries_;
        retry = node.attempts < node.options.max_attempts && !abort_;
        if (!retry && !error_) {
          error_ = std::current_exception();
          abort_ = true;
        }
      }
      obs::Registry::global().counter("runtime.task_retries").add(1);
      auto& progress = obs::progress::Tracker::global();
      if (progress.enabled()) progress.retry();
      if (retry) {
        // The node stays in flight; re-run it as a fresh pool task so other
        // ready work interleaves with the retry.
        pool.post([this, &pool, id] { execute(pool, id); });
        return;
      }
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) {
        error_ = std::current_exception();
        abort_ = true;
      }
    }
  }
  finish(pool, id);
}

void TaskGraph::finish(common::ThreadPool& pool, std::size_t id) {
  std::vector<std::size_t> ready;
  {
    std::lock_guard lock(mutex_);
    Node& node = nodes_[id];
    node.done = true;
    ++completed_;
    --inflight_;
    queue_depth_->set(static_cast<double>(inflight_));
    // Dependency counters are released exactly once; a lost-input re-run
    // finishing again must not decrement them a second time.
    if (!node.deps_notified) {
      node.deps_notified = true;
      for (const std::size_t dependent : node.dependents) {
        if (--nodes_[dependent].remaining_deps == 0) ready.push_back(dependent);
      }
    }
    // Parked lost-input throwers resume now that the input exists again.
    for (const std::size_t waiter : node.waiters) ready.push_back(waiter);
    node.waiters.clear();
    if (completed_ == nodes_.size()) done_cv_.notify_all();
  }
  for (const std::size_t dependent : ready) submit(pool, dependent);
}

}  // namespace mrmc::mr::runtime
