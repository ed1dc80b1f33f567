// mr::runtime — the engine's task-graph executor.
//
// A MapReduce job is not three barriers; it is a dependency graph: every
// (map m → reducer r) shuffle fetch depends only on map task m, and reduce
// task r depends only on its M fetches.  TaskGraph schedules that graph on a
// common::ThreadPool with per-node dependency counters: a node is submitted
// the moment its last dependency completes, so a reducer starts pulling runs
// while other map tasks are still running — the overlapped shuffle Hadoop
// performs, instead of the map barrier the old Job::run_splits imposed.
//
// Failure model: a task body may throw runtime::TaskFailure to fail the
// current attempt; the executor re-submits the node until it succeeds or
// `max_attempts` is exhausted (then the whole graph aborts and run()
// rethrows).  Any other exception is treated as a programming error and
// aborts immediately.  Attempt counts are queryable per node, which is how
// Job surfaces retry statistics.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace mrmc::obs {
class Gauge;
}  // namespace mrmc::obs

namespace mrmc::mr::runtime {

/// Thrown by a task body to fail the current attempt; the executor retries
/// the node (up to TaskOptions::max_attempts) instead of aborting the graph.
/// The engine's fault injection throws this to force real re-execution.
class TaskFailure : public common::Error {
 public:
  using common::Error::Error;
};

/// Thrown by a task body to demand re-execution of an already-*completed*
/// upstream dependency — Hadoop's fetch-failure path: a reducer that cannot
/// pull a map's output reports it, and the map re-runs as a new attempt even
/// though it had succeeded (semantics plain task-level retry cannot
/// express).  The thrower is parked (its attempt neither fails nor
/// completes) and re-submitted once the input finishes again.  Lost-input
/// re-runs do not count against either node's max_attempts.
class LostInputFailure : public common::Error {
 public:
  LostInputFailure(const std::string& message, std::size_t input)
      : common::Error(message), input_(input) {}

  /// Graph id of the dependency whose output was lost.
  [[nodiscard]] std::size_t input() const noexcept { return input_; }

 private:
  std::size_t input_;
};

/// The process-wide pool lives in common, so that bio can parse on it
/// without linking mr.
using common::shared_pool;

/// Resolves which pool a run uses: the shared process-wide pool by default,
/// or a private pool when the caller asked for `threads > 0` or an isolated
/// pool explicitly.  Owns the private pool, if any.
class PoolLease {
 public:
  PoolLease(std::size_t threads, bool isolated);

  [[nodiscard]] common::ThreadPool& pool() noexcept { return *pool_; }
  [[nodiscard]] bool owns_pool() const noexcept { return owned_ != nullptr; }

 private:
  std::unique_ptr<common::ThreadPool> owned_;
  common::ThreadPool* pool_;
};

/// What a graph node does, for the live-task telemetry probes.  The
/// executor keeps a process-wide count of running tasks per kind, which
/// the obs resource sampler reads (see register_sampler_probes()).
enum class TaskKind { kOther = 0, kMap, kFetch, kReduce };

/// Running tasks of `kind` across every TaskGraph in the process.
[[nodiscard]] long active_tasks(TaskKind kind) noexcept;

/// Register the runtime's probes with obs::ResourceSampler::global():
/// live map/fetch/reduce task counts and the shared pool's queue depth.
/// Idempotent; called from the TaskGraph constructor.
void register_sampler_probes();

struct TaskOptions {
  /// Trace-span label; empty disables the per-task wall span (cheaper).
  std::string label;
  /// Attempt budget, >= 1.  TaskFailure on the final attempt aborts the run.
  std::size_t max_attempts = 1;
  /// Kind bucket for the live-task telemetry counters.
  TaskKind kind = TaskKind::kOther;
};

/// A one-shot dependency-driven executor.  Build the graph with add_task
/// (dependencies must already have been added), then run() blocks until
/// every node completed or one failed permanently.
class TaskGraph {
 public:
  /// Task body; receives the 0-based attempt number.
  using TaskFn = std::function<void(std::size_t attempt)>;

  TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node and returns its id.  Every dependency id must be smaller
  /// than the new node's id (i.e. already added).
  std::size_t add_task(TaskFn fn, std::vector<std::size_t> deps,
                       TaskOptions options = {});

  /// Executes the graph on `pool`.  Rethrows the first permanent failure
  /// after in-flight tasks have drained; nodes downstream of a failed node
  /// are skipped.  One-shot: a TaskGraph cannot be run twice.
  void run(common::ThreadPool& pool);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Attempts node `id` made (1 for a clean first-try success); 0 if the
  /// node never ran because the graph aborted first.  Includes lost-input
  /// re-runs.
  [[nodiscard]] std::size_t attempts(std::size_t id) const;

  /// Times node `id` was re-executed after completing because a dependent
  /// threw LostInputFailure naming it.
  [[nodiscard]] std::size_t lost_input_reruns(std::size_t id) const;

  /// Total failed attempts across all nodes.
  [[nodiscard]] std::size_t total_retries() const;

 private:
  struct Node {
    TaskFn fn;
    TaskOptions options;
    std::vector<std::size_t> dependents;
    std::vector<std::size_t> waiters;  ///< parked throwers to resume on finish
    std::size_t remaining_deps = 0;
    std::size_t attempts = 0;
    std::size_t lost_input_reruns = 0;
    bool done = false;
    bool deps_notified = false;  ///< dependents released (first finish only)
  };

  void submit(common::ThreadPool& pool, std::size_t id);
  void execute(common::ThreadPool& pool, std::size_t id);
  // Marks `id` complete and submits any dependents that became ready.
  // Caller must NOT hold mutex_.
  void finish(common::ThreadPool& pool, std::size_t id);

  std::vector<Node> nodes_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::size_t completed_ = 0;
  std::size_t inflight_ = 0;
  std::size_t retries_ = 0;
  bool started_ = false;
  bool abort_ = false;
  std::exception_ptr error_;
  obs::Gauge* queue_depth_;  // runtime.task_queue_depth
};

}  // namespace mrmc::mr::runtime
