// mr::faults — deterministic node-failure injection for the simulated
// cluster, the Hadoop contract our engine was missing: nodes crash (and
// optionally recover) mid-job, running attempts die with them, *completed*
// map outputs on a dead node are invalidated and their maps re-executed,
// the DFS re-replicates lost blocks, and repeat offenders are blacklisted.
//
// A FaultPlan is a seeded schedule of {node, crash_s, recover_s} events on
// the simulated job clock (0 = job submission).  The same plan drives every
// layer:
//   * SimDfs        — apply_to_dfs() decommissions crashed nodes, which
//                     drop their replicas and re-replicate deterministically;
//   * SimScheduler  — simulate_job(..., plan) kills attempts, invalidates
//                     map outputs, and shrinks/grows slot capacity with
//                     crash/recovery (cluster.cpp);
//   * TaskGraph     — runtime::LostInputFailure re-executes completed maps
//                     for real, so job *output* stays byte-identical while
//                     the timeline re-pays the lost work;
//   * obs           — fault instants on the trace, mr.node_crashes /
//                     mr.lost_map_outputs / mr.blacklisted_nodes metrics,
//                     and the doctor's "Faults" section.
//
// The control plane is simulated Hadoop-style: a crash is only *detected*
// at the first heartbeat-check boundary at least heartbeat_timeout_s after
// it, so killed attempts occupy their slot until detection and re-queued
// work cannot restart earlier.  A node whose crash count exceeds
// max_node_failures is blacklisted: it never rejoins even if the plan says
// it recovers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mrmc::mr {
class SimDfs;
}  // namespace mrmc::mr

namespace mrmc::mr::faults {

/// Sentinel recovery time: the node stays down for the rest of the job.
inline constexpr double kNever = std::numeric_limits<double>::infinity();

struct FaultEvent {
  int node = 0;
  double crash_s = 0.0;       ///< job-clock instant the node dies
  double recover_s = kNever;  ///< job-clock instant it rejoins (empty)
};

struct FaultConfig {
  double heartbeat_interval_s = 3.0;  ///< control-plane check cadence
  double heartbeat_timeout_s = 30.0;  ///< silence before a node is declared dead
  /// A node crashing more than this many times is blacklisted for the job.
  std::size_t max_node_failures = 2;
};

/// An immutable, validated schedule of node failures for one job.
class FaultPlan {
 public:
  FaultPlan() = default;
  /// Events are sorted by (crash_s, node); overlapping down intervals on
  /// one node are rejected by validate().
  explicit FaultPlan(std::vector<FaultEvent> events, FaultConfig config = {});

  /// Seeded random plan: `crashes` crash events spread over
  /// (0.05, 0.95) x horizon_s, each recovering after a short outage with
  /// probability `recover_fraction`.  Node 0 is never crashed so every
  /// random plan trivially satisfies validate()'s liveness requirement.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed, std::size_t nodes,
                                        std::size_t crashes, double horizon_s,
                                        double recover_fraction = 0.5,
                                        FaultConfig config = {});

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }

  /// When the control plane notices a crash: the first heartbeat-check
  /// boundary at least heartbeat_timeout_s after the crash instant.
  [[nodiscard]] double detection_s(double crash_s) const noexcept;

  [[nodiscard]] std::size_t crash_count(int node) const noexcept;

  /// True when the node's crash count exceeds max_node_failures.
  [[nodiscard]] bool blacklists(int node) const noexcept;

  /// Throws common::InvalidArgument unless every event names a node in
  /// [0, nodes), recovers after it crashes, down intervals on one node do
  /// not overlap, and at least one node stays schedulable for the whole
  /// job (never crashes, or always recovers without being blacklisted) —
  /// the condition under which any job eventually completes.
  void validate(std::size_t nodes) const;

  /// validate()'s liveness condition alone, as a predicate: true when some
  /// node stays schedulable for the whole job.  The recovery stage driver
  /// uses this to *park* (checkpoint + resume later) instead of throwing
  /// when the cluster has degraded below one schedulable node.
  [[nodiscard]] bool leaves_schedulable(std::size_t nodes) const noexcept;

 private:
  std::vector<FaultEvent> events_;  ///< sorted by (crash_s, node)
  FaultConfig config_{};
};

/// One crash as the job experienced it.  recover_s is -1 when the node
/// never rejoined (permanent crash or blacklist) so every field serializes
/// as a finite %.17g double for the trace/report round trip.
struct NodeDownEvent {
  int node = 0;
  double crash_s = 0.0;
  double detect_s = 0.0;
  double recover_s = -1.0;
  bool blacklisted = false;
};

/// One task attempt the fault schedule destroyed: "killed" while running,
/// or a completed map whose output died with its node before every reducer
/// had fetched it ("lost-output").  Times are absolute job-clock seconds;
/// end_s is the detection instant at which the scheduler re-queued the work.
struct LostAttempt {
  std::string phase;  ///< "map" | "reduce"
  std::string kind;   ///< "killed" | "lost-output"
  std::size_t task = 0;
  int node = 0;
  int slot = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// What the fault schedule did to one simulated job (JobTimeline::faults).
struct FaultOutcome {
  std::vector<NodeDownEvent> events;       ///< plan order (by crash time)
  std::vector<LostAttempt> lost_attempts;  ///< discovery order
  std::size_t killed_attempts = 0;
  std::size_t lost_map_outputs = 0;
  std::size_t blacklisted_nodes = 0;

  [[nodiscard]] bool empty() const noexcept {
    return events.empty() && lost_attempts.empty();
  }
};

/// The scheduler's view of a plan: per-node availability windows with
/// heartbeat-delayed detection and blacklisting folded in.
class NodeTracker {
 public:
  NodeTracker(const FaultPlan& plan, std::size_t nodes);

  /// An up-interval [start, crash): the node may run work from `start`
  /// until `crash` (kNever when it stays up for good).
  struct Window {
    double start = kNever;
    double crash = kNever;
  };

  /// Earliest window in which `node` can start work at or after `t`;
  /// {kNever, kNever} when the node is down for the rest of the job.
  [[nodiscard]] Window next_window(int node, double t) const noexcept;

  /// First crash instant on `node` in [from_s, to_s); kNever if none.
  [[nodiscard]] double crash_in(int node, double from_s,
                                double to_s) const noexcept;

  [[nodiscard]] double detection_s(double crash_s) const noexcept {
    return plan_->detection_s(crash_s);
  }

  /// Every crash, in plan order, annotated with detection/blacklist.
  [[nodiscard]] const std::vector<NodeDownEvent>& down_events() const noexcept {
    return down_events_;
  }
  [[nodiscard]] std::size_t blacklisted_nodes() const noexcept {
    return blacklisted_;
  }

 private:
  const FaultPlan* plan_;
  std::vector<std::vector<Window>> windows_;   ///< per node, time-ascending
  std::vector<std::vector<double>> crashes_;   ///< per node, sorted
  std::vector<NodeDownEvent> down_events_;
  std::size_t blacklisted_ = 0;
};

/// Replay the plan onto a SimDfs up to `now_s`: crashes decommission the
/// node (dropping its replicas and re-replicating deterministically onto
/// survivors), recoveries rejoin it empty.  Events are applied in time
/// order; blacklisting is a scheduler concept and does not keep a
/// recovered node's (empty) disk out of the DFS.
void apply_to_dfs(const FaultPlan& plan, SimDfs& dfs, double now_s);

}  // namespace mrmc::mr::faults
