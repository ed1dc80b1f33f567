// Cluster model and deterministic task scheduler.
//
// The paper benchmarks on Amazon Elastic MapReduce (M1 Large: 4 EC2 compute
// units, 7.5 GiB, 850 GB disk) with 2..12 nodes.  We do not have a cluster;
// instead every MapReduce job in this library runs its tasks for real (on a
// thread pool) while *placement and time* are simulated: each task's
// measured work is scheduled onto a configurable set of homogeneous nodes
// with per-node map/reduce slots, startup overheads, disk and network
// bandwidth.  The resulting makespan reproduces the strong-scaling behaviour
// of Figure 2 (see DESIGN.md §2).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "mr/faults.hpp"
#include "obs/report.hpp"

namespace mrmc::mr {

/// Homogeneous node description, calibrated loosely to an EMR M1 Large.
struct NodeSpec {
  double cpu_rate = 1.0;      ///< work units per simulated second
  double disk_bw = 80e6;      ///< bytes / simulated second, local disk
  double net_bw = 40e6;       ///< bytes / simulated second, NIC
};

struct ClusterConfig {
  std::size_t nodes = 4;
  NodeSpec node{};
  std::size_t map_slots_per_node = 2;
  std::size_t reduce_slots_per_node = 2;
  double task_startup_s = 1.5;  ///< per-task JVM-style launch overhead
  double job_startup_s = 8.0;   ///< job submission + scheduling overhead
  /// Hadoop-style speculative execution: a task whose duration exceeds
  /// `speculation_factor` x the phase median is assumed to get a backup
  /// copy once detected; its effective completion becomes
  /// min(own end, start + (speculation_factor + 1) x median).  Slot
  /// occupancy of backups is not modeled (documented approximation).
  bool speculative_execution = false;
  double speculation_factor = 1.5;

  [[nodiscard]] std::size_t map_slots() const noexcept {
    return nodes * map_slots_per_node;
  }
  [[nodiscard]] std::size_t reduce_slots() const noexcept {
    return nodes * reduce_slots_per_node;
  }
};

/// Throws common::InvalidArgument unless the cluster has at least one
/// node, one map slot and one reduce slot per node, positive CPU rate and
/// bandwidths, and non-negative startup overheads.  Job's constructor and
/// SimScheduler's both call it, so no task is placed on such a cluster.
void validate(const ClusterConfig& config);

/// One task's resource demand, in machine-independent units.
struct TaskSpec {
  double work = 0.0;          ///< CPU work units
  double input_bytes = 0.0;   ///< bytes read (disk if local, network if not)
  double output_bytes = 0.0;  ///< bytes written to local disk
  int preferred_node = -1;    ///< replica holder; -1 = no locality preference
};

/// Scheduling outcome of one task.
struct TaskPlacement {
  int node = 0;
  int slot = 0;  ///< slot index on the node (its trace track)
  double start_s = 0.0;
  double end_s = 0.0;
  bool data_local = true;
};

struct PhaseTimeline {
  std::vector<TaskPlacement> tasks;
  double makespan_s = 0.0;
  std::size_t data_local_tasks = 0;
  std::size_t speculated_tasks = 0;  ///< tasks rescued by a backup copy
};

/// Deterministic list scheduler: tasks are placed longest-first onto the
/// earliest-available slot, honoring locality when the preferred node's
/// slot is not more than one task-startup behind the globally earliest one.
/// simulate_job runs the same scheduler against its fault plan.
class SimScheduler {
 public:
  explicit SimScheduler(ClusterConfig config);

  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }

  /// Schedule one phase (map or reduce) over `slots_per_node` slots/node on
  /// a cluster that never fails, speculation included.
  [[nodiscard]] PhaseTimeline schedule_phase(std::span<const TaskSpec> tasks,
                                             std::size_t slots_per_node) const;

  /// Duration of one task on one node, given locality.
  [[nodiscard]] double task_duration(const TaskSpec& task, bool data_local) const;

  /// All-to-all shuffle of `total_bytes`: every byte crosses the network
  /// except the 1/nodes fraction that stays local; bandwidth is aggregate.
  [[nodiscard]] double shuffle_time(double total_bytes) const;

  /// Time for one reducer to pull one map run: a 1/nodes fraction of the
  /// bytes is on the reducer's own node (disk bandwidth), the rest crosses
  /// one NIC.  The per-fetch twin of the aggregate shuffle_time() model.
  [[nodiscard]] double fetch_time(double bytes) const;

 private:
  ClusterConfig config_;
};

/// One map-output run a reducer must pull (map task -> reducer, in bytes).
struct FetchSpec {
  std::size_t map_task = 0;
  std::size_t reducer = 0;
  double bytes = 0.0;
};

/// A simulated fetch: starts when the producing map task finishes (or when
/// the reducer's previous fetch drains — fetches into one reducer are
/// serialized on its NIC), so the shuffle overlaps the map phase exactly the
/// way the task-graph runtime overlaps the real one.  Times are relative to
/// the map phase start, like TaskPlacement times.
struct FetchPlacement {
  std::size_t map_task = 0;
  std::size_t reducer = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double bytes = 0.0;
};

/// End-to-end simulated time of a two-phase (map, shuffle, reduce) job.
struct JobTimeline {
  PhaseTimeline map_phase;
  double shuffle_s = 0.0;
  PhaseTimeline reduce_phase;
  double total_s = 0.0;
  /// Per-fetch shuffle events (empty when the aggregate model was used).
  std::vector<FetchPlacement> fetches;
  /// Serialized-byte totals summed from the task/fetch specs in index order
  /// (the doctor's "bytes" section; empty() when the specs carried none).
  obs::report::ByteSummary bytes;
  /// Node crashes and the attempts they cost (empty for fault-free runs).
  faults::FaultOutcome faults;

  [[nodiscard]] std::string summary() const;
};

/// `job_name` labels the job's simulated-clock trace tracks and log lines.
/// When the global obs::Tracer is enabled, every TaskPlacement is exported
/// as a duration event on its node/slot track (plus a shuffle track), and
/// the phase/task durations feed the global obs metrics registry.
/// With a non-empty `fetches` stream, the shuffle is modeled per fetch
/// (overlapped with the map phase; `shuffle_s` becomes only the tail that
/// outlives the last map task) instead of as one aggregate transfer.
///
/// A non-empty `plan` schedules the job under its node crashes.  Attempts
/// running on a node when it dies are killed and re-queued once the
/// heartbeat timeout detects the crash; *completed* map attempts whose node
/// dies before every reducer has fetched their output are invalidated and
/// the map re-executes (Hadoop's fetch-failure path); a node crashing more
/// than `plan.config().max_node_failures` times is blacklisted and never
/// scheduled again.  Both cases run one list scheduler; the empty plan is a
/// plan with no crashes.  Speculative execution is applied only under the
/// empty plan (a backup copy's slot occupancy would interact with kills;
/// documented in DESIGN.md).
JobTimeline simulate_job(const SimScheduler& scheduler,
                         std::span<const TaskSpec> map_tasks,
                         double shuffle_bytes,
                         std::span<const FetchSpec> fetches,
                         std::span<const TaskSpec> reduce_tasks,
                         const std::string& job_name,
                         const faults::FaultPlan& plan = {});

}  // namespace mrmc::mr
