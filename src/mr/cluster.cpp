#include "mr/cluster.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <queue>
#include <tuple>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace mrmc::mr {

void validate(const ClusterConfig& config) {
  MRMC_REQUIRE(config.nodes >= 1, "cluster needs at least one node");
  MRMC_REQUIRE(config.map_slots_per_node >= 1, "need at least one map slot");
  MRMC_REQUIRE(config.reduce_slots_per_node >= 1, "need at least one reduce slot");
  MRMC_REQUIRE(config.node.cpu_rate > 0, "cpu_rate must be positive");
  MRMC_REQUIRE(config.node.disk_bw > 0 && config.node.net_bw > 0,
               "bandwidths must be positive");
  MRMC_REQUIRE(config.task_startup_s >= 0 && config.job_startup_s >= 0,
               "startup overheads must be non-negative");
}

SimScheduler::SimScheduler(ClusterConfig config) : config_(config) {
  validate(config_);
}

double SimScheduler::task_duration(const TaskSpec& task, bool data_local) const {
  const NodeSpec& node = config_.node;
  const double input_bw = data_local ? node.disk_bw : node.net_bw;
  return config_.task_startup_s + task.work / node.cpu_rate +
         task.input_bytes / input_bw + task.output_bytes / node.disk_bw;
}

double SimScheduler::shuffle_time(double total_bytes) const {
  if (total_bytes <= 0) return 0.0;
  const double remote_fraction =
      config_.nodes <= 1
          ? 0.0
          : 1.0 - 1.0 / static_cast<double>(config_.nodes);
  const double aggregate_bw =
      static_cast<double>(config_.nodes) * config_.node.net_bw;
  const double local_part = total_bytes * (1.0 - remote_fraction) /
                            (static_cast<double>(config_.nodes) * config_.node.disk_bw);
  return total_bytes * remote_fraction / aggregate_bw + local_part;
}

double SimScheduler::fetch_time(double bytes) const {
  if (bytes <= 0) return 0.0;
  const double remote_fraction =
      config_.nodes <= 1
          ? 0.0
          : 1.0 - 1.0 / static_cast<double>(config_.nodes);
  return bytes * remote_fraction / config_.node.net_bw +
         bytes * (1.0 - remote_fraction) / config_.node.disk_bw;
}

namespace {

/// A phase under list scheduling.  `slot_free[node][slot]` is when the slot
/// next frees up and `ready[task]` the earliest instant the task may start,
/// both phase-relative.  They persist across place_tasks calls so map-output
/// invalidation can re-run a subset with history intact.
struct PhaseState {
  PhaseState(std::size_t tasks, std::size_t nodes, std::size_t slots_per_node)
      : slot_free(nodes, std::vector<double>(slots_per_node, 0.0)),
        ready(tasks, 0.0) {
    timeline.tasks.resize(tasks);
  }

  std::vector<std::vector<double>> slot_free;
  std::vector<double> ready;
  PhaseTimeline timeline;
};

/// `indices` in longest-processing-time-first order (ties keep their given
/// order), for a tighter makespan.
std::deque<std::size_t> lpt_order(const SimScheduler& scheduler,
                                  std::span<const TaskSpec> tasks,
                                  std::vector<std::size_t> indices) {
  std::stable_sort(indices.begin(), indices.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scheduler.task_duration(tasks[a], true) >
                            scheduler.task_duration(tasks[b], true);
                   });
  return {indices.begin(), indices.end()};
}

/// The list scheduler: pending task indices are placed in turn onto the
/// earliest slot whose node is up (first minimal node, then slot, wins a
/// tie).  The replica holder is preferred when its slot is at most one task
/// startup behind (delay scheduling).  Times are phase-relative; `offset`
/// maps them onto the absolute job clock of the tracker's fault plan (its
/// queries and the LostAttempt records).  An attempt that would outlive its
/// node's up-window is killed at the crash instant and re-queued at the
/// heartbeat detection time.  Under a tracker with no crashes no attempt is
/// killed and every start is the earliest slot's free time.
void place_tasks(const SimScheduler& scheduler, std::span<const TaskSpec> tasks,
                 const faults::NodeTracker& tracker, const char* phase_name,
                 double offset, std::deque<std::size_t> pending,
                 PhaseState& state, faults::FaultOutcome& outcome) {
  const ClusterConfig& config = scheduler.config();
  // Earliest (slot, start) on `node` for work ready at `task_ready`, plus
  // the crash instant bounding the chosen up-window (both phase-relative).
  const auto candidate = [&](int node, double task_ready) {
    std::size_t best_slot = 0;
    const auto& slots = state.slot_free[static_cast<std::size_t>(node)];
    for (std::size_t s = 1; s < slots.size(); ++s) {
      if (slots[s] < slots[best_slot]) best_slot = s;
    }
    const double raw = std::max(slots[best_slot], task_ready);
    const double raw_abs = raw + offset;
    const faults::NodeTracker::Window window =
        tracker.next_window(node, raw_abs);
    if (window.start == faults::kNever) {
      return std::tuple<std::size_t, double, double>(best_slot, faults::kNever,
                                                     faults::kNever);
    }
    // next_window clamps the window start up to the query time; a window
    // already open at raw_abs must keep `raw` bit-for-bit (subtracting the
    // offset back would round), so a crash that never touches the phase
    // leaves its schedule exactly as on a cluster that never fails.
    const double start =
        window.start <= raw_abs ? raw : window.start - offset;
    const double crash = window.crash == faults::kNever
                             ? faults::kNever
                             : window.crash - offset;
    return std::tuple<std::size_t, double, double>(best_slot, start, crash);
  };
  while (!pending.empty()) {
    const std::size_t idx = pending.front();
    pending.pop_front();
    const TaskSpec& task = tasks[idx];
    int best_node = -1;
    std::size_t best_slot = 0;
    double best_start = faults::kNever;
    double best_crash = faults::kNever;
    for (int n = 0; n < static_cast<int>(config.nodes); ++n) {
      const auto [slot, start, crash] = candidate(n, state.ready[idx]);
      if (start < best_start) {
        best_node = n;
        best_slot = slot;
        best_start = start;
        best_crash = crash;
      }
    }
    MRMC_CHECK(best_node >= 0, "fault plan left no schedulable node");
    if (task.preferred_node >= 0 &&
        task.preferred_node < static_cast<int>(config.nodes) &&
        task.preferred_node != best_node) {
      const auto [slot, start, crash] =
          candidate(task.preferred_node, state.ready[idx]);
      if (start <= best_start + config.task_startup_s) {
        best_node = task.preferred_node;
        best_slot = slot;
        best_start = start;
        best_crash = crash;
      }
    }
    const bool local =
        task.preferred_node < 0 || task.preferred_node == best_node;
    const double end = best_start + scheduler.task_duration(task, local);
    auto& slot_free = state.slot_free[static_cast<std::size_t>(best_node)];
    if (end > best_crash) {
      // The node dies under the attempt: the slot is gone at the crash and
      // the task cannot restart before the heartbeat timeout notices.
      const double detect = tracker.detection_s(best_crash + offset);
      outcome.lost_attempts.push_back({phase_name, "killed", idx, best_node,
                                       static_cast<int>(best_slot),
                                       best_start + offset, detect});
      ++outcome.killed_attempts;
      slot_free[best_slot] = best_crash;
      state.ready[idx] = detect - offset;
      pending.push_back(idx);
      continue;
    }
    slot_free[best_slot] = end;
    state.timeline.tasks[idx] = {best_node, static_cast<int>(best_slot),
                                 best_start, end, local};
  }
}

/// Schedule every task of one phase, longest first, from an idle cluster.
PhaseState run_phase(const SimScheduler& scheduler,
                     std::span<const TaskSpec> tasks,
                     std::size_t slots_per_node,
                     const faults::NodeTracker& tracker,
                     const char* phase_name, double offset,
                     faults::FaultOutcome& outcome) {
  PhaseState state(tasks.size(), scheduler.config().nodes, slots_per_node);
  std::vector<std::size_t> all(tasks.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  place_tasks(scheduler, tasks, tracker, phase_name, offset,
              lpt_order(scheduler, tasks, std::move(all)), state, outcome);
  return state;
}

/// Fold a placed phase's derived stats, after speculative execution when
/// `speculate` allows it.  Speculation is applied only on a cluster that
/// never fails: a backup copy's slot occupancy would interact with kills
/// (DESIGN.md).  A straggler whose duration exceeds speculation_factor x
/// the phase median then ends at start + (speculation_factor + 1) x median.
void finish_phase(const ClusterConfig& config, bool speculate,
                  PhaseTimeline& phase) {
  if (speculate && config.speculative_execution && phase.tasks.size() >= 3) {
    std::vector<double> durations;
    durations.reserve(phase.tasks.size());
    for (const auto& task : phase.tasks) {
      durations.push_back(task.end_s - task.start_s);
    }
    std::nth_element(durations.begin(),
                     durations.begin() + static_cast<long>(durations.size() / 2),
                     durations.end());
    const double median = durations[durations.size() / 2];
    for (auto& task : phase.tasks) {
      const double duration = task.end_s - task.start_s;
      if (duration > config.speculation_factor * median) {
        const double rescued_end =
            task.start_s + (config.speculation_factor + 1.0) * median;
        if (rescued_end < task.end_s) {
          task.end_s = rescued_end;
          ++phase.speculated_tasks;
        }
      }
    }
  }
  for (const TaskPlacement& placed : phase.tasks) {
    phase.makespan_s = std::max(phase.makespan_s, placed.end_s);
    if (placed.data_local) ++phase.data_local_tasks;
  }
}

}  // namespace

PhaseTimeline SimScheduler::schedule_phase(std::span<const TaskSpec> tasks,
                                           std::size_t slots_per_node) const {
  const faults::FaultPlan no_faults;
  const faults::NodeTracker tracker(no_faults, config_.nodes);
  faults::FaultOutcome outcome;
  PhaseState state = run_phase(*this, tasks, slots_per_node, tracker, "phase",
                               0.0, outcome);
  finish_phase(config_, true, state.timeline);
  return std::move(state.timeline);
}

namespace {

/// Export one scheduled phase onto the job's sim track group: task i becomes
/// a duration event on the (node, slot) track it ran on.  The timestamp is
/// shifted by `ts_offset_s` so phases line up end to end within the job; the
/// exact phase-relative times travel as args.  When `specs` is non-empty the
/// task's resource demand (work / input / output bytes) rides along as extra
/// %.17g args; offline reconstruction ignores unknown args, so the doctor's
/// byte-identity invariant is unaffected.
void trace_sim_phase(obs::Tracer& tracer, std::uint32_t pid,
                     const char* phase_name, const PhaseTimeline& phase,
                     std::span<const TaskSpec> specs,
                     std::size_t slots_per_node, std::uint32_t tid_base,
                     double ts_offset_s) {
  for (std::size_t i = 0; i < phase.tasks.size(); ++i) {
    const TaskPlacement& task = phase.tasks[i];
    const std::uint32_t tid =
        tid_base + static_cast<std::uint32_t>(task.node) *
                       static_cast<std::uint32_t>(slots_per_node) +
        static_cast<std::uint32_t>(task.slot);
    tracer.name_sim_track(pid, tid,
                          "node " + std::to_string(task.node) + " " +
                              phase_name + " slot " +
                              std::to_string(task.slot));
    std::vector<obs::TraceArg> args = {
        {"phase", phase_name},
        {"task", std::to_string(i)},
        {"data_local", task.data_local ? "true" : "false"}};
    if (i < specs.size()) {
      args.emplace_back("work", obs::trace_double(specs[i].work));
      args.emplace_back("input_bytes",
                        obs::trace_double(specs[i].input_bytes));
      args.emplace_back("output_bytes",
                        obs::trace_double(specs[i].output_bytes));
    }
    tracer.sim_task(pid, tid, std::string(phase_name) + " " + std::to_string(i),
                    task.start_s, task.end_s, std::move(args), ts_offset_s);
  }
}

/// Byte totals from the specs in phase-index / fetch-list order — one fixed
/// left-to-right summation, so the doubles the doctor renders do not depend
/// on how the job was scheduled.
obs::report::ByteSummary summarize_bytes(std::span<const TaskSpec> map_tasks,
                                         std::span<const FetchSpec> fetches,
                                         std::span<const TaskSpec> reduce_tasks) {
  obs::report::ByteSummary bytes;
  for (const TaskSpec& task : map_tasks) {
    bytes.map_input_bytes += task.input_bytes;
    bytes.map_output_bytes += task.output_bytes;
  }
  for (const TaskSpec& task : reduce_tasks) {
    bytes.reduce_input_bytes += task.input_bytes;
    bytes.reduce_output_bytes += task.output_bytes;
  }
  bytes.fetch_count = fetches.size();
  std::vector<std::size_t> fan_in;
  for (const FetchSpec& fetch : fetches) {
    bytes.fetch_bytes += fetch.bytes;
    if (fetch.reducer >= fan_in.size()) fan_in.resize(fetch.reducer + 1, 0);
    bytes.max_fetch_fan_in =
        std::max(bytes.max_fetch_fan_in, ++fan_in[fetch.reducer]);
  }
  return bytes;
}

/// The per-fetch shuffle schedule: each fetch starts when its map run is
/// available and the reducer's NIC is free (fetches into one reducer are
/// serialized).  Fetch order per reducer: by producer finish time, map index
/// breaking ties — deterministic regardless of thread count.  Times are on
/// the map phase's relative clock, like `map_phase`.
std::vector<FetchPlacement> schedule_fetches(const SimScheduler& scheduler,
                                             std::span<const FetchSpec> fetches,
                                             const PhaseTimeline& map_phase) {
  std::vector<std::size_t> order(fetches.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (fetches[a].reducer != fetches[b].reducer) {
                       return fetches[a].reducer < fetches[b].reducer;
                     }
                     const double ready_a =
                         map_phase.tasks[fetches[a].map_task].end_s;
                     const double ready_b =
                         map_phase.tasks[fetches[b].map_task].end_s;
                     if (ready_a != ready_b) return ready_a < ready_b;
                     return fetches[a].map_task < fetches[b].map_task;
                   });
  std::vector<FetchPlacement> placed;
  placed.reserve(fetches.size());
  std::size_t current_reducer = 0;
  double reducer_free = 0.0;
  bool first = true;
  for (const std::size_t idx : order) {
    const FetchSpec& fetch = fetches[idx];
    MRMC_REQUIRE(fetch.map_task < map_phase.tasks.size(),
                 "fetch references an unknown map task");
    if (first || fetch.reducer != current_reducer) {
      current_reducer = fetch.reducer;
      reducer_free = 0.0;
      first = false;
    }
    const double ready = map_phase.tasks[fetch.map_task].end_s;
    const double start = std::max(ready, reducer_free);
    const double end = start + scheduler.fetch_time(fetch.bytes);
    reducer_free = end;
    placed.push_back({fetch.map_task, fetch.reducer, start, end, fetch.bytes});
  }
  return placed;
}

/// Metrics + trace + log for a finished timeline.  The trace events are the
/// job doctor's only input (obs::report::jobs_from_trace).
void emit_job(const SimScheduler& scheduler, const JobTimeline& timeline,
              std::span<const TaskSpec> map_specs,
              std::span<const TaskSpec> reduce_specs,
              double shuffle_bytes, const std::string& job_name) {
  auto& registry = obs::Registry::global();
  registry.counter("mr.sim_jobs").inc();
  registry.counter("mr.data_local_tasks")
      .add(static_cast<long>(timeline.map_phase.data_local_tasks +
                             timeline.reduce_phase.data_local_tasks));
  registry.counter("mr.speculated_tasks")
      .add(static_cast<long>(timeline.map_phase.speculated_tasks +
                             timeline.reduce_phase.speculated_tasks));
  registry.counter("mr.shuffle_bytes")
      .add(static_cast<long>(shuffle_bytes));
  auto& map_hist = registry.histogram("mr.map_task_sim_s");
  for (const TaskPlacement& task : timeline.map_phase.tasks) {
    map_hist.observe(task.end_s - task.start_s);
  }
  auto& reduce_hist = registry.histogram("mr.reduce_task_sim_s");
  for (const TaskPlacement& task : timeline.reduce_phase.tasks) {
    reduce_hist.observe(task.end_s - task.start_s);
  }
  registry.histogram("mr.shuffle_sim_s").observe(timeline.shuffle_s);
  if (!timeline.faults.empty()) {
    registry.counter("mr.node_crashes")
        .add(static_cast<long>(timeline.faults.events.size()));
    registry.counter("mr.killed_attempts")
        .add(static_cast<long>(timeline.faults.killed_attempts));
    registry.counter("mr.lost_map_outputs")
        .add(static_cast<long>(timeline.faults.lost_map_outputs));
    registry.counter("mr.blacklisted_nodes")
        .add(static_cast<long>(timeline.faults.blacklisted_nodes));
  }

  // Claim this job's lineage slot unconditionally: the sequence counter of
  // a live obs::pipeline scope must advance exactly once per simulated job,
  // whatever sinks are enabled, and run_splits reads the claim back via
  // obs::pipeline::last_claim() to stamp its wall span.
  const std::optional<obs::pipeline::Claim> claim = obs::pipeline::claim();

  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    const std::uint32_t pid = tracer.begin_sim_job(job_name);
    const ClusterConfig& config = scheduler.config();
    if (claim) {
      // Lineage instant on the job's own sim track: jobs_from_trace turns
      // it back into the JobInput lineage fields, and the pipeline doctor
      // regroups jobs by it.
      obs::TraceEvent lineage_event;
      lineage_event.name = "job_lineage";
      lineage_event.category = "sim";
      lineage_event.phase = 'i';
      lineage_event.pid = pid;
      lineage_event.args = {{"pipeline", claim->pipeline},
                            {"stage", claim->stage},
                            {"round", std::to_string(claim->round)},
                            {"sequence", std::to_string(claim->sequence)}};
      tracer.append(std::move(lineage_event));
      // Flow arrow from the previous job of this pipeline to this one, so
      // trace viewers draw the cross-job chain.  Reconstruction skips
      // 's'/'f' phases entirely, keeping reports byte-identical.
      if (const obs::pipeline::FlowLink link = obs::pipeline::take_flow_link();
          link.valid) {
        const std::uint64_t flow = obs::pipeline::flow_event_id(*claim);
        obs::TraceEvent flow_out;
        flow_out.name = "pipeline";
        flow_out.category = "flow";
        flow_out.phase = 's';
        flow_out.ts_us = link.end_ts_us;
        flow_out.pid = link.pid;
        flow_out.flow_id = flow;
        tracer.append(std::move(flow_out));
        obs::TraceEvent flow_in;
        flow_in.name = "pipeline";
        flow_in.category = "flow";
        flow_in.phase = 'f';
        flow_in.ts_us = 0.0;
        flow_in.pid = pid;
        flow_in.flow_id = flow;
        tracer.append(std::move(flow_in));
      }
      obs::pipeline::set_flow_link(pid, timeline.total_s * 1e6);
    }
    // Cluster shape + startup for the doctor's reconstruction; the doubles
    // travel as %.17g so the report restores them bit for bit.
    obs::TraceEvent config_event;
    config_event.name = "job_config";
    config_event.category = "sim";
    config_event.phase = 'i';
    config_event.pid = pid;
    config_event.args = {
        {"nodes", std::to_string(config.nodes)},
        {"map_slots_per_node", std::to_string(config.map_slots_per_node)},
        {"reduce_slots_per_node", std::to_string(config.reduce_slots_per_node)},
        {"job_startup_s", obs::trace_double(config.job_startup_s)},
        {"shuffle_bytes", obs::trace_double(shuffle_bytes)}};
    tracer.append(std::move(config_event));
    if (!timeline.bytes.empty()) {
      // Byte totals as %.17g instants so jobs_from_trace restores the exact
      // doubles of the simulator's ByteSummary.
      obs::TraceEvent bytes_event;
      bytes_event.name = "job_bytes";
      bytes_event.category = "sim";
      bytes_event.phase = 'i';
      bytes_event.pid = pid;
      bytes_event.args = {
          {"map_input_bytes",
           obs::trace_double(timeline.bytes.map_input_bytes)},
          {"map_output_bytes",
           obs::trace_double(timeline.bytes.map_output_bytes)},
          {"reduce_input_bytes",
           obs::trace_double(timeline.bytes.reduce_input_bytes)},
          {"reduce_output_bytes",
           obs::trace_double(timeline.bytes.reduce_output_bytes)},
          {"fetch_bytes", obs::trace_double(timeline.bytes.fetch_bytes)},
          {"fetch_count", std::to_string(timeline.bytes.fetch_count)},
          {"max_fetch_fan_in",
           std::to_string(timeline.bytes.max_fetch_fan_in)}};
      tracer.append(std::move(bytes_event));
    }
    // Fault instants precede the task events, in crash / discovery order,
    // so jobs_from_trace rebuilds the timeline's fault lists exactly.
    for (const faults::NodeDownEvent& event : timeline.faults.events) {
      obs::TraceEvent fault_event;
      fault_event.name = "node_fault";
      fault_event.category = "sim";
      fault_event.phase = 'i';
      fault_event.pid = pid;
      fault_event.args = {
          {"node", std::to_string(event.node)},
          {"crash_s", obs::trace_double(event.crash_s)},
          {"detect_s", obs::trace_double(event.detect_s)},
          {"recover_s", obs::trace_double(event.recover_s)},
          {"blacklisted", event.blacklisted ? "true" : "false"}};
      tracer.append(std::move(fault_event));
    }
    for (const faults::LostAttempt& lost : timeline.faults.lost_attempts) {
      obs::TraceEvent lost_event;
      lost_event.name = "lost_attempt";
      lost_event.category = "sim";
      lost_event.phase = 'i';
      lost_event.pid = pid;
      lost_event.args = {{"phase", lost.phase},
                         {"kind", lost.kind},
                         {"task", std::to_string(lost.task)},
                         {"node", std::to_string(lost.node)},
                         {"slot", std::to_string(lost.slot)},
                         {"start_s", obs::trace_double(lost.start_s)},
                         {"end_s", obs::trace_double(lost.end_s)}};
      tracer.append(std::move(lost_event));
    }
    // Reduce tracks live above the map tracks; the shuffle gets its own.
    const auto reduce_tid_base = static_cast<std::uint32_t>(
        config.nodes * config.map_slots_per_node);
    const std::uint32_t shuffle_tid =
        reduce_tid_base + static_cast<std::uint32_t>(
                              config.nodes * config.reduce_slots_per_node);
    const double map_offset = config.job_startup_s;
    const double shuffle_offset = map_offset + timeline.map_phase.makespan_s;
    const double reduce_offset = shuffle_offset + timeline.shuffle_s;
    trace_sim_phase(tracer, pid, "map", timeline.map_phase, map_specs,
                    config.map_slots_per_node, 0, map_offset);
    if (timeline.shuffle_s > 0.0) {
      tracer.name_sim_track(pid, shuffle_tid, "shuffle");
      tracer.sim_task(pid, shuffle_tid, "shuffle", 0.0, timeline.shuffle_s,
                      {{"phase", "shuffle"},
                       {"bytes", obs::trace_double(shuffle_bytes)}},
                      shuffle_offset);
    }
    // Per-fetch shuffle events, one track per reducer, on the map-phase
    // clock (fetches overlap the map phase).  The doctor's reconstruction
    // (jobs_from_trace) skips phase=fetch events; the aggregate shuffle
    // event above remains its source of truth.
    for (const FetchPlacement& fetch : timeline.fetches) {
      const std::uint32_t tid =
          shuffle_tid + 1 + static_cast<std::uint32_t>(fetch.reducer);
      tracer.name_sim_track(pid, tid,
                            "shuffle fetch r" + std::to_string(fetch.reducer));
      tracer.sim_task(pid, tid,
                      "fetch m" + std::to_string(fetch.map_task) + " r" +
                          std::to_string(fetch.reducer),
                      fetch.start_s, fetch.end_s,
                      {{"phase", "fetch"},
                       {"map", std::to_string(fetch.map_task)},
                       {"reducer", std::to_string(fetch.reducer)},
                       {"bytes", obs::trace_double(fetch.bytes)}},
                      map_offset);
    }
    trace_sim_phase(tracer, pid, "reduce", timeline.reduce_phase, reduce_specs,
                    config.reduce_slots_per_node, reduce_tid_base,
                    reduce_offset);

    // Sampled live-task counters and cumulative progress curves on the
    // deterministic sim-time grid: both series depend only on the timeline,
    // never on wall-clock pacing, so sampled traces stay reproducible run
    // to run.
    const bool sampled = obs::ResourceSampler::global().enabled();
    const bool progress = obs::progress::Tracker::global().enabled();
    if (sampled || progress) {
      const auto intervals = [](const auto& tasks, double offset) {
        std::vector<obs::SimInterval> out;
        out.reserve(tasks.size());
        for (const auto& task : tasks) {
          out.push_back({task.start_s + offset, task.end_s + offset});
        }
        return out;
      };
      const auto maps = intervals(timeline.map_phase.tasks, map_offset);
      const auto fetches = intervals(timeline.fetches, map_offset);
      const auto reduces = intervals(timeline.reduce_phase.tasks, reduce_offset);
      if (sampled) {
        obs::emit_sim_grid(tracer, pid, obs::SimGrid::kActiveTasks, maps,
                           fetches, reduces, timeline.total_s);
      }
      if (progress) {
        obs::emit_sim_grid(tracer, pid, obs::SimGrid::kProgress, maps, fetches,
                           reduces, timeline.total_s);
      }
    }
  }

  static const obs::Logger logger("mr.sim");
  logger.debug("job simulated",
               {{"job", job_name},
                {"maps", map_specs.size()},
                {"reduces", reduce_specs.size()},
                {"sim_total_s", timeline.total_s},
                {"summary", timeline.summary()}});
  if (!timeline.faults.empty()) {
    logger.info("job ran under node faults",
                {{"job", job_name},
                 {"node_crashes", timeline.faults.events.size()},
                 {"killed_attempts", timeline.faults.killed_attempts},
                 {"lost_map_outputs", timeline.faults.lost_map_outputs},
                 {"blacklisted_nodes", timeline.faults.blacklisted_nodes}});
  }
}

/// Map-output invalidation (Hadoop's fetch-failure path): a *completed* map
/// whose node dies before every reducer has pulled its output must
/// re-execute.  Loop until a fixed point: each re-execution shifts the
/// serialized fetch schedule, which can extend other maps' vulnerability
/// windows and expose further crashes as invalidating.  The loop terminates
/// because a given map's invalidating crashes are strictly time-increasing
/// and the plan is finite.
void reexecute_lost_map_outputs(const SimScheduler& scheduler,
                                std::span<const TaskSpec> map_tasks,
                                double shuffle_bytes,
                                std::span<const FetchSpec> fetches,
                                const faults::NodeTracker& tracker,
                                PhaseState& map, faults::FaultOutcome& outcome) {
  const ClusterConfig& config = scheduler.config();
  const std::vector<TaskPlacement>& placements = map.timeline.tasks;
  if (placements.empty()) return;
  for (;;) {
    // Safe instants on the ABSOLUTE job clock (crash times live there);
    // placements are map-phase-relative, hence the + job_startup_s.
    std::vector<double> safe(placements.size());
    if (!fetches.empty()) {
      for (std::size_t m = 0; m < placements.size(); ++m) {
        safe[m] = placements[m].end_s + config.job_startup_s;
      }
      for (const FetchPlacement& fetch :
           schedule_fetches(scheduler, fetches, map.timeline)) {
        safe[fetch.map_task] = std::max(safe[fetch.map_task],
                                        fetch.end_s + config.job_startup_s);
      }
    } else {
      // Aggregate model: every output is consumed by the barrier shuffle
      // that ends shuffle_time after the last map.  No shuffle bytes, no
      // re-reads: outputs are safe the moment the map finishes.
      double map_done = 0.0;
      for (const TaskPlacement& placed : placements) {
        map_done = std::max(map_done, placed.end_s);
      }
      const double barrier =
          shuffle_bytes > 0 ? config.job_startup_s + map_done +
                                  scheduler.shuffle_time(shuffle_bytes)
                            : 0.0;
      for (std::size_t m = 0; m < placements.size(); ++m) {
        safe[m] = std::max(placements[m].end_s + config.job_startup_s, barrier);
      }
    }
    double first_crash = faults::kNever;
    int crash_node = -1;
    for (std::size_t m = 0; m < placements.size(); ++m) {
      const TaskPlacement& placed = placements[m];
      const double crash = tracker.crash_in(
          placed.node, placed.end_s + config.job_startup_s, safe[m]);
      if (crash < first_crash ||
          (crash == first_crash && crash != faults::kNever &&
           placed.node < crash_node)) {
        first_crash = crash;
        crash_node = placed.node;
      }
    }
    if (first_crash == faults::kNever) return;
    const double detect = tracker.detection_s(first_crash);
    std::vector<std::size_t> invalidated;
    for (std::size_t m = 0; m < placements.size(); ++m) {
      const TaskPlacement& placed = placements[m];
      if (placed.node != crash_node ||
          placed.end_s + config.job_startup_s > first_crash ||
          first_crash >= safe[m]) {
        continue;
      }
      outcome.lost_attempts.push_back(
          {"map", "lost-output", m, placed.node, placed.slot,
           placed.start_s + config.job_startup_s, detect});
      ++outcome.lost_map_outputs;
      map.ready[m] = detect - config.job_startup_s;
      invalidated.push_back(m);
    }
    MRMC_CHECK(!invalidated.empty(),
               "map-output invalidation matched no attempt");
    place_tasks(scheduler, map_tasks, tracker, "map", config.job_startup_s,
                lpt_order(scheduler, map_tasks, std::move(invalidated)), map,
                outcome);
  }
}

}  // namespace

JobTimeline simulate_job(const SimScheduler& scheduler,
                         std::span<const TaskSpec> map_tasks,
                         double shuffle_bytes,
                         std::span<const FetchSpec> fetches,
                         std::span<const TaskSpec> reduce_tasks,
                         const std::string& job_name,
                         const faults::FaultPlan& plan) {
  const ClusterConfig& config = scheduler.config();
  plan.validate(config.nodes);
  const faults::NodeTracker tracker(plan, config.nodes);
  // Speculation only under the empty plan; invalidation only under crashes.
  const bool faulted = !plan.empty();

  JobTimeline timeline;
  timeline.faults.events = tracker.down_events();
  timeline.faults.blacklisted_nodes = tracker.blacklisted_nodes();

  // Map phase on its own phase-relative clock; the fault plan's absolute
  // job clock is job_startup_s later.
  PhaseState map =
      run_phase(scheduler, map_tasks, config.map_slots_per_node, tracker,
                "map", config.job_startup_s, timeline.faults);
  if (faulted) {
    reexecute_lost_map_outputs(scheduler, map_tasks, shuffle_bytes, fetches,
                               tracker, map, timeline.faults);
  }
  timeline.map_phase = std::move(map.timeline);
  finish_phase(config, !faulted, timeline.map_phase);

  // Shuffle on the map-phase-relative clock.
  if (fetches.empty()) {
    // Aggregate barrier model: one all-to-all transfer after the map phase.
    timeline.shuffle_s = scheduler.shuffle_time(shuffle_bytes);
  } else {
    // Overlapped model: each fetch starts when its map run is available and
    // the reducer's NIC is free; only the tail beyond the last map task
    // extends the job.
    timeline.fetches = schedule_fetches(scheduler, fetches, timeline.map_phase);
    double shuffle_done = 0.0;
    for (const FetchPlacement& fetch : timeline.fetches) {
      shuffle_done = std::max(shuffle_done, fetch.end_s);
    }
    timeline.shuffle_s =
        std::max(0.0, shuffle_done - timeline.map_phase.makespan_s);
  }

  // Reduce phase: launches after the shuffle barrier on its own relative
  // clock, kills only (nothing downstream invalidates reduce outputs).
  const double reduce_offset =
      config.job_startup_s + timeline.map_phase.makespan_s + timeline.shuffle_s;
  timeline.reduce_phase =
      run_phase(scheduler, reduce_tasks, config.reduce_slots_per_node, tracker,
                "reduce", reduce_offset, timeline.faults)
          .timeline;
  finish_phase(config, !faulted, timeline.reduce_phase);

  timeline.total_s = config.job_startup_s + timeline.map_phase.makespan_s +
                     timeline.shuffle_s + timeline.reduce_phase.makespan_s;
  timeline.bytes = summarize_bytes(map_tasks, fetches, reduce_tasks);
  emit_job(scheduler, timeline, map_tasks, reduce_tasks, shuffle_bytes,
           job_name);
  return timeline;
}

std::string JobTimeline::summary() const {
  return "map=" + common::format_duration(map_phase.makespan_s) +
         " shuffle=" + common::format_duration(shuffle_s) +
         " reduce=" + common::format_duration(reduce_phase.makespan_s) +
         " total=" + common::format_duration(total_s);
}

}  // namespace mrmc::mr
