// Post-hoc job doctor: turns raw telemetry into answers.
//
// The analyzer consumes one simulated job's schedule, rebuilt from the
// tracer's events (jobs_from_trace) — the tracer's in-memory buffer when
// MRMC_REPORT is set, or a flushed Chrome-trace JSON file in the
// mrmc_doctor CLI; both take the same route — and produces a JobReport:
//
//   * critical-path decomposition: startup / map / shuffle / reduce, the
//     longest chain versus the sum of task work, and the parallel
//     efficiency that falls out of the two;
//   * per-node and per-slot utilization (busy seconds over phase makespan);
//   * findings: stragglers (top-k task durations vs. the phase median),
//     reduce skew, poor data locality, idle slots, shuffle- or
//     startup-bound jobs — each with a heuristic recommendation.
//
// A report renders two ways: ANSI text (to_text) and JSON (to_json) whose
// doubles are printed with %.17g so an offline reader recovers the
// scheduler's numbers bit-for-bit.  The schedule itself is drawn by any
// Chrome-trace viewer (Perfetto, chrome://tracing) from the trace file,
// which carries one node/slot track per task placement.
//
// The trace carries the scheduler's doubles as %.17g args and every derived
// quantity is combined in a fixed left-to-right order, so the report's
// makespans equal the simulated JobTimeline's bit for bit (asserted by
// tests/obs/report_test.cpp against the timeline simulate_job returns).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mini_json.hpp"

namespace mrmc::obs {
class Tracer;
}  // namespace mrmc::obs

namespace mrmc::obs::report {

/// One scheduled task as the analyzer sees it (phase-relative seconds).
struct TaskSample {
  std::size_t index = 0;  ///< task index within its phase
  int node = 0;
  int slot = 0;  ///< slot index on the node
  double start_s = 0.0;
  double end_s = 0.0;
  bool data_local = true;

  [[nodiscard]] double duration_s() const noexcept { return end_s - start_s; }
};

/// One node crash as the analyzer sees it (mr::faults::NodeDownEvent's
/// doctor-side twin).  recover_s is -1 when the node never rejoined, so
/// every field is a finite double and survives the %.17g trace round trip.
struct FaultEventSample {
  int node = 0;
  double crash_s = 0.0;
  double detect_s = 0.0;
  double recover_s = -1.0;
  bool blacklisted = false;
};

/// One task attempt a node failure destroyed ("killed" mid-run, or a
/// completed map's "lost-output"); times are absolute job-clock seconds.
struct LostAttemptSample {
  std::string phase;  ///< "map" | "reduce"
  std::string kind;   ///< "killed" | "lost-output"
  std::size_t task = 0;
  int node = 0;
  int slot = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Serialized-byte totals for one job, summed over the task specs in
/// phase-index order (the shuffle-byte accounting).  empty() when the
/// producer recorded none — the renderers then omit the Bytes section
/// entirely, keeping byte-less reports byte-identical to older builds.
/// Doubles travel as %.17g through the trace ("job_bytes" instant), so the
/// report restores the simulator's totals exactly.
struct ByteSummary {
  double map_input_bytes = 0.0;      ///< split bytes the map tasks read
  double map_output_bytes = 0.0;     ///< spill bytes the map tasks wrote
  double reduce_input_bytes = 0.0;   ///< merged run bytes the reducers read
  double reduce_output_bytes = 0.0;  ///< final output bytes
  double fetch_bytes = 0.0;          ///< bytes moved by shuffle fetches
  std::size_t fetch_count = 0;       ///< spill runs pulled across the wire
  std::size_t max_fetch_fan_in = 0;  ///< most runs merged into one reducer

  [[nodiscard]] bool empty() const noexcept {
    return map_input_bytes == 0.0 && map_output_bytes == 0.0 &&
           reduce_input_bytes == 0.0 && reduce_output_bytes == 0.0 &&
           fetch_bytes == 0.0 && fetch_count == 0 && max_fetch_fan_in == 0;
  }
};

/// Everything the analyzer needs about one simulated job, as
/// jobs_from_trace() rebuilds it from the tracer's events.
struct JobInput {
  std::string name = "job";
  std::size_t nodes = 1;
  std::size_t map_slots_per_node = 1;
  std::size_t reduce_slots_per_node = 1;
  double job_startup_s = 0.0;
  double shuffle_s = 0.0;
  double shuffle_bytes = 0.0;
  ByteSummary bytes;
  std::vector<TaskSample> map_tasks;
  std::vector<TaskSample> reduce_tasks;
  std::vector<FaultEventSample> fault_events;    ///< crash order
  std::vector<LostAttemptSample> lost_attempts;  ///< discovery order
  /// Cross-job lineage (obs v3): set when the job ran under an active
  /// obs::pipeline scope; an empty pipeline id means a standalone job and
  /// keeps the rendered report byte-identical to pre-lineage builds.
  std::string pipeline;      ///< pipeline id, e.g. "pipeline-hierarchical#1"
  std::string stage;         ///< stage name within the pipeline
  int round = -1;            ///< iteration index for round drivers; -1 = none
  std::size_t sequence = 0;  ///< 0-based position within the pipeline
  /// Sim track (pid) the job occupies in the trace.  mrmc_doctor's `jobs`
  /// listing and --job selector key on it; never rendered into reports.
  std::uint32_t trace_pid = 0;
};

/// Tunable thresholds for the heuristics.
struct AnalyzeOptions {
  double straggler_factor = 2.0;    ///< duration > factor x phase median
  std::size_t straggler_top_k = 3;  ///< tasks listed per straggler finding
  double skew_factor = 2.0;         ///< reduce imbalance max/median threshold
  double locality_threshold = 0.8;  ///< warn below this data-local fraction
  double efficiency_threshold = 0.5;
  double overhead_fraction = 0.3;   ///< shuffle- / startup-bound threshold
};

enum class Severity { kInfo, kWarning, kCritical };

[[nodiscard]] const char* severity_name(Severity severity) noexcept;

/// One diagnosis, e.g. {"map-straggler", kWarning, "...", "..."}.
struct Finding {
  std::string id;  ///< stable machine name, e.g. "reduce-skew"
  Severity severity = Severity::kInfo;
  std::string message;         ///< what was observed, with numbers
  std::string recommendation;  ///< what to try about it
};

/// Per-phase decomposition (map or reduce).
struct PhaseAnalysis {
  std::string phase;  ///< "map" or "reduce"
  std::size_t task_count = 0;
  std::size_t slots = 0;        ///< nodes x slots_per_node
  std::size_t busy_slots = 0;   ///< slots that ran at least one task
  double makespan_s = 0.0;      ///< max task end == longest slot chain
  double busy_s = 0.0;          ///< sum of task durations (the "work")
  double ideal_s = 0.0;         ///< busy_s / slots: perfectly balanced time
  double parallel_efficiency = 0.0;  ///< busy_s / (makespan_s * slots)
  double median_task_s = 0.0;
  double max_task_s = 0.0;
  double data_local_fraction = 1.0;
  std::vector<double> node_busy_s;  ///< per-node busy seconds, size = nodes
};

/// What node failures did to the job (empty() for fault-free runs — the
/// renderers then omit the Faults section entirely, keeping fault-free
/// reports byte-identical to pre-fault builds).
struct FaultAnalysis {
  std::size_t node_crashes = 0;
  std::size_t killed_attempts = 0;
  std::size_t lost_map_outputs = 0;
  std::size_t blacklisted_nodes = 0;
  double lost_work_s = 0.0;  ///< attempt-seconds destroyed, in list order
  double downtime_s = 0.0;   ///< node-down seconds clamped to [0, total_s]
  std::vector<FaultEventSample> events;
  std::vector<LostAttemptSample> lost_attempts;

  [[nodiscard]] bool empty() const noexcept {
    return events.empty() && lost_attempts.empty();
  }
};

/// Utilization of one node across both compute phases.
struct NodeUtilization {
  int node = 0;
  double busy_s = 0.0;       ///< map + reduce busy seconds on this node
  double utilization = 0.0;  ///< busy / (available slot-seconds)
};

struct JobReport {
  std::string name;
  std::size_t nodes = 1;
  /// Critical path, in schedule order.  total_s is re-derived as
  /// startup + map + shuffle + reduce left to right, matching
  /// mr::simulate_job exactly.
  double startup_s = 0.0;
  double shuffle_s = 0.0;
  double shuffle_bytes = 0.0;
  double total_s = 0.0;
  PhaseAnalysis map_phase;
  PhaseAnalysis reduce_phase;
  /// Whole-job parallel efficiency: compute busy seconds over the
  /// slot-seconds the compute phases occupied.
  double parallel_efficiency = 0.0;
  /// Fraction of total_s spent outside the compute phases.
  double overhead_fraction = 0.0;
  std::vector<NodeUtilization> node_utilization;
  ByteSummary bytes;  ///< copied verbatim from the input (empty() = omitted)
  FaultAnalysis faults;
  std::vector<Finding> findings;
  /// Lineage, copied verbatim from the input (empty pipeline = standalone;
  /// the renderers then omit the lineage section entirely).
  std::string pipeline;
  std::string stage;
  int round = -1;
  std::size_t sequence = 0;
  std::uint32_t trace_pid = 0;  ///< sim track in the trace; not rendered

  [[nodiscard]] bool has_finding(std::string_view id) const noexcept;
};

/// Run every heuristic over one job.
[[nodiscard]] JobReport analyze(const JobInput& input,
                                const AnalyzeOptions& options = {});

// ------------------------------------------------------------ trace intake

/// Reconstruct the analyzer inputs from a parsed Chrome trace (the format
/// obs::Tracer::write_chrome_trace emits): sim pids become jobs, their
/// %.17g start_s/end_s args restore the scheduler's doubles exactly, and
/// the job_config instant restores the cluster shape.  Jobs appear in
/// trace (pid) order.  Throws std::runtime_error on a malformed trace.
[[nodiscard]] std::vector<JobInput> jobs_from_trace(
    const common::JsonValue& root);

/// Read and parse a flushed trace file.  Throws std::runtime_error when the
/// file is unreadable or is not JSON.
[[nodiscard]] common::JsonValue load_trace(const std::string& path);

/// The tracer's in-memory events, serialized and parsed exactly as a
/// flushed trace file would be — so in-process reports (MRMC_REPORT,
/// MRMC_PIPELINE, --report) take the same intake as mrmc_doctor.
[[nodiscard]] common::JsonValue trace_root(const Tracer& tracer);

/// load_trace + jobs_from_trace + analyze, end to end.
[[nodiscard]] std::vector<JobReport> analyze_trace_file(
    const std::string& path, const AnalyzeOptions& options = {});

// -------------------------------------------------------------- renderers

/// ANSI text summary; `color` adds SGR escapes for severities.
[[nodiscard]] std::string to_text(const JobReport& report, bool color = false);
[[nodiscard]] std::string to_text(std::span<const JobReport> reports,
                                  bool color = false);

/// Machine-readable report; all doubles rendered %.17g.
[[nodiscard]] std::string to_json(const JobReport& report);
[[nodiscard]] std::string to_json(std::span<const JobReport> reports);

/// The output format a report path asks for: "json" for a .json path,
/// "text" otherwise.  The one rule every report writer uses.
[[nodiscard]] std::string format_for_path(std::string_view path);

/// Analyze `jobs` and render them as "json", or as text for any other
/// format.
[[nodiscard]] std::string render(std::span<const JobInput> jobs,
                                 std::string_view format, bool color = false);

/// render() to `path` in the format its extension asks for, committed
/// atomically.  False when `jobs` is empty or the write fails (logged).
bool write_report(const std::string& path, std::span<const JobInput> jobs);

}  // namespace mrmc::obs::report
