#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/fsio.hpp"
#include "common/timer.hpp"
#include "obs/format.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace mrmc::obs::report {

namespace {

const Logger& logger() {
  static const Logger instance("obs.report");
  return instance;
}

/// Same median the scheduler's speculation heuristic uses: the upper median
/// of the sorted durations (index size/2).
double median_duration(const std::vector<TaskSample>& tasks) {
  if (tasks.empty()) return 0.0;
  std::vector<double> durations;
  durations.reserve(tasks.size());
  for (const TaskSample& task : tasks) durations.push_back(task.duration_s());
  std::nth_element(durations.begin(),
                   durations.begin() + static_cast<long>(durations.size() / 2),
                   durations.end());
  return durations[durations.size() / 2];
}

PhaseAnalysis analyze_phase(std::string phase_name,
                            const std::vector<TaskSample>& tasks,
                            std::size_t nodes, std::size_t slots_per_node) {
  PhaseAnalysis phase;
  phase.phase = std::move(phase_name);
  phase.task_count = tasks.size();
  phase.slots = nodes * slots_per_node;
  phase.node_busy_s.assign(nodes, 0.0);
  if (tasks.empty()) return phase;

  std::map<std::pair<int, int>, bool> slot_seen;
  std::size_t local = 0;
  for (const TaskSample& task : tasks) {
    // Same fold order as PhaseTimeline: max over end_s, exact doubles.
    phase.makespan_s = std::max(phase.makespan_s, task.end_s);
    phase.busy_s += task.duration_s();
    phase.max_task_s = std::max(phase.max_task_s, task.duration_s());
    if (task.node >= 0 && static_cast<std::size_t>(task.node) < nodes) {
      phase.node_busy_s[static_cast<std::size_t>(task.node)] +=
          task.duration_s();
    }
    slot_seen[{task.node, task.slot}] = true;
    if (task.data_local) ++local;
  }
  phase.busy_slots = slot_seen.size();
  phase.median_task_s = median_duration(tasks);
  phase.data_local_fraction =
      static_cast<double>(local) / static_cast<double>(tasks.size());
  if (phase.slots > 0) {
    phase.ideal_s = phase.busy_s / static_cast<double>(phase.slots);
    if (phase.makespan_s > 0.0) {
      phase.parallel_efficiency =
          phase.busy_s / (phase.makespan_s * static_cast<double>(phase.slots));
    }
  }
  return phase;
}

/// Top-k tasks above `threshold`, longest first, described for a finding.
std::string describe_stragglers(const std::vector<TaskSample>& tasks,
                                double threshold, std::size_t top_k,
                                std::size_t* count_out) {
  std::vector<const TaskSample*> over;
  for (const TaskSample& task : tasks) {
    if (task.duration_s() > threshold) over.push_back(&task);
  }
  std::sort(over.begin(), over.end(), [](const TaskSample* a, const TaskSample* b) {
    return a->duration_s() > b->duration_s();
  });
  *count_out = over.size();
  std::string out;
  for (std::size_t i = 0; i < over.size() && i < top_k; ++i) {
    if (i > 0) out += ", ";
    out += "task " + std::to_string(over[i]->index) + " on node " +
           std::to_string(over[i]->node) + " took " +
           f2(over[i]->duration_s()) + "s";
  }
  return out;
}

void straggler_finding(const PhaseAnalysis& phase,
                       const std::vector<TaskSample>& tasks,
                       const AnalyzeOptions& options,
                       std::vector<Finding>& findings) {
  // Need enough tasks for the median to mean anything (same floor as the
  // scheduler's speculation heuristic).
  if (tasks.size() < 3 || phase.median_task_s <= 0.0) return;
  const double threshold = options.straggler_factor * phase.median_task_s;
  std::size_t count = 0;
  const std::string worst =
      describe_stragglers(tasks, threshold, options.straggler_top_k, &count);
  if (count == 0) return;
  Finding finding;
  finding.id = phase.phase + "-straggler";
  finding.severity = Severity::kWarning;
  finding.message = phase.phase + ": " + std::to_string(count) + " of " +
                    std::to_string(tasks.size()) + " tasks exceed " +
                    f2(options.straggler_factor) + "x the phase median (" +
                    f2(phase.median_task_s) + "s): " + worst;
  finding.recommendation =
      phase.phase == "map"
          ? "skewed splits or a slow node — enable speculative_execution, or "
            "cut records_per_split so stragglers re-balance"
          : "a reducer is overloaded — enable speculative_execution, or "
            "rebalance keys across more reducers";
  findings.push_back(std::move(finding));
}

}  // namespace

const char* severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kCritical: return "critical";
  }
  return "info";
}

bool JobReport::has_finding(std::string_view id) const noexcept {
  for (const Finding& finding : findings) {
    if (finding.id == id) return true;
  }
  return false;
}

JobReport analyze(const JobInput& input, const AnalyzeOptions& options) {
  JobReport report;
  report.name = input.name;
  report.nodes = input.nodes;
  report.startup_s = input.job_startup_s;
  report.shuffle_s = input.shuffle_s;
  report.shuffle_bytes = input.shuffle_bytes;
  report.bytes = input.bytes;
  report.pipeline = input.pipeline;
  report.stage = input.stage;
  report.round = input.round;
  report.sequence = input.sequence;
  report.trace_pid = input.trace_pid;
  report.map_phase = analyze_phase("map", input.map_tasks, input.nodes,
                                   input.map_slots_per_node);
  report.reduce_phase = analyze_phase("reduce", input.reduce_tasks, input.nodes,
                                      input.reduce_slots_per_node);
  // The exact association mr::simulate_job uses: ((startup + map) + shuffle)
  // + reduce, left to right — bit-for-bit equal to JobTimeline::total_s.
  report.total_s = input.job_startup_s + report.map_phase.makespan_s +
                   input.shuffle_s + report.reduce_phase.makespan_s;

  const double busy =
      report.map_phase.busy_s + report.reduce_phase.busy_s;
  const double capacity =
      report.map_phase.makespan_s * static_cast<double>(report.map_phase.slots) +
      report.reduce_phase.makespan_s *
          static_cast<double>(report.reduce_phase.slots);
  report.parallel_efficiency = capacity > 0.0 ? busy / capacity : 0.0;
  report.overhead_fraction =
      report.total_s > 0.0
          ? (input.job_startup_s + input.shuffle_s) / report.total_s
          : 0.0;

  report.node_utilization.reserve(input.nodes);
  for (std::size_t node = 0; node < input.nodes; ++node) {
    NodeUtilization util;
    util.node = static_cast<int>(node);
    util.busy_s = report.map_phase.node_busy_s[node] +
                  report.reduce_phase.node_busy_s[node];
    const double available =
        report.map_phase.makespan_s *
            static_cast<double>(input.map_slots_per_node) +
        report.reduce_phase.makespan_s *
            static_cast<double>(input.reduce_slots_per_node);
    util.utilization = available > 0.0 ? util.busy_s / available : 0.0;
    report.node_utilization.push_back(util);
  }

  // ---------------------------------------------------------- the heuristics
  straggler_finding(report.map_phase, input.map_tasks, options, report.findings);
  straggler_finding(report.reduce_phase, input.reduce_tasks, options,
                    report.findings);

  if (input.reduce_tasks.size() >= 2 && report.reduce_phase.median_task_s > 0.0) {
    const double imbalance =
        report.reduce_phase.max_task_s / report.reduce_phase.median_task_s;
    if (imbalance > options.skew_factor) {
      report.findings.push_back(
          {"reduce-skew", Severity::kWarning,
           "reduce-key fan-out is imbalanced: the slowest reducer ran " +
               f2(imbalance) + "x the median (" +
               f2(report.reduce_phase.max_task_s) + "s vs " +
               f2(report.reduce_phase.median_task_s) + "s)",
           "hot keys dominate one partition — add a combiner, salt the hot "
           "keys, or use a range partitioner"});
    }
  }

  if (!input.map_tasks.empty() &&
      report.map_phase.data_local_fraction < options.locality_threshold) {
    report.findings.push_back(
        {"low-locality", Severity::kWarning,
         "only " + pct(report.map_phase.data_local_fraction) +
             " of map tasks read their split from local disk",
         "replicate inputs wider or relax the scheduler's locality delay so "
         "maps land on their replica holders"});
  }

  for (const PhaseAnalysis* phase : {&report.map_phase, &report.reduce_phase}) {
    if (phase->task_count == 0 || phase->busy_slots >= phase->slots) continue;
    const bool severe = phase->busy_slots * 2 < phase->slots;
    report.findings.push_back(
        {phase->phase + "-idle-slots",
         severe ? Severity::kWarning : Severity::kInfo,
         phase->phase + " phase used " + std::to_string(phase->busy_slots) +
             " of " + std::to_string(phase->slots) + " slots (" +
             std::to_string(phase->task_count) + " tasks)",
         "fewer tasks than slots — the cluster cannot speed this phase up; "
         "split the input finer or run on fewer nodes"});
  }

  if (report.total_s > 0.0) {
    if (input.shuffle_s / report.total_s > options.overhead_fraction) {
      report.findings.push_back(
          {"shuffle-bound", Severity::kWarning,
           "shuffle moves " + f2(input.shuffle_bytes / 1e6) + " MB and takes " +
               pct(input.shuffle_s / report.total_s) + " of the job",
           "shrink map output: add a combiner, compress intermediate data, or "
           "sketch/sample before shuffling"});
    }
    if (input.job_startup_s / report.total_s > options.overhead_fraction) {
      report.findings.push_back(
          {"startup-bound", Severity::kWarning,
           "fixed job startup (" + f2(input.job_startup_s) + "s) is " +
               pct(input.job_startup_s / report.total_s) + " of the job",
           "the job is too small for the cluster — batch more input per job "
           "or chain stages into one job"});
    }
  }

  if (capacity > 0.0 &&
      report.parallel_efficiency < options.efficiency_threshold) {
    report.findings.push_back(
        {"low-parallel-efficiency", Severity::kWarning,
         "parallel efficiency is " + pct(report.parallel_efficiency) +
             ": the critical path (" + f2(report.total_s) +
             "s) is far above the balanced ideal (" +
             f2(report.map_phase.ideal_s + report.reduce_phase.ideal_s) +
             "s of work per slot)",
         "adding nodes will not help until the task breakdown above is "
         "fixed — look at the straggler/idle-slot findings first"});
  }

  // --------------------------------------------------------------- faults
  report.faults.events = input.fault_events;
  report.faults.lost_attempts = input.lost_attempts;
  report.faults.node_crashes = input.fault_events.size();
  for (const FaultEventSample& event : input.fault_events) {
    if (event.blacklisted) ++report.faults.blacklisted_nodes;
    // Node-down seconds within the job window; a -1 recover means the node
    // stayed down to the end.
    const double down_start = std::min(event.crash_s, report.total_s);
    const double down_end = event.recover_s < 0.0
                                ? report.total_s
                                : std::min(event.recover_s, report.total_s);
    report.faults.downtime_s += std::max(0.0, down_end - down_start);
  }
  for (const LostAttemptSample& lost : input.lost_attempts) {
    if (lost.kind == "lost-output") {
      ++report.faults.lost_map_outputs;
    } else {
      ++report.faults.killed_attempts;
    }
    report.faults.lost_work_s += lost.end_s - lost.start_s;
  }
  if (!report.faults.empty()) {
    const bool severe = report.faults.lost_map_outputs > 0 ||
                        report.faults.blacklisted_nodes > 0;
    report.findings.push_back(
        {"node-failures", severe ? Severity::kCritical : Severity::kWarning,
         std::to_string(report.faults.node_crashes) + " node crash(es): " +
             std::to_string(report.faults.killed_attempts) +
             " attempts killed, " +
             std::to_string(report.faults.lost_map_outputs) +
             " completed map outputs lost, " +
             std::to_string(report.faults.blacklisted_nodes) +
             " node(s) blacklisted; " + f2(report.faults.lost_work_s) +
             "s of attempt time destroyed",
         "the job re-executed the lost work and finished with identical "
         "output — if crashes recur, raise dfs replication, shorten the "
         "heartbeat timeout, or lower max_node_failures to blacklist "
         "earlier"});
  }

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return report;
}

// -------------------------------------------------------------- trace intake

namespace {

double parse_exact(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

/// "node 3 map slot 1" -> (3, "map", 1); returns false for other tracks.
bool parse_track_name(const std::string& name, int* node, std::string* phase,
                      int* slot) {
  char phase_buf[32] = {0};
  if (std::sscanf(name.c_str(), "node %d %31s slot %d", node, phase_buf,
                  slot) != 3) {
    return false;
  }
  *phase = phase_buf;
  return true;
}

}  // namespace

std::vector<JobInput> jobs_from_trace(const common::JsonValue& root) {
  const common::JsonValue& events = root.at("traceEvents");
  if (events.type != common::JsonValue::Type::kArray) {
    throw std::runtime_error("traceEvents is not an array");
  }

  // Pass 1: job names, cluster configs, and track names, keyed by sim pid.
  std::map<std::uint32_t, JobInput> jobs;  // ordered -> trace order
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::pair<int, std::pair<std::string, int>>>
      tracks;  // (pid, tid) -> (node, (phase, slot))
  for (const common::JsonValue& event : events.array) {
    const auto pid = static_cast<std::uint32_t>(event.at("pid").number);
    if (pid <= 1) continue;  // pid 1 is the wall clock
    const std::string& ph = event.at("ph").string;
    const std::string& name = event.at("name").string;
    if (ph == "M" && name == "process_name") {
      std::string job_name = event.at("args").at("name").string;
      if (job_name.rfind("sim: ", 0) == 0) job_name.erase(0, 5);
      jobs[pid].name = std::move(job_name);
    } else if (ph == "M" && name == "thread_name") {
      const auto tid = static_cast<std::uint32_t>(event.at("tid").number);
      int node = 0, slot = 0;
      std::string phase;
      if (parse_track_name(event.at("args").at("name").string, &node, &phase,
                           &slot)) {
        tracks[{pid, tid}] = {node, {phase, slot}};
      }
    } else if (ph == "i" && name == "job_config") {
      const common::JsonValue& args = event.at("args");
      JobInput& job = jobs[pid];
      job.nodes = static_cast<std::size_t>(parse_exact(args.at("nodes").string));
      job.map_slots_per_node = static_cast<std::size_t>(
          parse_exact(args.at("map_slots_per_node").string));
      job.reduce_slots_per_node = static_cast<std::size_t>(
          parse_exact(args.at("reduce_slots_per_node").string));
      job.job_startup_s = parse_exact(args.at("job_startup_s").string);
      if (args.has("shuffle_bytes")) {
        job.shuffle_bytes = parse_exact(args.at("shuffle_bytes").string);
      }
    } else if (ph == "i" && name == "job_bytes") {
      // %.17g strings restore the simulator's byte totals bit-for-bit.
      const common::JsonValue& args = event.at("args");
      ByteSummary& bytes = jobs[pid].bytes;
      bytes.map_input_bytes = parse_exact(args.at("map_input_bytes").string);
      bytes.map_output_bytes = parse_exact(args.at("map_output_bytes").string);
      bytes.reduce_input_bytes =
          parse_exact(args.at("reduce_input_bytes").string);
      bytes.reduce_output_bytes =
          parse_exact(args.at("reduce_output_bytes").string);
      bytes.fetch_bytes = parse_exact(args.at("fetch_bytes").string);
      bytes.fetch_count =
          static_cast<std::size_t>(parse_exact(args.at("fetch_count").string));
      bytes.max_fetch_fan_in = static_cast<std::size_t>(
          parse_exact(args.at("max_fetch_fan_in").string));
    } else if (ph == "i" && name == "node_fault") {
      // Fault instants were appended in crash order, so trace order rebuilds
      // the simulator's exact FaultOutcome lists.
      const common::JsonValue& args = event.at("args");
      FaultEventSample fault;
      fault.node = static_cast<int>(parse_exact(args.at("node").string));
      fault.crash_s = parse_exact(args.at("crash_s").string);
      fault.detect_s = parse_exact(args.at("detect_s").string);
      fault.recover_s = parse_exact(args.at("recover_s").string);
      fault.blacklisted = args.at("blacklisted").string == "true";
      jobs[pid].fault_events.push_back(fault);
    } else if (ph == "i" && name == "job_lineage") {
      // obs v3: the pipeline claim the engine stamped onto this job.
      const common::JsonValue& args = event.at("args");
      JobInput& job = jobs[pid];
      job.pipeline = args.at("pipeline").string;
      job.stage = args.at("stage").string;
      job.round = static_cast<int>(parse_exact(args.at("round").string));
      job.sequence =
          static_cast<std::size_t>(parse_exact(args.at("sequence").string));
    } else if (ph == "i" && name == "lost_attempt") {
      const common::JsonValue& args = event.at("args");
      LostAttemptSample lost;
      lost.phase = args.at("phase").string;
      lost.kind = args.at("kind").string;
      lost.task = static_cast<std::size_t>(parse_exact(args.at("task").string));
      lost.node = static_cast<int>(parse_exact(args.at("node").string));
      lost.slot = static_cast<int>(parse_exact(args.at("slot").string));
      lost.start_s = parse_exact(args.at("start_s").string);
      lost.end_s = parse_exact(args.at("end_s").string);
      jobs[pid].lost_attempts.push_back(std::move(lost));
    }
  }

  // Pass 2: the tasks themselves; %.17g args restore exact doubles.
  for (const common::JsonValue& event : events.array) {
    if (event.at("ph").string != "X" || !event.has("cat") ||
        event.at("cat").string != "sim") {
      continue;
    }
    const auto pid = static_cast<std::uint32_t>(event.at("pid").number);
    const common::JsonValue& args = event.at("args");
    JobInput& job = jobs[pid];
    const std::string& phase = args.at("phase").string;
    if (phase == "shuffle") {
      job.shuffle_s = parse_exact(args.at("end_s").string);
      continue;
    }
    // Per-fetch shuffle events overlap the map phase and are already
    // accounted for by the aggregate shuffle tail; they are not tasks.
    if (phase == "fetch") continue;
    TaskSample task;
    task.index =
        static_cast<std::size_t>(parse_exact(args.at("task").string));
    task.start_s = parse_exact(args.at("start_s").string);
    task.end_s = parse_exact(args.at("end_s").string);
    task.data_local =
        !args.has("data_local") || args.at("data_local").string == "true";
    const auto tid = static_cast<std::uint32_t>(event.at("tid").number);
    const auto track = tracks.find({pid, tid});
    if (track != tracks.end()) {
      task.node = track->second.first;
      task.slot = track->second.second.second;
    }
    (phase == "reduce" ? job.reduce_tasks : job.map_tasks).push_back(task);
  }

  std::vector<JobInput> out;
  out.reserve(jobs.size());
  for (auto& [pid, job] : jobs) {
    if (job.map_tasks.empty() && job.reduce_tasks.empty() &&
        job.shuffle_s == 0.0) {
      continue;  // a pid with no sim events (e.g. a foreign trace)
    }
    // Traces without a job_config instant (or with idle trailing nodes):
    // widen the cluster to cover every node a task actually ran on.
    std::size_t max_node = 0;
    for (const TaskSample& task : job.map_tasks) {
      max_node = std::max(max_node, static_cast<std::size_t>(task.node));
    }
    for (const TaskSample& task : job.reduce_tasks) {
      max_node = std::max(max_node, static_cast<std::size_t>(task.node));
    }
    job.nodes = std::max(job.nodes, max_node + 1);
    job.trace_pid = pid;  // lets mrmc_doctor list/select jobs by sim track
    // Tasks were appended in trace order; restore phase-index order so the
    // analyzer's sums run in the simulator's order.
    auto by_index = [](const TaskSample& a, const TaskSample& b) {
      return a.index < b.index;
    };
    std::sort(job.map_tasks.begin(), job.map_tasks.end(), by_index);
    std::sort(job.reduce_tasks.begin(), job.reduce_tasks.end(), by_index);
    out.push_back(std::move(job));
  }
  return out;
}

common::JsonValue load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return common::parse_json(buffer.str());
}

common::JsonValue trace_root(const Tracer& tracer) {
  std::ostringstream buffer;
  tracer.write_chrome_trace(buffer);
  return common::parse_json(buffer.str());
}

std::vector<JobReport> analyze_trace_file(const std::string& path,
                                          const AnalyzeOptions& options) {
  std::vector<JobReport> reports;
  for (const JobInput& job : jobs_from_trace(load_trace(path))) {
    reports.push_back(analyze(job, options));
  }
  return reports;
}

// ---------------------------------------------------------------- renderers

namespace {

/// 0..1 -> " ▁▂▃▄▅▆▇█" utilization bar glyph.
const char* util_glyph(double fraction) {
  static const char* kGlyphs[] = {" ", "▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  const int idx = std::clamp(static_cast<int>(std::lround(fraction * 8.0)), 0, 8);
  return kGlyphs[idx];
}

void phase_text(std::string& out, const PhaseAnalysis& phase) {
  out += "  " + phase.phase + ":";
  out.append(phase.phase.size() < 6 ? 7 - phase.phase.size() : 1, ' ');
  if (phase.task_count == 0) {
    out += "(no tasks)\n";
    return;
  }
  out += std::to_string(phase.task_count) + " tasks on " +
         std::to_string(phase.busy_slots) + "/" + std::to_string(phase.slots) +
         " slots  makespan " + f2(phase.makespan_s) + "s  work " +
         f2(phase.busy_s) + "s (ideal " + f2(phase.ideal_s) +
         "s)  efficiency " + pct(phase.parallel_efficiency) + "  median " +
         f2(phase.median_task_s) + "s  max " + f2(phase.max_task_s) +
         "s  locality " + pct(phase.data_local_fraction) + "\n";
}

}  // namespace

std::string to_text(const JobReport& report, bool color) {
  std::string out;
  out += "job \"" + report.name + "\" — total " +
         common::format_duration(report.total_s) + " on " +
         std::to_string(report.nodes) + " nodes, parallel efficiency " +
         pct(report.parallel_efficiency) + "\n";
  if (!report.pipeline.empty()) {
    out += "  lineage: pipeline \"" + report.pipeline + "\" stage \"" +
           report.stage + "\" seq " + std::to_string(report.sequence);
    if (report.round >= 0) out += " round " + std::to_string(report.round);
    out += "\n";
  }
  auto leg = [&](const char* name, double seconds) {
    out += std::string(name) + " " + f2(seconds) + "s";
    if (report.total_s > 0.0) out += " (" + pct(seconds / report.total_s) + ")";
  };
  out += "  critical path: ";
  leg("startup", report.startup_s);
  out += " | ";
  leg("map", report.map_phase.makespan_s);
  out += " | ";
  leg("shuffle", report.shuffle_s);
  out += " | ";
  leg("reduce", report.reduce_phase.makespan_s);
  out += "\n";
  phase_text(out, report.map_phase);
  phase_text(out, report.reduce_phase);

  out += "  node utilization: ";
  for (const NodeUtilization& node : report.node_utilization) {
    out += util_glyph(node.utilization);
  }
  out += "  (";
  for (std::size_t i = 0; i < report.node_utilization.size(); ++i) {
    if (i > 0) out += " ";
    out += "n" + std::to_string(report.node_utilization[i].node) + "=" +
           pct(report.node_utilization[i].utilization);
  }
  out += ")\n";

  if (!report.bytes.empty()) {
    out += "  bytes: map in " + f2(report.bytes.map_input_bytes / 1e6) +
           " MB, out " + f2(report.bytes.map_output_bytes / 1e6) +
           " MB | shuffle " + f2(report.bytes.fetch_bytes / 1e6) + " MB in " +
           std::to_string(report.bytes.fetch_count) +
           " fetches (max fan-in " +
           std::to_string(report.bytes.max_fetch_fan_in) +
           ") | reduce in " + f2(report.bytes.reduce_input_bytes / 1e6) +
           " MB, out " + f2(report.bytes.reduce_output_bytes / 1e6) + " MB\n";
  }

  if (!report.faults.empty()) {
    out += "  faults: " + std::to_string(report.faults.node_crashes) +
           " crash(es), " + std::to_string(report.faults.killed_attempts) +
           " killed, " + std::to_string(report.faults.lost_map_outputs) +
           " map outputs lost, " +
           std::to_string(report.faults.blacklisted_nodes) +
           " blacklisted  lost work " + f2(report.faults.lost_work_s) +
           "s  downtime " + f2(report.faults.downtime_s) + "s\n";
    for (const FaultEventSample& event : report.faults.events) {
      out += "    node " + std::to_string(event.node) + " down at " +
             f2(event.crash_s) + "s, detected " + f2(event.detect_s) + "s, ";
      if (event.blacklisted) {
        out += "blacklisted\n";
      } else if (event.recover_s < 0.0) {
        out += "never recovered\n";
      } else {
        out += "recovered " + f2(event.recover_s) + "s\n";
      }
    }
    for (const LostAttemptSample& lost : report.faults.lost_attempts) {
      out += "    " + lost.kind + ": " + lost.phase + " task " +
             std::to_string(lost.task) + " on node " +
             std::to_string(lost.node) + " slot " + std::to_string(lost.slot) +
             " [" + f2(lost.start_s) + "s, " + f2(lost.end_s) + "s]\n";
    }
  }

  append_findings_text(
      out, report.findings,
      "the job is as parallel as its task breakdown allows", color);
  return out;
}

std::string to_text(std::span<const JobReport> reports, bool color) {
  std::string out;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out += "\n";
    out += to_text(reports[i], color);
  }
  return out;
}

namespace {

void phase_json(std::string& out, const PhaseAnalysis& phase) {
  out += "{\"tasks\": " + std::to_string(phase.task_count) +
         ", \"slots\": " + std::to_string(phase.slots) +
         ", \"busy_slots\": " + std::to_string(phase.busy_slots) +
         ", \"makespan_s\": " + trace_double(phase.makespan_s) +
         ", \"busy_s\": " + trace_double(phase.busy_s) +
         ", \"ideal_s\": " + trace_double(phase.ideal_s) +
         ", \"parallel_efficiency\": " + trace_double(phase.parallel_efficiency) +
         ", \"median_task_s\": " + trace_double(phase.median_task_s) +
         ", \"max_task_s\": " + trace_double(phase.max_task_s) +
         ", \"data_local_fraction\": " + trace_double(phase.data_local_fraction) +
         ", \"node_busy_s\": [";
  for (std::size_t i = 0; i < phase.node_busy_s.size(); ++i) {
    if (i > 0) out += ", ";
    out += trace_double(phase.node_busy_s[i]);
  }
  out += "]}";
}

}  // namespace

std::string to_json(const JobReport& report) {
  std::string out = "{\"name\": ";
  append_json_string(out, report.name);
  out += ", \"nodes\": " + std::to_string(report.nodes);
  if (!report.pipeline.empty()) {
    // Lineage only when present, so standalone-job reports stay
    // byte-identical to pre-pipeline builds.
    out += ", \"lineage\": {\"pipeline\": ";
    append_json_string(out, report.pipeline);
    out += ", \"stage\": ";
    append_json_string(out, report.stage);
    out += ", \"round\": " + std::to_string(report.round) +
           ", \"sequence\": " + std::to_string(report.sequence) + "}";
  }
  out += ", \"critical_path\": {\"startup_s\": " + trace_double(report.startup_s) +
         ", \"map_s\": " + trace_double(report.map_phase.makespan_s) +
         ", \"shuffle_s\": " + trace_double(report.shuffle_s) +
         ", \"reduce_s\": " + trace_double(report.reduce_phase.makespan_s) +
         ", \"total_s\": " + trace_double(report.total_s) + "}" +
         ", \"parallel_efficiency\": " + trace_double(report.parallel_efficiency) +
         ", \"overhead_fraction\": " + trace_double(report.overhead_fraction) +
         ", \"shuffle_bytes\": " + trace_double(report.shuffle_bytes) +
         ", \"map\": ";
  phase_json(out, report.map_phase);
  out += ", \"reduce\": ";
  phase_json(out, report.reduce_phase);
  out += ", \"node_utilization\": [";
  for (std::size_t i = 0; i < report.node_utilization.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"node\": " + std::to_string(report.node_utilization[i].node) +
           ", \"busy_s\": " + trace_double(report.node_utilization[i].busy_s) +
           ", \"utilization\": " + trace_double(report.node_utilization[i].utilization) +
           "}";
  }
  out += "]";
  if (!report.bytes.empty()) {
    out += ", \"bytes\": {\"map_input_bytes\": " +
           trace_double(report.bytes.map_input_bytes) +
           ", \"map_output_bytes\": " + trace_double(report.bytes.map_output_bytes) +
           ", \"reduce_input_bytes\": " + trace_double(report.bytes.reduce_input_bytes) +
           ", \"reduce_output_bytes\": " +
           trace_double(report.bytes.reduce_output_bytes) +
           ", \"fetch_bytes\": " + trace_double(report.bytes.fetch_bytes) +
           ", \"fetch_count\": " + std::to_string(report.bytes.fetch_count) +
           ", \"max_fetch_fan_in\": " +
           std::to_string(report.bytes.max_fetch_fan_in) + "}";
  }
  if (!report.faults.empty()) {
    out += ", \"faults\": {\"node_crashes\": " +
           std::to_string(report.faults.node_crashes) +
           ", \"killed_attempts\": " +
           std::to_string(report.faults.killed_attempts) +
           ", \"lost_map_outputs\": " +
           std::to_string(report.faults.lost_map_outputs) +
           ", \"blacklisted_nodes\": " +
           std::to_string(report.faults.blacklisted_nodes) +
           ", \"lost_work_s\": " + trace_double(report.faults.lost_work_s) +
           ", \"downtime_s\": " + trace_double(report.faults.downtime_s) +
           ", \"events\": [";
    for (std::size_t i = 0; i < report.faults.events.size(); ++i) {
      const FaultEventSample& event = report.faults.events[i];
      if (i > 0) out += ", ";
      out += "{\"node\": " + std::to_string(event.node) +
             ", \"crash_s\": " + trace_double(event.crash_s) +
             ", \"detect_s\": " + trace_double(event.detect_s) +
             ", \"recover_s\": " + trace_double(event.recover_s) +
             ", \"blacklisted\": " + (event.blacklisted ? "true" : "false") +
             "}";
    }
    out += "], \"lost_attempts\": [";
    for (std::size_t i = 0; i < report.faults.lost_attempts.size(); ++i) {
      const LostAttemptSample& lost = report.faults.lost_attempts[i];
      if (i > 0) out += ", ";
      out += "{\"phase\": ";
      append_json_string(out, lost.phase);
      out += ", \"kind\": ";
      append_json_string(out, lost.kind);
      out += ", \"task\": " + std::to_string(lost.task) +
             ", \"node\": " + std::to_string(lost.node) +
             ", \"slot\": " + std::to_string(lost.slot) +
             ", \"start_s\": " + trace_double(lost.start_s) +
             ", \"end_s\": " + trace_double(lost.end_s) + "}";
    }
    out += "]}";
  }
  append_findings_json(out, report.findings);
  out += "}";
  return out;
}

std::string to_json(std::span<const JobReport> reports) {
  std::string out = "{\"jobs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "  " + to_json(reports[i]);
  }
  out += "\n]}\n";
  return out;
}

std::string format_for_path(std::string_view path) {
  return path.ends_with(".json") ? "json" : "text";
}

std::string render(std::span<const JobInput> jobs, std::string_view format,
                   bool color) {
  std::vector<JobReport> reports;
  reports.reserve(jobs.size());
  for (const JobInput& job : jobs) reports.push_back(analyze(job));
  const std::span<const JobReport> all(reports);
  return format == "json" ? to_json(all) : to_text(all, color);
}

bool write_report(const std::string& path, std::span<const JobInput> jobs) {
  if (jobs.empty()) return false;
  if (!common::write_file_atomic(path,
                                 render(jobs, format_for_path(path)))) {
    logger().warn("failed writing report output file", {{"path", path}});
    return false;
  }
  return true;
}

}  // namespace mrmc::obs::report
