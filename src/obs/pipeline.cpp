#include "obs/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/fsio.hpp"
#include "common/timer.hpp"
#include "obs/format.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mrmc::obs::pipeline {

// ------------------------------------------------------- lineage context

namespace {

// The innermost live scope of this thread, plus the claim the most recent
// claim() call produced (so the job runner can read the lineage its
// simulate_job call just stamped without re-threading it).
thread_local PipelineScope* tl_scope = nullptr;
thread_local std::optional<Claim> tl_last_claim;

// Process-wide serial so two pipelines in one process never share an id.
std::atomic<std::uint64_t>& pipeline_serial() {
  static std::atomic<std::uint64_t> serial{0};
  return serial;
}

}  // namespace

PipelineScope::PipelineScope(std::string_view name)
    : id_(std::string(name) + "#" +
          std::to_string(pipeline_serial().fetch_add(1) + 1)),
      prev_(tl_scope) {
  tl_scope = this;
}

PipelineScope::~PipelineScope() { tl_scope = prev_; }

StageScope::StageScope(std::string stage, int round) : scope_(tl_scope) {
  if (scope_ == nullptr) return;
  saved_stage_ = std::move(scope_->stage_);
  saved_round_ = scope_->round_;
  scope_->stage_ = std::move(stage);
  scope_->round_ = round;
}

StageScope::~StageScope() {
  if (scope_ == nullptr) return;
  scope_->stage_ = std::move(saved_stage_);
  scope_->round_ = saved_round_;
}

bool active() noexcept { return tl_scope != nullptr; }

std::string current_id() {
  return tl_scope == nullptr ? std::string() : tl_scope->id();
}

std::optional<Claim> claim() {
  if (tl_scope == nullptr) {
    tl_last_claim.reset();
    return std::nullopt;
  }
  Claim claimed;
  claimed.pipeline = tl_scope->id_;
  claimed.stage = tl_scope->stage_;
  claimed.round = tl_scope->round_;
  claimed.sequence = tl_scope->next_sequence_++;
  tl_last_claim = claimed;
  return claimed;
}

const std::optional<Claim>& last_claim() noexcept { return tl_last_claim; }

FlowLink take_flow_link() noexcept {
  if (tl_scope == nullptr || !tl_scope->link_valid_) return {};
  FlowLink link;
  link.pid = tl_scope->link_pid_;
  link.end_ts_us = tl_scope->link_end_ts_us_;
  link.valid = true;
  tl_scope->link_valid_ = false;
  return link;
}

void set_flow_link(std::uint32_t pid, double end_ts_us) noexcept {
  if (tl_scope == nullptr) return;
  tl_scope->link_pid_ = pid;
  tl_scope->link_end_ts_us_ = end_ts_us;
  tl_scope->link_valid_ = true;
}

std::uint64_t flow_event_id(const Claim& claim) noexcept {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (const char c : claim.pipeline) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash ^ static_cast<std::uint64_t>(claim.sequence);
}

// ------------------------------------------------------- pipeline doctor

PipelineReport analyze(const PipelineInput& input,
                       const PipelineAnalyzeOptions& options) {
  PipelineReport out;
  out.id = input.id;
  out.stages.reserve(input.stages.size());

  // Per-stage job reports plus the aggregate critical path, every sum
  // accumulated left to right in stage-sequence order.  Sort here rather
  // than trusting the caller: hand-built inputs may arrive in arrival order.
  std::vector<const StageRecord*> ordered;
  ordered.reserve(input.stages.size());
  for (const StageRecord& record : input.stages) ordered.push_back(&record);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const StageRecord* a, const StageRecord* b) {
                     return a->job.sequence < b->job.sequence;
                   });

  bool all_wall = options.include_wall && !input.stages.empty();
  for (const StageRecord* record_ptr : ordered) {
    const StageRecord& record = *record_ptr;
    StageReport stage;
    stage.job = report::analyze(record.job, options.job);
    out.sim_total_s += stage.job.total_s;
    out.startup_s += stage.job.startup_s;
    out.map_s += stage.job.map_phase.makespan_s;
    out.shuffle_s += stage.job.shuffle_s;
    out.reduce_s += stage.job.reduce_phase.makespan_s;
    out.shuffle_bytes += stage.job.shuffle_bytes;
    all_wall = all_wall && record.has_wall();
    out.stages.push_back(std::move(stage));
  }
  for (StageReport& stage : out.stages) {
    stage.sim_share =
        out.sim_total_s > 0.0 ? stage.job.total_s / out.sim_total_s : 0.0;
  }

  // Real wall-clock layer: per-stage duration, inter-job driver gaps, and
  // the end-to-end window.  Only meaningful when every stage carried a wall
  // window; callers comparing across runs disable it (include_wall=false).
  out.has_wall = all_wall;
  if (out.has_wall) {
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      const StageRecord& record = *ordered[i];
      StageReport& stage = out.stages[i];
      stage.has_wall = true;
      stage.wall_s = (record.wall_end_us - record.wall_start_us) * 1e-6;
      if (i > 0) {
        stage.gap_before_s = std::max(
            0.0, (record.wall_start_us - ordered[i - 1]->wall_end_us) * 1e-6);
      }
      out.driver_gap_s += stage.gap_before_s;
    }
    out.wall_total_s =
        (ordered.back()->wall_end_us - ordered.front()->wall_start_us) * 1e-6;
  }

  // ------------------------------------------------------------- recovery
  // Checkpoint decisions of the recovery stage driver, sorted by driver
  // sequence (the trace delivers them in that order already; sorting here
  // keeps hand-built inputs honest too).
  out.recovery.rows = input.recovery;
  std::stable_sort(out.recovery.rows.begin(), out.recovery.rows.end(),
                   [](const RecoveryRecord& a, const RecoveryRecord& b) {
                     return a.sequence < b.sequence;
                   });
  for (const RecoveryRecord& row : out.recovery.rows) {
    if (row.outcome == "hit") {
      ++out.recovery.hits;
    } else {
      ++out.recovery.misses;
      if (row.outcome == "miss+write") ++out.recovery.writes;
    }
  }

  // ------------------------------------------------------------- findings
  if (out.recovery.hits > 0) {
    out.findings.push_back(
        {"checkpoint-resume", report::Severity::kInfo,
         std::to_string(out.recovery.hits) + " of " +
             std::to_string(out.recovery.rows.size()) +
             " driver stage(s) were served from checkpoint — this is a "
             "resumed run",
         "sim/wall totals cover only the stages recomputed in this process; "
         "compare against an uninterrupted run before reading them as "
         "end-to-end cost"});
  }
  for (const StageReport& stage : out.stages) {
    if (out.stages.size() > 1 && stage.sim_share > options.dominant_share) {
      out.findings.push_back(
          {"stage-dominant", report::Severity::kWarning,
           "stage \"" + stage.job.stage + "\" is " + pct(stage.sim_share) +
               " of the simulated pipeline makespan (" +
               f2(stage.job.total_s) + "s of " + f2(out.sim_total_s) + "s)",
           "scale or restructure this stage first — the other stages are "
           "not the bottleneck"});
    }
  }
  for (const StageReport& stage : out.stages) {
    if (out.stages.size() > 1 && out.shuffle_bytes > 0.0 &&
        stage.job.shuffle_bytes / out.shuffle_bytes > options.shuffle_share) {
      out.findings.push_back(
          {"shuffle-concentration", report::Severity::kInfo,
           "stage \"" + stage.job.stage + "\" moves " +
               pct(stage.job.shuffle_bytes / out.shuffle_bytes) +
               " of the pipeline's shuffle bytes (" +
               f2(stage.job.shuffle_bytes / 1e6) + " MB of " +
               f2(out.shuffle_bytes / 1e6) + " MB)",
           "compress or combine this stage's map output first — the other "
           "exchanges are noise in comparison"});
    }
  }
  if (out.sim_total_s > 0.0 &&
      out.startup_s / out.sim_total_s > options.startup_fraction) {
    out.findings.push_back(
        {"startup-bound-pipeline", report::Severity::kWarning,
         "fixed job startup is " + pct(out.startup_s / out.sim_total_s) +
             " of the simulated pipeline (" + f2(out.startup_s) + "s over " +
             std::to_string(out.stages.size()) + " jobs)",
         "chain stages into fewer jobs or batch more input per run — the "
         "cluster mostly waits for job launches"});
  }
  if (out.has_wall && out.wall_total_s > 0.0 &&
      out.driver_gap_s / out.wall_total_s > options.gap_fraction) {
    out.findings.push_back(
        {"driver-gap", report::Severity::kWarning,
         "the driver spends " + pct(out.driver_gap_s / out.wall_total_s) +
             " of the pipeline wall time between jobs (" +
             f2(out.driver_gap_s) + "s across " +
             std::to_string(out.stages.size() - 1) + " gap(s))",
         "overlap stage setup with the previous job or keep intermediate "
         "results in memory between stages"});
  }
  std::stable_sort(out.findings.begin(), out.findings.end(),
                   [](const report::Finding& a, const report::Finding& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return out;
}

// ------------------------------------------------------------ trace intake

std::vector<PipelineInput> pipelines_from_trace(const common::JsonValue& root) {
  // Pipelines in first-appearance order of their ids.
  std::vector<PipelineInput> pipelines;
  const auto pipeline_for = [&](const std::string& id) -> PipelineInput& {
    for (PipelineInput& input : pipelines) {
      if (input.id == id) return input;
    }
    pipelines.emplace_back().id = id;
    return pipelines.back();
  };

  // The job doctor already reconstructs every sim job (lineage included);
  // regroup the ones that carry a pipeline id, then join the "job_wall"
  // instants the job runner emitted on the real-clock track.
  for (report::JobInput& job : report::jobs_from_trace(root)) {
    if (job.pipeline.empty()) continue;  // standalone job
    pipeline_for(job.pipeline).stages.push_back({std::move(job)});
  }
  for (PipelineInput& input : pipelines) {
    std::stable_sort(input.stages.begin(), input.stages.end(),
                     [](const StageRecord& a, const StageRecord& b) {
                       return a.job.sequence < b.job.sequence;
                     });
  }

  const common::JsonValue& events = root.at("traceEvents");
  for (const common::JsonValue& event : events.array) {
    if (event.at("ph").string != "i" ||
        event.at("name").string != "job_wall") {
      continue;
    }
    const common::JsonValue& args = event.at("args");
    const std::string& pipeline_id = args.at("pipeline").string;
    const auto sequence = static_cast<std::size_t>(
        std::strtod(args.at("sequence").string.c_str(), nullptr));
    for (PipelineInput& input : pipelines) {
      if (input.id != pipeline_id) continue;
      for (StageRecord& stage : input.stages) {
        if (stage.job.sequence != sequence) continue;
        // %.17g strings restore the tracer's microsecond doubles exactly.
        stage.wall_start_us =
            std::strtod(args.at("start_us").string.c_str(), nullptr);
        stage.wall_end_us =
            std::strtod(args.at("end_us").string.c_str(), nullptr);
      }
    }
  }

  // Recovery-driver checkpoint decisions, emitted one "stage_checkpoint"
  // instant per driver stage, in driver order.  A fully-resumed pipeline
  // (every stage a hit) has no jobs in the trace — it is appended here,
  // recovery-only, after the pipelines that ran jobs.
  for (const common::JsonValue& event : events.array) {
    if (event.at("ph").string != "i" ||
        event.at("name").string != "stage_checkpoint") {
      continue;
    }
    const common::JsonValue& args = event.at("args");
    if (args.at("pipeline").string.empty()) continue;
    RecoveryRecord record;
    record.pipeline = args.at("pipeline").string;
    record.stage = args.at("stage").string;
    record.sequence = static_cast<std::size_t>(
        std::strtod(args.at("sequence").string.c_str(), nullptr));
    record.outcome = args.at("outcome").string;
    record.key = args.at("key").string;
    pipeline_for(record.pipeline).recovery.push_back(std::move(record));
  }
  return pipelines;
}

std::vector<PipelineReport> analyze_trace(const common::JsonValue& root,
                                          const PipelineAnalyzeOptions& options) {
  std::vector<PipelineReport> reports;
  for (const PipelineInput& input : pipelines_from_trace(root)) {
    reports.push_back(analyze(input, options));
  }
  return reports;
}

std::vector<PipelineReport> analyze_trace_file(
    const std::string& path, const PipelineAnalyzeOptions& options) {
  return analyze_trace(report::load_trace(path), options);
}

// -------------------------------------------------------------- renderers

std::string to_text(const PipelineReport& report, bool color) {
  std::string out;
  out += "pipeline \"" + report.id + "\" — " +
         std::to_string(report.stages.size()) + " stage(s), sim total " +
         common::format_duration(report.sim_total_s) + "\n";
  auto leg = [&](const char* name, double seconds) {
    out += std::string(name) + " " + f2(seconds) + "s";
    if (report.sim_total_s > 0.0) {
      out += " (" + pct(seconds / report.sim_total_s) + ")";
    }
  };
  out += "  critical path: ";
  leg("startup", report.startup_s);
  out += " | ";
  leg("map", report.map_s);
  out += " | ";
  leg("shuffle", report.shuffle_s);
  out += " | ";
  leg("reduce", report.reduce_s);
  out += "\n";
  if (report.shuffle_bytes > 0.0) {
    out += "  shuffle bytes: " + f2(report.shuffle_bytes / 1e6) + " MB\n";
  }
  if (report.has_wall) {
    out += "  wall: " + f2(report.wall_total_s) + "s end to end, driver gaps " +
           f2(report.driver_gap_s) + "s";
    if (report.wall_total_s > 0.0) {
      out += " (" + pct(report.driver_gap_s / report.wall_total_s) + ")";
    }
    out += "\n";
  }
  out += "  stages:\n";
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    const StageReport& stage = report.stages[i];
    out += "    #" + std::to_string(stage.job.sequence) + " \"" +
           stage.job.stage + "\"";
    if (stage.job.round >= 0) {
      out += " round " + std::to_string(stage.job.round);
    }
    out += "  sim " + f2(stage.job.total_s) + "s (" + pct(stage.sim_share) +
           ")";
    if (stage.job.shuffle_bytes > 0.0) {
      out += "  shuffle " + f2(stage.job.shuffle_bytes / 1e6) + " MB";
    }
    if (stage.has_wall) {
      out += "  wall " + f2(stage.wall_s) + "s";
      if (i > 0) out += " (gap " + f2(stage.gap_before_s) + "s)";
    }
    out += "\n";
  }
  if (!report.recovery.rows.empty()) {
    out += "  recovery: " + std::to_string(report.recovery.hits) +
           " hit(s), " + std::to_string(report.recovery.misses) +
           " miss(es), " + std::to_string(report.recovery.writes) +
           " write(s)\n";
    for (const RecoveryRecord& row : report.recovery.rows) {
      out += "    #" + std::to_string(row.sequence) + " \"" + row.stage +
             "\" " + row.outcome + "  key " + row.key + "\n";
    }
  }
  append_findings_text(out, report.findings,
                       "no stage dominates and the driver keeps up", color);
  return out;
}

std::string to_text(std::span<const PipelineReport> reports, bool color) {
  std::string out;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out += "\n";
    out += to_text(reports[i], color);
  }
  return out;
}

std::string to_json(const PipelineReport& report) {
  std::string out = "{\"id\": ";
  append_json_string(out, report.id);
  out += ", \"sim_total_s\": " + trace_double(report.sim_total_s) +
         ", \"critical_path\": {\"startup_s\": " + trace_double(report.startup_s) +
         ", \"map_s\": " + trace_double(report.map_s) +
         ", \"shuffle_s\": " + trace_double(report.shuffle_s) +
         ", \"reduce_s\": " + trace_double(report.reduce_s) + "}" +
         ", \"shuffle_bytes\": " + trace_double(report.shuffle_bytes);
  if (report.has_wall) {
    out += ", \"wall\": {\"total_s\": " + trace_double(report.wall_total_s) +
           ", \"driver_gap_s\": " + trace_double(report.driver_gap_s) + "}";
  }
  out += ", \"stages\": [";
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    const StageReport& stage = report.stages[i];
    if (i > 0) out += ", ";
    out += "{\"stage\": ";
    append_json_string(out, stage.job.stage);
    out += ", \"round\": " + std::to_string(stage.job.round) +
           ", \"sequence\": " + std::to_string(stage.job.sequence) +
           ", \"sim_share\": " + trace_double(stage.sim_share);
    if (stage.has_wall) {
      out += ", \"wall_s\": " + trace_double(stage.wall_s) +
             ", \"gap_before_s\": " + trace_double(stage.gap_before_s);
    }
    // The full per-stage job report nests verbatim, so every single-job
    // byte-identity guarantee carries into the pipeline view.
    out += ", \"job\": " + report::to_json(stage.job) + "}";
  }
  out += "]";
  // Key absent entirely without a recovery driver, so pre-recovery golden
  // outputs stay byte-identical.
  if (!report.recovery.rows.empty()) {
    out += ", \"recovery\": {\"hits\": " +
           std::to_string(report.recovery.hits) +
           ", \"misses\": " + std::to_string(report.recovery.misses) +
           ", \"writes\": " + std::to_string(report.recovery.writes) +
           ", \"stages\": [";
    for (std::size_t i = 0; i < report.recovery.rows.size(); ++i) {
      const RecoveryRecord& row = report.recovery.rows[i];
      if (i > 0) out += ", ";
      out += "{\"stage\": ";
      append_json_string(out, row.stage);
      out += ", \"sequence\": " + std::to_string(row.sequence) +
             ", \"outcome\": ";
      append_json_string(out, row.outcome);
      out += ", \"key\": ";
      append_json_string(out, row.key);
      out += "}";
    }
    out += "]}";
  }
  append_findings_json(out, report.findings);
  out += "}";
  return out;
}

std::string to_json(std::span<const PipelineReport> reports) {
  std::string out = "{\"pipelines\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "  " + to_json(reports[i]);
  }
  out += "\n]}\n";
  return out;
}

std::string to_bench_json(std::span<const PipelineReport> reports) {
  // Schema-v1 BENCH record for the regression doctor.  Simulated per-leg
  // seconds contain "sim" so obs::regress tight-gates them; wall seconds
  // contain "wall" so shared-runner noise gets the open noisy threshold.
  std::string out =
      "{\"bench\": \"pipeline\", \"schema_version\": 1, "
      "\"keys\": [\"pipeline\", \"stage\"], \"rows\": [\n";
  bool first = true;
  auto row = [&](const std::string& pipeline, const std::string& stage,
                 double sim_total, double sim_map, double sim_shuffle,
                 double sim_reduce, double shuffle_bytes, double wall_s,
                 bool has_wall) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"pipeline\": ";
    append_json_string(out, pipeline);
    out += ", \"stage\": ";
    append_json_string(out, stage);
    out += ", \"sim_total_s\": " + trace_double(sim_total) +
           ", \"sim_map_s\": " + trace_double(sim_map) +
           ", \"sim_shuffle_s\": " + trace_double(sim_shuffle) +
           ", \"sim_reduce_s\": " + trace_double(sim_reduce) +
           ", \"shuffle_bytes\": " + trace_double(shuffle_bytes);
    if (has_wall) out += ", \"wall_s\": " + trace_double(wall_s);
    out += "}";
  };
  for (const PipelineReport& report : reports) {
    // Strip the process-local "#serial" so baseline and candidate rows from
    // different runs key to the same (pipeline, stage) pair.
    std::string key = report.id.substr(0, report.id.rfind('#'));
    for (const StageReport& stage : report.stages) {
      row(key, stage.job.stage, stage.job.total_s,
          stage.job.map_phase.makespan_s, stage.job.shuffle_s,
          stage.job.reduce_phase.makespan_s, stage.job.shuffle_bytes,
          stage.wall_s, stage.has_wall);
    }
    row(key, "<total>", report.sim_total_s, report.map_s, report.shuffle_s,
        report.reduce_s, report.shuffle_bytes, report.wall_total_s,
        report.has_wall);
  }
  out += "\n]}\n";
  return out;
}

std::string render(std::span<const PipelineReport> reports,
                   std::string_view format, bool color) {
  return format == "json" ? to_json(reports) : to_text(reports, color);
}

bool write_report(const std::string& path,
                  std::span<const PipelineReport> reports) {
  return !reports.empty() &&
         common::write_file_atomic(
             path, render(reports, report::format_for_path(path)));
}

void write_configured_reports() {
  const char* job_path = std::getenv("MRMC_REPORT");
  const char* pipeline_path = std::getenv("MRMC_PIPELINE");
  const bool jobs = job_path != nullptr && *job_path != '\0';
  const bool pipelines = pipeline_path != nullptr && *pipeline_path != '\0';
  if (!jobs && !pipelines) return;
  const common::JsonValue root = report::trace_root(Tracer::global());
  if (jobs) (void)report::write_report(job_path, report::jobs_from_trace(root));
  if (pipelines) (void)write_report(pipeline_path, analyze_trace(root));
}

void write_configured_artifacts() {
  Tracer::global().flush();
  Registry::write_global_if_configured();
  write_configured_reports();
}

}  // namespace mrmc::obs::pipeline
