// Pipeline-scope observability (obs v3): cross-job lineage and the
// end-to-end pipeline doctor.
//
// A driver that chains MapReduce jobs (core::run_pipeline, a pig script, or
// an iterative multi-round algorithm) opens a PipelineScope; each job it
// runs then claims a (pipeline id, stage name, round, sequence) slot.  The
// engine stamps that claim onto the job's wall span, emits it as a
// "job_lineage" instant on the job's sim track, and links consecutive jobs
// with Chrome flow events — so a flushed trace carries enough structure to
// stitch the per-job doctor reports back into one PipelineReport:
//
//   * the end-to-end critical path decomposed per stage (startup / map /
//     shuffle / reduce aggregated in stage order),
//   * inter-job driver gaps (real wall time the driver burned between jobs),
//   * aggregate shuffle bytes per stage, and
//   * stage-level findings ("similarity is 78% of the makespan", ...).
//
// Pipelines are rebuilt from the tracer's events only — the in-memory buffer
// for MRMC_PIPELINE, a flushed trace file for `mrmc_doctor pipeline` — so
// both produce the same bytes.  Lineage events are invisible to the
// single-job reconstruction, so enabling pipelines never perturbs existing
// job reports.
//
// The API is shaped for round-indexed iterative drivers (StageScope takes an
// optional round) so the upcoming hash-to-min connected-components work can
// report per-round telemetry without touching this layer again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mini_json.hpp"
#include "obs/report.hpp"

namespace mrmc::obs::pipeline {

// ------------------------------------------------------- lineage context

/// The lineage a job claims when it runs under an active PipelineScope.
struct Claim {
  std::string pipeline;      ///< unique pipeline id ("<name>#<serial>")
  std::string stage;         ///< stage name ("sketch", "similarity", ...)
  int round = -1;            ///< iteration index for round drivers; -1 = none
  std::size_t sequence = 0;  ///< 0-based position within the pipeline
};

struct FlowLink;

/// RAII pipeline scope, held by the driver for the duration of a multi-job
/// run.  Thread-local and nestable: an inner scope shadows the outer one and
/// restores it on destruction.  The id is the given name plus a process-wide
/// serial, so two runs in one process never collide.
class PipelineScope {
 public:
  explicit PipelineScope(std::string_view name);
  ~PipelineScope();
  PipelineScope(const PipelineScope&) = delete;
  PipelineScope& operator=(const PipelineScope&) = delete;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

 private:
  friend class StageScope;
  friend std::optional<Claim> claim();
  friend struct FlowLink;
  friend FlowLink take_flow_link() noexcept;
  friend void set_flow_link(std::uint32_t pid, double end_ts_us) noexcept;

  std::string id_;
  std::string stage_;
  int round_ = -1;
  std::size_t next_sequence_ = 0;
  // Previous job in this pipeline, for trace flow-event linking.
  std::uint32_t link_pid_ = 0;
  double link_end_ts_us_ = 0.0;
  bool link_valid_ = false;
  PipelineScope* prev_ = nullptr;  ///< shadowed outer scope, restored in dtor
};

/// RAII stage label within the innermost live PipelineScope.  A no-op when
/// no pipeline is active, so library stages (core's run_*_job, pig
/// statements) can declare their stage unconditionally.
class StageScope {
 public:
  explicit StageScope(std::string stage, int round = -1);
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  PipelineScope* scope_ = nullptr;  ///< nullptr = no live pipeline
  std::string saved_stage_;
  int saved_round_ = -1;
};

/// True when the calling thread has a live PipelineScope.
[[nodiscard]] bool active() noexcept;

/// The id of the calling thread's innermost live PipelineScope, or "" when
/// none is active.  Lets the recovery driver label checkpoint events with
/// the pipeline they belong to without claiming a lineage slot.
[[nodiscard]] std::string current_id();

/// Claim the next lineage slot of the innermost scope (bumping its sequence
/// counter) and remember it as last_claim(); with no live scope, clears
/// last_claim() and returns nullopt.  Called once per simulated job by the
/// engine's emit funnel.
std::optional<Claim> claim();

/// The claim made by the most recent claim() call on this thread (nullopt
/// when that call ran outside any scope).  Lets the job runner read the
/// lineage its simulate_job call just claimed without re-threading it.
[[nodiscard]] const std::optional<Claim>& last_claim() noexcept;

/// Where the previous job of the live pipeline ended in the trace, so the
/// next job can draw a flow arrow from it.
struct FlowLink {
  std::uint32_t pid = 0;
  double end_ts_us = 0.0;
  bool valid = false;
};

/// Consume the live scope's pending flow link (invalid when there is no
/// scope or no previous job).
[[nodiscard]] FlowLink take_flow_link() noexcept;

/// Record the trace position where the job that just claimed ended.
void set_flow_link(std::uint32_t pid, double end_ts_us) noexcept;

/// Deterministic flow-event id for a claim: FNV-1a of the pipeline id,
/// xor'd with the sequence, so ids are stable across identical runs.
[[nodiscard]] std::uint64_t flow_event_id(const Claim& claim) noexcept;

// ------------------------------------------------------- pipeline doctor

/// One stage of a pipeline: the job-doctor input plus the real wall window
/// the driver observed around the job ("job_wall" instant; microseconds on
/// the tracer's clock; both 0 when wall timing is unavailable).
struct StageRecord {
  report::JobInput job;
  double wall_start_us = 0.0;
  double wall_end_us = 0.0;

  [[nodiscard]] bool has_wall() const noexcept {
    return wall_end_us > wall_start_us;
  }
};

/// One checkpoint decision of the recovery stage driver (mr::recovery), as
/// emitted in a "stage_checkpoint" instant on the trace — the pipeline
/// doctor's "recovery" section is built from these.
struct RecoveryRecord {
  std::string pipeline;      ///< PipelineScope id the driver ran under
  std::string stage;         ///< stage name ("sketch", "similarity", ...)
  std::size_t sequence = 0;  ///< 0-based driver stage sequence
  std::string outcome;       ///< "hit", "miss+write", or "miss"
  int attempts = 0;          ///< compute attempts (0 for a hit)
  std::string key;           ///< 16-hex-digit checkpoint key
};

/// All stages of one pipeline, sorted by claim sequence, plus the recovery
/// driver's checkpoint decisions in driver order (empty without recovery).
struct PipelineInput {
  std::string id;
  std::vector<StageRecord> stages;
  std::vector<RecoveryRecord> recovery;
};

struct PipelineAnalyzeOptions {
  report::AnalyzeOptions job{};   ///< forwarded to the per-stage job doctor
  /// Include real wall-clock facts (stage wall, inter-job driver gaps).
  /// Disable to compare pipelines across runs or thread counts, where only
  /// the simulated layer is deterministic.
  bool include_wall = true;
  double dominant_share = 0.5;    ///< stage share of sim makespan → finding
  double gap_fraction = 0.25;     ///< driver-gap share of wall → finding
  double startup_fraction = 0.3;  ///< aggregate startup share → finding
  double shuffle_share = 0.5;     ///< stage share of shuffle bytes → finding
};

struct StageReport {
  report::JobReport job;
  double sim_share = 0.0;     ///< job.total_s / pipeline sim_total_s
  double wall_s = 0.0;        ///< real stage duration (0 without wall data)
  double gap_before_s = 0.0;  ///< driver time between previous job and this
  bool has_wall = false;
};

/// The recovery driver's checkpoint decisions for one pipeline, summarized.
/// Empty rows = the pipeline ran without a recovery driver; renderers omit
/// the section entirely then, so pre-recovery reports are byte-identical.
struct RecoverySummary {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t writes = 0;
  std::vector<RecoveryRecord> rows;  ///< stable-sorted by driver sequence
};

/// The stitched end-to-end view.  All aggregate sums are accumulated left to
/// right in stage-sequence order, so a report is a pure function of its
/// stages.
struct PipelineReport {
  std::string id;
  double sim_total_s = 0.0;   ///< sum of stage sim totals
  double startup_s = 0.0;     ///< aggregate per-leg critical path
  double map_s = 0.0;
  double shuffle_s = 0.0;
  double reduce_s = 0.0;
  double shuffle_bytes = 0.0;
  double wall_total_s = 0.0;  ///< first job start → last job end (real)
  double driver_gap_s = 0.0;  ///< sum of inter-job gaps (real)
  bool has_wall = false;
  std::vector<StageReport> stages;
  RecoverySummary recovery;
  std::vector<report::Finding> findings;
};

[[nodiscard]] PipelineReport analyze(const PipelineInput& input,
                                     const PipelineAnalyzeOptions& options = {});

/// Regroup the jobs of a parsed Chrome trace into pipelines: jobs carrying a
/// "job_lineage" instant, grouped by pipeline id in first-appearance order,
/// stage-sorted by sequence, wall windows joined from "job_wall" instants.
/// Jobs without lineage are ignored (they still appear in the job doctor).
[[nodiscard]] std::vector<PipelineInput> pipelines_from_trace(
    const common::JsonValue& root);

/// pipelines_from_trace + analyze over every pipeline of a parsed trace.
[[nodiscard]] std::vector<PipelineReport> analyze_trace(
    const common::JsonValue& root, const PipelineAnalyzeOptions& options = {});

/// `mrmc_doctor pipeline` entry point: analyze_trace over a flushed trace
/// file.  Throws std::runtime_error on I/O or parse failure.
[[nodiscard]] std::vector<PipelineReport> analyze_trace_file(
    const std::string& path, const PipelineAnalyzeOptions& options = {});

[[nodiscard]] std::string to_text(const PipelineReport& report,
                                  bool color = false);
[[nodiscard]] std::string to_text(std::span<const PipelineReport> reports,
                                  bool color = false);
[[nodiscard]] std::string to_json(const PipelineReport& report);
[[nodiscard]] std::string to_json(std::span<const PipelineReport> reports);

/// Schema-v1 BENCH record ("bench": "pipeline") with one row per stage plus
/// a <total> row per pipeline: simulated per-leg seconds (deterministic,
/// tight-gated by `mrmc_doctor regress`) and wall seconds (noisy-gated).
[[nodiscard]] std::string to_bench_json(std::span<const PipelineReport> reports);

/// Render `reports` as "json", or as text for any other format.
[[nodiscard]] std::string render(std::span<const PipelineReport> reports,
                                 std::string_view format, bool color = false);

/// render() to `path` in the format its extension asks for, committed
/// atomically.  False when `reports` is empty or the write fails.
bool write_report(const std::string& path,
                  std::span<const PipelineReport> reports);

/// Write the MRMC_REPORT job report and the MRMC_PIPELINE pipeline report —
/// whichever of the two variables is set — from the global tracer's events.
/// Either variable turns in-memory tracing on (obs::Tracer::global()).
void write_configured_reports();

/// Every artifact the environment asks for: flush the MRMC_TRACE trace,
/// write the MRMC_METRICS snapshot, then write_configured_reports().  The
/// pipeline drivers (core::run_pipeline, pig::run_script) call this at
/// every pipeline boundary, on success and when a stage throws.
void write_configured_artifacts();

}  // namespace mrmc::obs::pipeline
