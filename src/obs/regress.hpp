// Cross-run regression doctor: compare two runs' telemetry artifacts.
//
// Everything the repo emits about a run — Chrome traces (MRMC_TRACE),
// job-doctor report JSON (MRMC_REPORT), BENCH_<name>.json benchmark
// records, and metrics snapshots (MRMC_METRICS) — flattens into one
// normalized shape: MetricRow{source, key, metrics}.  load_rows() sniffs
// the artifact kind from the parsed JSON root, so `mrmc_doctor compare
// baseline.json candidate.json` works on any pairing of like artifacts,
// and `mrmc_doctor regress --baseline-dir bench/baselines` gates CI on a
// committed set of them.
//
// compare() matches rows on (source, key) and judges each shared metric by
// a name-derived direction: `_s` / `_bytes` / `ns_per_*` metrics regress
// when they grow, `speedup` / `efficiency` / `gb_per_s` metrics regress
// when they shrink, anything unrecognized is reported informationally.
// Wall-clock-derived metrics (machine-load noise) get their own, looser
// threshold — set noisy_ratio to 0 to exclude them from the gate entirely.
// Simulated-time metrics (sim_total_s, makespans, shuffle bytes) are
// deterministic, so the default ratio can be tight.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mini_json.hpp"

namespace mrmc::obs::regress {

/// One comparable measured point: `source` names the artifact stream (bench
/// name, "trace", "report", "metrics"), `key` identifies the row within it
/// (e.g. "reads=1000,nodes=4" or a job name), and `metrics` holds every
/// numeric measurement of that point.
struct MetricRow {
  std::string source;
  std::string key;
  std::map<std::string, double> metrics;
};

enum class Direction { kLowerBetter, kHigherBetter, kInformational };

/// Classify a metric name: seconds/bytes/latencies regress upward,
/// speedups/efficiencies/throughputs regress downward, the rest is
/// informational (compared but never gated).
[[nodiscard]] Direction metric_direction(std::string_view name) noexcept;

/// Wall-clock-derived metrics (seconds measured on this machine, per-unit
/// latencies, throughputs, speedups) vary with load; simulated-clock and
/// count metrics do not.
[[nodiscard]] bool metric_is_noisy(std::string_view name) noexcept;

struct Thresholds {
  /// A deterministic metric regresses when it is worse than baseline by
  /// more than this factor (candidate > baseline * ratio for lower-better).
  double ratio = 1.25;
  /// Looser factor for noisy (wall-clock-derived) metrics; 0 demotes them
  /// to informational entries that never gate.
  double noisy_ratio = 2.5;
  /// Values with |x| below this are treated as zero (ratio-free compare).
  double min_value = 1e-12;
  /// Absolute change that is always tolerated, on top of the ratio (useful
  /// for near-zero seconds where any ratio explodes).
  double abs_slack = 0.0;
};

enum class Status {
  kOk,           ///< within threshold
  kImprovement,  ///< better than baseline by more than the threshold
  kRegression,   ///< worse than baseline by more than the threshold
  kMissing,      ///< row/metric present in baseline, absent in candidate
  kNew,          ///< present in candidate only (informational)
  kInfo,         ///< compared but not gated (unknown direction / demoted)
};

[[nodiscard]] const char* status_name(Status status) noexcept;

struct CompareEntry {
  std::string source;
  std::string key;
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  double ratio = 1.0;  ///< candidate / baseline (1 when baseline ~ 0)
  Status status = Status::kOk;
};

struct CompareReport {
  std::vector<CompareEntry> entries;  ///< regressions first
  std::size_t compared = 0;     ///< metrics present on both sides
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t missing = 0;

  [[nodiscard]] bool ok() const noexcept { return regressions == 0; }
};

/// Flatten one parsed artifact into rows.  Sniffs the kind from the root:
/// "traceEvents" (Chrome trace), "jobs" (doctor report JSON), "bench" +
/// "rows" (BenchRecord), "histograms"/"counters" (metrics snapshot).
/// Throws std::runtime_error when the root matches none of them.
[[nodiscard]] std::vector<MetricRow> rows_from_json(
    const common::JsonValue& root, const std::string& source_name);

/// Read + parse + flatten one artifact file.  Throws std::runtime_error on
/// unreadable files, malformed JSON, or an unrecognized artifact.
[[nodiscard]] std::vector<MetricRow> load_rows(const std::string& path);

/// Match rows on (source, key), judge every shared metric, and report
/// regressions first.  Baseline-only metrics count as missing; candidate-
/// only rows/metrics are recorded as kNew but never gate.
[[nodiscard]] CompareReport compare(const std::vector<MetricRow>& baseline,
                                    const std::vector<MetricRow>& candidate,
                                    const Thresholds& thresholds = {});

// -------------------------------------------------------------- renderers

/// Text: regressions/improvements/missing in full, plus a summary line.
[[nodiscard]] std::string to_text(const CompareReport& report,
                                  bool color = false);
/// JSON with %.17g doubles: {"summary": {...}, "entries": [...]}.
[[nodiscard]] std::string to_json(const CompareReport& report);

}  // namespace mrmc::obs::regress
