// mrmc_doctor — post-hoc job doctor and cross-run regression gate.
//
// Single-trace mode reads a trace written by MRMC_TRACE / --trace
// (obs::Tracer), reconstructs every simulated job from the %.17g args, and
// prints its JobReport — the same reconstruction MRMC_REPORT runs on the
// tracer's in-memory events, so both write the same bytes.
//
//   mrmc_doctor <trace.json>                    # ANSI text to stdout
//   mrmc_doctor <trace.json> --format=json      # machine-readable
//   mrmc_doctor <trace.json> -o report.json     # JSON for .json, else text
//   mrmc_doctor <trace.json> --no-color
//   mrmc_doctor <trace.json> --job <pid>        # one job only
//   mrmc_doctor jobs <trace.json>               # one-line-per-job listing
//
// Pipeline mode stitches the lineage-carrying jobs of a trace back into
// end-to-end PipelineReports (the same bytes MRMC_PIPELINE writes —
// asserted by tests/obs/pipeline_test.cpp):
//
//   mrmc_doctor pipeline <trace.json> [--format=...] [-o <path>]
//       [--no-color] [--bench-json=<path>]
//
// Regression mode diffs two runs' telemetry (traces, report JSON, BENCH
// records, metrics snapshots — any like pairing):
//
//   mrmc_doctor compare <baseline.json> <candidate.json>
//       [--threshold=1.25] [--noisy-threshold=2.5] [--abs-slack=0]
//       [--format=text|json] [-o <path>] [--no-color]
//   mrmc_doctor regress --baseline-dir=bench/baselines [--candidate-dir=.]
//       [threshold flags as above] [-o <path>]
//   mrmc_doctor index <dir>     # (re)write <dir>/BENCH_index.json
//
// `regress` walks the BENCH_index.json manifest in the baseline dir and
// compares every listed artifact against its same-named candidate; missing
// candidates warn and skip rather than fail, so a partial bench run still
// gates what it produced.
//
// Exit status: 0 success, 1 unreadable/malformed input or bad usage
// (an unknown --format too), 2 when compare/regress found a regression.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fsio.hpp"
#include "common/mini_json.hpp"
#include "obs/pipeline.hpp"
#include "obs/regress.hpp"
#include "obs/report.hpp"

namespace {

namespace regress = mrmc::obs::regress;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <trace.json> [--format=text|json] [-o <path>]"
      " [--no-color] [--job <pid>]\n"
      "       %s jobs <trace.json>\n"
      "       %s pipeline <trace.json> [--format=text|json] [-o <path>]"
      " [--no-color] [--bench-json=<path>]\n"
      "       %s compare <baseline.json> <candidate.json>"
      " [--threshold=R] [--noisy-threshold=R] [--abs-slack=S]"
      " [--format=text|json] [-o <path>] [--no-color]\n"
      "       %s regress --baseline-dir=<dir> [--candidate-dir=<dir>]"
      " [threshold flags] [-o <path>] [--no-color]\n"
      "       %s index <dir>\n",
      argv0, argv0, argv0, argv0, argv0, argv0);
  return 1;
}

/// Flags shared by every mode; positional args collect in `positional`.
struct Options {
  std::vector<std::string> positional;
  std::string format;  ///< "text" or "json" once main() resolves it
  std::string output_path;
  std::string baseline_dir;
  std::string candidate_dir = ".";
  std::string bench_json_path;
  long job_pid = -1;  ///< --job selector; -1 = all jobs
  regress::Thresholds thresholds;
  bool color = true;
  bool ok = true;
};

/// `text` as a finite number above `min` (at or above it when `or_equal`)
/// into `out`; false for anything else, "abc" and "1.5x" included.
bool read_number(const char* text, double min, bool or_equal, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) return false;
  if (or_equal ? value < min : value <= min) return false;
  out = value;
  return true;
}

Options parse_options(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* name) -> const char* {
      const std::string prefix = std::string(name) + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    if (const char* fmt = value_of("--format")) {
      options.format = fmt;
    } else if (const char* ratio = value_of("--threshold")) {
      options.ok = read_number(ratio, 0.0, false, options.thresholds.ratio);
    } else if (const char* noisy = value_of("--noisy-threshold")) {
      // 0 is meaningful here: it demotes noisy metrics to information.
      options.ok = read_number(noisy, 0.0, true, options.thresholds.noisy_ratio);
    } else if (const char* slack = value_of("--abs-slack")) {
      options.ok = read_number(slack, 0.0, true, options.thresholds.abs_slack);
    } else if (const char* base = value_of("--baseline-dir")) {
      options.baseline_dir = base;
    } else if (const char* cand = value_of("--candidate-dir")) {
      options.candidate_dir = cand;
    } else if (const char* bench = value_of("--bench-json")) {
      options.bench_json_path = bench;
    } else if (const char* pid = value_of("--job")) {
      options.job_pid = std::atol(pid);
    } else if (arg == "--job") {
      if (++i >= argc) {
        options.ok = false;
        return options;
      }
      options.job_pid = std::atol(argv[i]);
    } else if (arg == "-o" || arg == "--output") {
      if (++i >= argc) {
        options.ok = false;
        return options;
      }
      options.output_path = argv[i];
    } else if (arg == "--no-color") {
      options.color = false;
    } else if (!arg.empty() && arg[0] == '-') {
      options.ok = false;
      return options;
    } else {
      options.positional.push_back(arg);
    }
    if (!options.ok) return options;
  }
  return options;
}

/// Explicit --format wins, then the output extension, then text.  Empty,
/// after saying so on stderr, when --format names no known format.
std::string resolve_format(const Options& options) {
  if (options.format.empty()) {
    return mrmc::obs::report::format_for_path(options.output_path);
  }
  if (options.format == "text" || options.format == "json") {
    return options.format;
  }
  std::fprintf(stderr, "mrmc_doctor: unknown format '%s' (text|json)\n",
               options.format.c_str());
  return {};
}

/// Write `rendered` to -o (or stdout).  Returns false on an unwritable path.
bool deliver(const Options& options, const std::string& rendered,
             const char* what) {
  if (options.output_path.empty()) {
    std::cout << rendered;
    return true;
  }
  if (!mrmc::common::write_file_atomic(options.output_path, rendered)) {
    std::fprintf(stderr, "mrmc_doctor: cannot write %s\n",
                 options.output_path.c_str());
    return false;
  }
  std::fprintf(stderr, "mrmc_doctor: wrote %s to %s\n", what,
               options.output_path.c_str());
  return true;
}

/// Render a finished comparison and turn it into an exit status.
int finish_compare(const Options& options,
                   const regress::CompareReport& report) {
  const std::string rendered =
      options.format == "json"
          ? regress::to_json(report)
          : regress::to_text(report,
                             options.color && options.output_path.empty());
  if (!deliver(options, rendered, "comparison")) return 1;
  // An -o run still narrates pass/fail on stderr so CI logs show the verdict.
  if (!options.output_path.empty()) {
    std::fprintf(stderr, "mrmc_doctor: %zu compared, %zu regression(s)\n",
                 report.compared, report.regressions);
  }
  return report.ok() ? 0 : 2;
}

int run_compare(const Options& options) {
  try {
    const auto baseline = regress::load_rows(options.positional[0]);
    const auto candidate = regress::load_rows(options.positional[1]);
    return finish_compare(
        options, regress::compare(baseline, candidate, options.thresholds));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmc_doctor: %s\n", error.what());
    return 1;
  }
}

int run_regress(const Options& options) {
  const std::string manifest_path =
      options.baseline_dir + "/BENCH_index.json";
  std::ifstream manifest_file(manifest_path);
  if (!manifest_file) {
    std::fprintf(stderr, "mrmc_doctor: cannot open manifest %s\n",
                 manifest_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << manifest_file.rdbuf();

  std::vector<regress::MetricRow> baseline;
  std::vector<regress::MetricRow> candidate;
  std::size_t compared_files = 0;
  try {
    const auto manifest = mrmc::common::parse_json(buffer.str());
    for (const auto& entry : manifest.at("benches").array) {
      const std::string file = entry.at("file").string;
      const std::string candidate_path = options.candidate_dir + "/" + file;
      if (!std::ifstream(candidate_path)) {
        std::fprintf(stderr,
                     "mrmc_doctor: candidate %s not found, skipping %s\n",
                     candidate_path.c_str(), file.c_str());
        continue;
      }
      auto base_rows = regress::load_rows(options.baseline_dir + "/" + file);
      auto cand_rows = regress::load_rows(candidate_path);
      baseline.insert(baseline.end(),
                      std::make_move_iterator(base_rows.begin()),
                      std::make_move_iterator(base_rows.end()));
      candidate.insert(candidate.end(),
                       std::make_move_iterator(cand_rows.begin()),
                       std::make_move_iterator(cand_rows.end()));
      ++compared_files;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmc_doctor: %s\n", error.what());
    return 1;
  }
  if (compared_files == 0) {
    std::fprintf(stderr,
                 "mrmc_doctor: no baseline/candidate pairs to compare under "
                 "%s\n",
                 options.baseline_dir.c_str());
    return 1;
  }
  std::fprintf(stderr, "mrmc_doctor: comparing %zu artifact file(s) against %s\n",
               compared_files, options.baseline_dir.c_str());
  return finish_compare(
      options, regress::compare(baseline, candidate, options.thresholds));
}

int run_index(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> benches;  // file, bench
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0 || file == "BENCH_index.json" ||
        entry.path().extension() != ".json") {
      continue;
    }
    std::string bench = file.substr(6, file.size() - 6 - 5);  // strip affixes
    std::ifstream in(entry.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      const auto root = mrmc::common::parse_json(buffer.str());
      if (root.has("bench")) bench = root.at("bench").string;
    } catch (const std::exception&) {
      std::fprintf(stderr, "mrmc_doctor: skipping unparseable %s\n",
                   file.c_str());
      continue;
    }
    benches.emplace_back(file, bench);
  }
  if (ec) {
    std::fprintf(stderr, "mrmc_doctor: cannot list %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(benches.begin(), benches.end());
  std::string out = "{\"schema_version\": 1, \"benches\": [\n";
  for (std::size_t i = 0; i < benches.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "  {\"file\": \"" + benches[i].first + "\", \"bench\": \"" +
           benches[i].second + "\"}";
  }
  out += "\n]}\n";
  const std::string path = dir + "/BENCH_index.json";
  if (!mrmc::common::write_file_atomic(path, out)) {
    std::fprintf(stderr, "mrmc_doctor: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "mrmc_doctor: indexed %zu bench artifact(s) into %s\n",
               benches.size(), path.c_str());
  return 0;
}

/// `jobs <trace>`: one line per simulated job so a user can find the pid to
/// pass to `--job` (or the pipeline a job belongs to) without a full report.
int run_jobs(const Options& options) {
  using namespace mrmc::obs;
  std::vector<report::JobReport> reports;
  const std::string& trace_path = options.positional[0];
  try {
    reports = report::analyze_trace_file(trace_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmc_doctor: %s\n", error.what());
    return 1;
  }
  if (reports.empty()) {
    std::fprintf(stderr,
                 "mrmc_doctor: no simulated jobs in %s (was the trace written "
                 "with MRMC_TRACE by this library?)\n",
                 trace_path.c_str());
    return 1;
  }
  std::string out;
  for (const auto& job : reports) {
    out += "pid " + std::to_string(job.trace_pid) + "  \"" + job.name +
           "\"  sim total " + std::to_string(job.total_s) + "s  maps " +
           std::to_string(job.map_phase.task_count) + "  reduces " +
           std::to_string(job.reduce_phase.task_count);
    if (!job.pipeline.empty()) {
      out += "  pipeline \"" + job.pipeline + "\" stage \"" + job.stage +
             "\" seq " + std::to_string(job.sequence);
      if (job.round >= 0) out += " round " + std::to_string(job.round);
    }
    out += "\n";
  }
  if (!deliver(options, out, "job listing")) return 1;
  return 0;
}

/// `pipeline <trace>`: stitch lineage-carrying jobs into PipelineReports.
int run_pipeline_mode(const Options& options) {
  using namespace mrmc::obs;
  std::vector<pipeline::PipelineReport> reports;
  const std::string& trace_path = options.positional[0];
  try {
    reports = pipeline::analyze_trace_file(trace_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmc_doctor: %s\n", error.what());
    return 1;
  }
  if (reports.empty()) {
    std::fprintf(stderr,
                 "mrmc_doctor: no pipelines in %s — no job carries lineage "
                 "(drive the jobs through core::run_pipeline or a "
                 "pig script, or open an obs::pipeline::PipelineScope)\n",
                 trace_path.c_str());
    return 1;
  }

  if (!options.bench_json_path.empty()) {
    if (!mrmc::common::write_file_atomic(options.bench_json_path,
                                         pipeline::to_bench_json(reports))) {
      std::fprintf(stderr, "mrmc_doctor: cannot write %s\n",
                   options.bench_json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "mrmc_doctor: wrote BENCH records to %s\n",
                 options.bench_json_path.c_str());
  }

  const std::string rendered = pipeline::render(
      reports, options.format, options.color && options.output_path.empty());
  return deliver(options, rendered,
                 (options.format + " pipeline report").c_str())
             ? 0
             : 1;
}

int run_single_trace(const Options& options) {
  using namespace mrmc::obs;
  std::vector<report::JobInput> jobs;
  const std::string& trace_path = options.positional[0];
  try {
    jobs = report::jobs_from_trace(report::load_trace(trace_path));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmc_doctor: %s\n", error.what());
    return 1;
  }
  if (jobs.empty()) {
    std::fprintf(stderr,
                 "mrmc_doctor: no simulated jobs in %s (was the trace written "
                 "with MRMC_TRACE by this library?)\n",
                 trace_path.c_str());
    return 1;
  }
  if (options.job_pid >= 0) {
    const auto pid = static_cast<std::uint32_t>(options.job_pid);
    std::vector<report::JobInput> selected;
    for (auto& job : jobs) {
      if (job.trace_pid == pid) selected.push_back(std::move(job));
    }
    if (selected.empty()) {
      std::string available;
      for (const auto& job : jobs) {
        if (!available.empty()) available += ", ";
        available += std::to_string(job.trace_pid);
      }
      std::fprintf(stderr,
                   "mrmc_doctor: no job with pid %ld in %s (available: %s — "
                   "see `mrmc_doctor jobs`)\n",
                   options.job_pid, trace_path.c_str(), available.c_str());
      return 1;
    }
    jobs = std::move(selected);
  }

  const std::string rendered = report::render(
      jobs, options.format, options.color && options.output_path.empty());
  return deliver(options, rendered, (options.format + " report").c_str())
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "-h" || mode == "--help") {
    usage(argv[0]);
    return 0;
  }
  const bool has_mode = mode == "jobs" || mode == "pipeline" ||
                        mode == "compare" || mode == "regress" ||
                        mode == "index";
  Options options = parse_options(argc, argv, has_mode ? 2 : 1);
  if (!options.ok) return usage(argv[0]);
  options.format = resolve_format(options);
  if (options.format.empty()) return usage(argv[0]);
  const std::size_t args = options.positional.size();
  if (mode == "jobs") return args == 1 ? run_jobs(options) : usage(argv[0]);
  if (mode == "pipeline") {
    return args == 1 ? run_pipeline_mode(options) : usage(argv[0]);
  }
  if (mode == "compare") {
    return args == 2 ? run_compare(options) : usage(argv[0]);
  }
  if (mode == "regress") {
    return args == 0 && !options.baseline_dir.empty() ? run_regress(options)
                                                      : usage(argv[0]);
  }
  if (mode == "index") {
    return args == 1 ? run_index(options.positional[0]) : usage(argv[0]);
  }
  return args == 1 ? run_single_trace(options) : usage(argv[0]);
}
