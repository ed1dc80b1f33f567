// Shared helpers for the table/figure harnesses: a tiny flag parser and the
// method runners that execute MrMC-MinH and every comparator on a sample
// with the per-dataset parameter sets used by the paper.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/baseline.hpp"
#include "baselines/cdhit_like.hpp"
#include "baselines/hclust_family.hpp"
#include "baselines/mc_lsh.hpp"
#include "baselines/metacluster_like.hpp"
#include "baselines/uclust_like.hpp"
#include "common/fsio.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "eval/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::bench {

/// Minimal --key=value / --flag parser.
class Flags {
 public:
  // GCC 12 emits a -Wrestrict false positive (PR105329) for the inlined
  // std::string copies below at -O2; the code is plain substring handling.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      // (iterator construction avoids a GCC-12 -Wrestrict false positive)
      const std::string body(arg.begin() + 2, arg.end());
      const auto eq = body.find('=');
      if (eq == std::string::npos) {
        values_[body] = "1";
      } else {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      }
    }
  }
#pragma GCC diagnostic pop

  [[nodiscard]] std::string str(const std::string& key, std::string fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] long num(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stol(it->second);
  }
  [[nodiscard]] double real(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Wire the shared observability flags into the obs globals, before any
/// simulated job runs:
///   --trace=<path>    Chrome trace of every simulated job (as MRMC_TRACE)
///   --report=<path>   job-doctor report; .html/.json/text by extension
///                     (as MRMC_REPORT); bare --report prints text at exit
/// Environment variables already set keep working; --trace overrides
/// MRMC_TRACE's path.
inline void apply_obs_flags(const Flags& flags) {
  auto& tracer = obs::Tracer::global();
  const std::string trace_path = flags.str("trace", tracer.output_path());
  if (!trace_path.empty() && trace_path != "1") {
    tracer.set_output_path(trace_path);
    tracer.set_enabled(true);
  }
  // The report is rendered from the tracer's events at exit.
  if (flags.flag("report")) tracer.set_enabled(true);
}

/// End-of-run counterpart of apply_obs_flags(): flush the trace, honor
/// --metrics (print the snapshot), MRMC_METRICS, MRMC_REPORT and
/// MRMC_PIPELINE, and emit the --report job-doctor report — to the
/// --report=<path> file, or to `out` for a bare --report.
inline void finish_obs(const Flags& flags, std::ostream& out = std::cout) {
  auto& tracer = obs::Tracer::global();
  if (tracer.flush()) {
    out << "\nwrote Chrome trace to " << tracer.output_path()
        << " (open in Perfetto or chrome://tracing)\n";
  }
  if (flags.flag("metrics")) {
    out << "\nObs metrics snapshot\n"
        << obs::Registry::global().snapshot().to_text();
  }
  obs::Registry::write_global_if_configured();
  obs::pipeline::write_configured_reports();
  if (!flags.flag("report")) return;
  const std::vector<obs::report::JobInput> jobs =
      obs::report::jobs_from_trace(obs::report::trace_root(tracer));
  const std::string report_path = flags.str("report", "1");
  if (report_path != "1") {
    if (obs::report::write_report(report_path, jobs)) {
      out << "\nwrote job report to " << report_path << "\n";
    }
  } else if (!jobs.empty()) {
    out << "\nJob doctor\n" << obs::report::render(jobs, "text");
  }
}

/// Machine-readable benchmark record, one row per measured point, written as
/// BENCH_<name>.json so CI can archive a perf trajectory.  Doubles render
/// %.17g (round-trip exact); `raw()` embeds pre-rendered JSON (e.g. a
/// JobReport's findings array).
///
/// Schema v1 (consumed by obs::regress and `mrmc_doctor regress`):
///   {"bench": "<name>", "schema_version": 1, "keys": ["reads", ...],
///    "rows": [{...}, ...]}
/// `keys` names the row fields that identify a measured point (the regress
/// doctor matches baseline and candidate rows on them); every other numeric
/// field is a compared metric.
class BenchRecord {
 public:
  explicit BenchRecord(std::string name, std::vector<std::string> keys = {})
      : name_(std::move(name)), keys_(std::move(keys)) {}

  class Row {
   public:
    Row& num(const std::string& key, double value) {
      return field(key, obs::trace_double(value));
    }
    Row& num(const std::string& key, long value) {
      return field(key, std::to_string(value));
    }
    Row& str(const std::string& key, const std::string& value) {
      std::string quoted = "\"";
      for (const char c : value) {
        if (c == '"' || c == '\\') quoted.push_back('\\');
        quoted.push_back(c);
      }
      quoted.push_back('"');
      return field(key, quoted);
    }
    Row& raw(const std::string& key, const std::string& json) {
      return field(key, json);
    }

   private:
    friend class BenchRecord;
    Row& field(const std::string& key, std::string rendered) {
      if (!body_.empty()) body_ += ", ";
      body_ += "\"" + key + "\": " + rendered;
      return *this;
    }
    std::string body_;
  };

  Row& row() { return rows_.emplace_back(); }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"bench\": \"" + name_ + "\", \"schema_version\": 1";
    if (!keys_.empty()) {
      out += ", \"keys\": [";
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + keys_[i] + "\"";
      }
      out += "]";
    }
    out += ", \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += i > 0 ? ",\n" : "";
      out += "  {" + rows_[i].body_ + "}";
    }
    out += "\n]}\n";
    return out;
  }

  /// Default artifact name: BENCH_<name>.json in the working directory.
  [[nodiscard]] std::string default_path() const {
    return "BENCH_" + name_ + ".json";
  }

  bool write(const std::string& path) const {
    // Temp-then-rename: the regress doctor parses these artifacts, and a
    // run killed mid-write must not leave it a truncated JSON.
    return common::write_file_atomic(path, to_json());
  }

 private:
  std::string name_;
  std::vector<std::string> keys_;
  std::vector<Row> rows_;
};

/// One table row worth of results for a method on a sample.
struct MethodResult {
  std::string method;
  std::vector<int> labels;
  std::size_t clusters_reported = 0;  ///< after the min-size filter
  double wall_s = 0.0;
  double sim_s = -1.0;  ///< simulated cluster time (MrMC variants only)
};

/// Evaluate one labeling: reported cluster count, W.Acc (if truth), W.Sim.
struct Evaluated {
  std::size_t clusters = 0;
  double wacc = -1.0;
  double wsim = 0.0;
};

/// `count_min_size` filters the reported cluster count (0 = same as
/// `min_cluster_size`); W.Acc/W.Sim always use `min_cluster_size`.
inline Evaluated evaluate(const MethodResult& result,
                          const simdata::LabeledReads& sample,
                          std::size_t min_cluster_size,
                          std::size_t wsim_pairs = 16,
                          std::size_t count_min_size = 0) {
  Evaluated out;
  out.clusters = eval::clusters_at_least(
      result.labels, count_min_size == 0 ? min_cluster_size : count_min_size);
  if (sample.has_labels()) {
    out.wacc = eval::weighted_cluster_accuracy(
        result.labels, sample.labels, {.min_cluster_size = min_cluster_size});
  }
  eval::SimilarityOptions options;
  options.min_cluster_size = std::max<std::size_t>(2, min_cluster_size);
  options.max_pairs_per_cluster = wsim_pairs;
  out.wsim = eval::weighted_similarity(result.labels, sample.reads, options);
  return out;
}

/// The paper's scaled min-size reporting rule: Tables III-V only count
/// clusters above a size floor (50 sequences at paper scale).
inline std::size_t scaled_min_cluster_size(std::size_t reads,
                                           std::size_t paper_reads) {
  if (paper_reads == 0) return 2;
  const double scaled = 50.0 * static_cast<double>(reads) /
                        static_cast<double>(paper_reads);
  return std::max<std::size_t>(2, static_cast<std::size_t>(scaled + 0.5));
}

/// Run MrMC-MinH (hierarchical or greedy) through the distributed pipeline.
inline MethodResult run_mrmc(const simdata::LabeledReads& sample,
                             core::Mode mode, int kmer, std::size_t hashes,
                             double theta, std::size_t nodes,
                             std::uint64_t seed, bool canonical = true) {
  core::PipelineParams params;
  params.minhash = {.kmer = kmer, .num_hashes = hashes, .canonical = canonical,
                    .seed = seed};
  params.mode = mode;
  params.theta = theta;
  core::ExecutionOptions exec;
  exec.cluster.nodes = nodes;

  MethodResult result;
  result.method = mode == core::Mode::kHierarchical ? "MrMC-MinH^h" : "MrMC-MinH^g";
  common::Stopwatch watch;
  auto pipeline = core::run_pipeline(sample.reads, params, exec);
  result.wall_s = watch.seconds();
  result.sim_s = pipeline.sim_total_s;
  result.labels = std::move(pipeline.labels);
  return result;
}

/// Every read's sketch, one row per read (on `pool` when non-null).
inline core::kernels::SketchMatrix sketch_reads(
    const core::MinHasher& hasher, std::span<const bio::FastaRecord> reads,
    common::ThreadPool* pool = nullptr) {
  std::vector<std::string_view> seqs;
  seqs.reserve(reads.size());
  for (const auto& read : reads) seqs.emplace_back(read.seq);
  return hasher.sketch_matrix(seqs, pool);
}

inline MethodResult wrap_baseline(std::string name,
                                  baselines::BaselineResult&& result) {
  MethodResult out;
  out.method = std::move(name);
  out.labels = std::move(result.labels);
  out.wall_s = result.wall_s;
  return out;
}

}  // namespace mrmc::bench
