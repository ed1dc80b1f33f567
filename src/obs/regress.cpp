#include "obs/regress.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/format.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace mrmc::obs::regress {

namespace {

bool contains(std::string_view name, std::string_view needle) {
  return name.find(needle) != std::string_view::npos;
}

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

/// Compact human rendering for the text/html reports.
std::string f6(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

/// Collect every numeric leaf of `value` into `metrics`, joining nested
/// object keys with '.'.  Arrays, strings, and booleans are skipped — they
/// identify rows or carry prose, not measurements.
void flatten_numbers(const std::string& prefix, const common::JsonValue& value,
                     std::map<std::string, double>& metrics) {
  if (value.type == common::JsonValue::Type::kNumber) {
    metrics[prefix] = value.number;
    return;
  }
  if (value.type != common::JsonValue::Type::kObject) return;
  for (const auto& [key, child] : value.object) {
    flatten_numbers(prefix.empty() ? key : prefix + "." + key, child, metrics);
  }
}

/// Deduplicate job names across one artifact ("wordcount", "wordcount#2"…)
/// so repeated jobs of the same name compare positionally.
class KeyDedup {
 public:
  std::string unique(const std::string& name) {
    const int n = ++seen_[name];
    return n == 1 ? name : name + "#" + std::to_string(n);
  }

 private:
  std::map<std::string, int> seen_;
};

/// One job report -> one row of its headline numbers.  Shared by the trace
/// and report-JSON loaders via different upstreams, but the trace path
/// re-analyzes the reconstructed inputs, so its values are bit-identical to
/// what the report JSON would have carried (the doctor's invariant).
MetricRow row_from_report(const report::JobReport& job, std::string key) {
  MetricRow row;
  row.source = "job";
  row.key = std::move(key);
  row.metrics["startup_s"] = job.startup_s;
  row.metrics["map_s"] = job.map_phase.makespan_s;
  row.metrics["shuffle_s"] = job.shuffle_s;
  row.metrics["reduce_s"] = job.reduce_phase.makespan_s;
  row.metrics["total_s"] = job.total_s;
  row.metrics["parallel_efficiency"] = job.parallel_efficiency;
  row.metrics["overhead_fraction"] = job.overhead_fraction;
  row.metrics["shuffle_bytes"] = job.shuffle_bytes;
  row.metrics["map_median_task_s"] = job.map_phase.median_task_s;
  row.metrics["map_max_task_s"] = job.map_phase.max_task_s;
  row.metrics["reduce_median_task_s"] = job.reduce_phase.median_task_s;
  row.metrics["reduce_max_task_s"] = job.reduce_phase.max_task_s;
  if (!job.bytes.empty()) {
    row.metrics["bytes.map_input_bytes"] = job.bytes.map_input_bytes;
    row.metrics["bytes.map_output_bytes"] = job.bytes.map_output_bytes;
    row.metrics["bytes.reduce_input_bytes"] = job.bytes.reduce_input_bytes;
    row.metrics["bytes.reduce_output_bytes"] = job.bytes.reduce_output_bytes;
    row.metrics["bytes.fetch_bytes"] = job.bytes.fetch_bytes;
    row.metrics["bytes.fetch_count"] =
        static_cast<double>(job.bytes.fetch_count);
    row.metrics["bytes.max_fetch_fan_in"] =
        static_cast<double>(job.bytes.max_fetch_fan_in);
  }
  if (!job.faults.empty()) {
    row.metrics["faults.lost_work_s"] = job.faults.lost_work_s;
    row.metrics["faults.downtime_s"] = job.faults.downtime_s;
    row.metrics["faults.killed_attempts"] =
        static_cast<double>(job.faults.killed_attempts);
    row.metrics["faults.lost_map_outputs"] =
        static_cast<double>(job.faults.lost_map_outputs);
  }
  return row;
}

std::vector<MetricRow> rows_from_trace(const common::JsonValue& root) {
  std::vector<MetricRow> rows;
  KeyDedup dedup;
  for (const report::JobInput& input : report::jobs_from_trace(root)) {
    rows.push_back(
        row_from_report(report::analyze(input), dedup.unique(input.name)));
  }
  return rows;
}

std::vector<MetricRow> rows_from_report_json(const common::JsonValue& root) {
  const common::JsonValue& jobs = root.at("jobs");
  if (jobs.type != common::JsonValue::Type::kArray) {
    throw std::runtime_error("report \"jobs\" is not an array");
  }
  std::vector<MetricRow> rows;
  KeyDedup dedup;
  for (const common::JsonValue& job : jobs.array) {
    MetricRow row;
    row.source = "job";
    row.key = dedup.unique(job.has("name") ? job.at("name").string : "job");
    flatten_numbers("", job, row.metrics);
    // Flattened names carry the section prefix ("critical_path.total_s");
    // strip it for the headline numbers so report-JSON rows line up with
    // trace-derived rows (row_from_report's names).
    std::map<std::string, double> renamed;
    for (const auto& [name, value] : row.metrics) {
      constexpr std::string_view kPrefix = "critical_path.";
      if (name.rfind(kPrefix, 0) == 0) {
        renamed[name.substr(kPrefix.size())] = value;
      } else if (name.rfind("map.", 0) == 0 || name.rfind("reduce.", 0) == 0) {
        const auto dot = name.find('.');
        const std::string field = name.substr(dot + 1);
        if (field == "median_task_s" || field == "max_task_s") {
          renamed[name.substr(0, dot) + "_" + field] = value;
        } else if (field == "makespan_s") {
          renamed[name.substr(0, dot) + "_s"] = value;
        } else {
          renamed[name] = value;
        }
      } else {
        renamed[name] = value;
      }
    }
    row.metrics = std::move(renamed);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<MetricRow> rows_from_bench(const common::JsonValue& root) {
  const std::string bench = root.at("bench").string;
  const common::JsonValue& declared_keys =
      root.has("keys") ? root.at("keys") : common::JsonValue{};
  const common::JsonValue& bench_rows = root.at("rows");
  if (bench_rows.type != common::JsonValue::Type::kArray) {
    throw std::runtime_error("bench \"rows\" is not an array");
  }
  std::vector<MetricRow> rows;
  KeyDedup dedup;
  for (std::size_t i = 0; i < bench_rows.array.size(); ++i) {
    const common::JsonValue& fields = bench_rows.array[i];
    if (fields.type != common::JsonValue::Type::kObject) continue;
    MetricRow row;
    row.source = bench;
    const auto render = [](const common::JsonValue& v) {
      return v.type == common::JsonValue::Type::kString ? v.string
                                                        : trace_double(v.number);
    };
    std::vector<std::string> key_fields;
    if (declared_keys.type == common::JsonValue::Type::kArray) {
      for (const common::JsonValue& k : declared_keys.array) {
        key_fields.push_back(k.string);
      }
    } else {
      // Schema v0 records declare no keys: every string field identifies
      // the row (numeric fields are all treated as metrics).
      for (const auto& [name, v] : fields.object) {
        if (v.type == common::JsonValue::Type::kString) {
          key_fields.push_back(name);
        }
      }
    }
    std::string key;
    for (const std::string& field : key_fields) {
      if (!fields.has(field)) continue;
      if (!key.empty()) key += ",";
      key += field + "=" + render(fields.at(field));
    }
    if (key.empty()) key = "row" + std::to_string(i);
    row.key = dedup.unique(key);
    for (const auto& [name, v] : fields.object) {
      if (v.type != common::JsonValue::Type::kNumber) continue;
      if (std::find(key_fields.begin(), key_fields.end(), name) !=
          key_fields.end()) {
        continue;
      }
      row.metrics[name] = v.number;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<MetricRow> rows_from_metrics_snapshot(
    const common::JsonValue& root) {
  std::vector<MetricRow> rows;
  if (root.has("counters")) {
    MetricRow row;
    row.source = "metrics";
    row.key = "counters";
    flatten_numbers("", root.at("counters"), row.metrics);
    if (!row.metrics.empty()) rows.push_back(std::move(row));
  }
  if (root.has("gauges")) {
    MetricRow row;
    row.source = "metrics";
    row.key = "gauges";
    flatten_numbers("", root.at("gauges"), row.metrics);
    if (!row.metrics.empty()) rows.push_back(std::move(row));
  }
  if (root.has("histograms")) {
    for (const auto& [name, hist] : root.at("histograms").object) {
      MetricRow row;
      row.source = "metrics";
      row.key = "hist:" + name;
      flatten_numbers("", hist, row.metrics);  // count/sum/p50/p95/p99
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

int status_rank(Status status) {
  switch (status) {
    case Status::kRegression: return 0;
    case Status::kMissing: return 1;
    case Status::kImprovement: return 2;
    case Status::kNew: return 3;
    case Status::kInfo: return 4;
    case Status::kOk: return 5;
  }
  return 5;
}

}  // namespace

Direction metric_direction(std::string_view name) noexcept {
  // Higher-better first: "gb_per_s" would otherwise match the "_s" suffix.
  if (contains(name, "speedup") || contains(name, "efficiency") ||
      contains(name, "gb_per_s") || contains(name, "throughput") ||
      contains(name, "wacc") || contains(name, "accuracy")) {
    return Direction::kHigherBetter;
  }
  if (ends_with(name, "_s") || ends_with(name, "_us") ||
      ends_with(name, "_ms") || ends_with(name, "_bytes") ||
      ends_with(name, "seconds") || contains(name, "ns_per") ||
      contains(name, "us_per") || contains(name, "rmse") ||
      contains(name, "downtime") || contains(name, "lost_work") ||
      contains(name, "slowdown") || contains(name, "retries")) {
    return Direction::kLowerBetter;
  }
  return Direction::kInformational;
}

bool metric_is_noisy(std::string_view name) noexcept {
  // Simulated-clock metrics are deterministic however loaded the machine is.
  if (contains(name, "sim")) return false;
  return contains(name, "wall") || contains(name, "cpu") ||
         contains(name, "seconds") || contains(name, "ns_per") ||
         contains(name, "us_per") || contains(name, "gb_per_s") ||
         contains(name, "speedup") || ends_with(name, "_us");
}

const char* status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kImprovement: return "improvement";
    case Status::kRegression: return "regression";
    case Status::kMissing: return "missing";
    case Status::kNew: return "new";
    case Status::kInfo: return "info";
  }
  return "ok";
}

std::vector<MetricRow> rows_from_json(const common::JsonValue& root,
                                      const std::string& source_name) {
  if (root.type != common::JsonValue::Type::kObject) {
    throw std::runtime_error(source_name + ": artifact root is not an object");
  }
  if (root.has("traceEvents")) return rows_from_trace(root);
  if (root.has("jobs")) return rows_from_report_json(root);
  if (root.has("bench") && root.has("rows")) return rows_from_bench(root);
  if (root.has("counters") || root.has("histograms")) {
    return rows_from_metrics_snapshot(root);
  }
  throw std::runtime_error(
      source_name +
      ": unrecognized artifact (expected a Chrome trace, doctor report "
      "JSON, BENCH record, or metrics snapshot)");
}

std::vector<MetricRow> load_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open artifact: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return rows_from_json(common::parse_json(buffer.str()), path);
}

CompareReport compare(const std::vector<MetricRow>& baseline,
                      const std::vector<MetricRow>& candidate,
                      const Thresholds& thresholds) {
  CompareReport report;
  std::map<std::pair<std::string, std::string>, const MetricRow*> index;
  for (const MetricRow& row : candidate) {
    index[{row.source, row.key}] = &row;
  }

  std::map<std::pair<std::string, std::string>, const MetricRow*> base_index;
  for (const MetricRow& row : baseline) {
    base_index[{row.source, row.key}] = &row;
    const auto it = index.find({row.source, row.key});
    const MetricRow* other = it == index.end() ? nullptr : it->second;
    for (const auto& [metric, base_value] : row.metrics) {
      CompareEntry entry;
      entry.source = row.source;
      entry.key = row.key;
      entry.metric = metric;
      entry.baseline = base_value;
      if (other == nullptr || !other->metrics.count(metric)) {
        entry.status = Status::kMissing;
        ++report.missing;
        report.entries.push_back(std::move(entry));
        continue;
      }
      const double cand_value = other->metrics.at(metric);
      entry.candidate = cand_value;
      ++report.compared;

      const bool base_zero = std::abs(base_value) < thresholds.min_value;
      const bool cand_zero = std::abs(cand_value) < thresholds.min_value;
      entry.ratio = base_zero ? 1.0 : cand_value / base_value;

      Direction direction = metric_direction(metric);
      double ratio_limit = thresholds.ratio;
      if (metric_is_noisy(metric)) {
        if (thresholds.noisy_ratio <= 0.0) {
          direction = Direction::kInformational;
        } else {
          ratio_limit = thresholds.noisy_ratio;
        }
      }
      if (direction == Direction::kInformational) {
        entry.status = Status::kInfo;
      } else if (base_zero && cand_zero) {
        entry.status = Status::kOk;
      } else {
        // Normalize to lower-is-better, then apply ratio + absolute slack.
        const double base_cost =
            direction == Direction::kLowerBetter ? base_value : -base_value;
        const double cand_cost =
            direction == Direction::kLowerBetter ? cand_value : -cand_value;
        const double worse_by = cand_cost - base_cost;
        const bool over_ratio =
            direction == Direction::kLowerBetter
                ? cand_value > base_value * ratio_limit
                : cand_value * ratio_limit < base_value;
        const bool under_ratio =
            direction == Direction::kLowerBetter
                ? cand_value * ratio_limit < base_value
                : cand_value > base_value * ratio_limit;
        if (over_ratio && worse_by > thresholds.abs_slack) {
          entry.status = Status::kRegression;
          ++report.regressions;
        } else if (under_ratio && -worse_by > thresholds.abs_slack) {
          entry.status = Status::kImprovement;
          ++report.improvements;
        } else {
          entry.status = Status::kOk;
        }
      }
      report.entries.push_back(std::move(entry));
    }
  }

  // Candidate-only rows/metrics: recorded, never gated.
  for (const MetricRow& row : candidate) {
    const auto it = base_index.find({row.source, row.key});
    const MetricRow* base = it == base_index.end() ? nullptr : it->second;
    for (const auto& [metric, value] : row.metrics) {
      if (base != nullptr && base->metrics.count(metric)) continue;
      CompareEntry entry;
      entry.source = row.source;
      entry.key = row.key;
      entry.metric = metric;
      entry.candidate = value;
      entry.status = Status::kNew;
      report.entries.push_back(std::move(entry));
    }
  }

  std::stable_sort(report.entries.begin(), report.entries.end(),
                   [](const CompareEntry& a, const CompareEntry& b) {
                     return status_rank(a.status) < status_rank(b.status);
                   });
  return report;
}

// ---------------------------------------------------------------- renderers

std::string to_text(const CompareReport& report, bool color) {
  const char* red = color ? "\x1b[31m" : "";
  const char* green = color ? "\x1b[32m" : "";
  const char* yellow = color ? "\x1b[33m" : "";
  const char* reset = color ? "\x1b[0m" : "";
  std::string out = "regression doctor: " + std::to_string(report.compared) +
                    " metrics compared — " +
                    std::to_string(report.regressions) + " regression(s), " +
                    std::to_string(report.improvements) +
                    " improvement(s), " + std::to_string(report.missing) +
                    " missing\n";
  std::size_t shown_ok = 0;
  std::size_t shown_info = 0;
  std::size_t shown_new = 0;
  for (const CompareEntry& entry : report.entries) {
    switch (entry.status) {
      case Status::kOk: ++shown_ok; continue;
      case Status::kInfo: ++shown_info; continue;
      case Status::kNew: ++shown_new; continue;
      default: break;
    }
    const char* tint = entry.status == Status::kRegression  ? red
                       : entry.status == Status::kImprovement ? green
                                                              : yellow;
    out += std::string("  [") + tint + status_name(entry.status) + reset +
           "] " + entry.source + "/" + entry.key + " " + entry.metric;
    if (entry.status == Status::kMissing) {
      out += ": baseline " + f6(entry.baseline) + ", absent in candidate\n";
    } else {
      out += ": " + f6(entry.baseline) + " -> " + f6(entry.candidate) +
             " (x" + f6(entry.ratio) + ")\n";
    }
  }
  out += "  " + std::to_string(shown_ok) + " ok, " +
         std::to_string(shown_info) + " informational, " +
         std::to_string(shown_new) + " new\n";
  out += report.ok() ? "PASS: no regressions against baseline\n"
                     : "FAIL: candidate regressed against baseline\n";
  return out;
}

std::string to_json(const CompareReport& report) {
  std::string out =
      "{\"summary\": {\"compared\": " + std::to_string(report.compared) +
      ", \"regressions\": " + std::to_string(report.regressions) +
      ", \"improvements\": " + std::to_string(report.improvements) +
      ", \"missing\": " + std::to_string(report.missing) +
      ", \"ok\": " + (report.ok() ? "true" : "false") + "}, \"entries\": [\n";
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const CompareEntry& entry = report.entries[i];
    if (i > 0) out += ",\n";
    out += "  {\"source\": ";
    append_json_string(out, entry.source);
    out += ", \"key\": ";
    append_json_string(out, entry.key);
    out += ", \"metric\": ";
    append_json_string(out, entry.metric);
    out += ", \"baseline\": " + trace_double(entry.baseline) +
           ", \"candidate\": " + trace_double(entry.candidate) +
           ", \"ratio\": " + trace_double(entry.ratio) + ", \"status\": ";
    append_json_string(out, status_name(entry.status));
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string to_html(const CompareReport& report) {
  std::string body = "<h2>summary</h2>\n<p class=\"sum\">" +
                     std::to_string(report.compared) +
                     " metrics compared · <b class=\"regression\">" +
                     std::to_string(report.regressions) +
                     " regression(s)</b> · " +
                     std::to_string(report.improvements) +
                     " improvement(s) · " + std::to_string(report.missing) +
                     " missing — " +
                     (report.ok() ? "<b>PASS</b>" : "<b>FAIL</b>") + "</p>\n";
  body += "<h2>entries</h2>\n<table>\n<tr><th>status</th><th>source</th>"
          "<th>key</th><th>metric</th><th>baseline</th><th>candidate</th>"
          "<th>ratio</th></tr>\n";
  for (const CompareEntry& entry : report.entries) {
    if (entry.status == Status::kOk) continue;  // table stays readable
    body += "<tr class=\"" + std::string(status_name(entry.status)) +
            "\"><td>" + status_name(entry.status) + "</td><td>" +
            html_escape(entry.source) + "</td><td>" + html_escape(entry.key) +
            "</td><td>" + html_escape(entry.metric) + "</td><td>" +
            f6(entry.baseline) + "</td><td>" + f6(entry.candidate) +
            "</td><td>" + f6(entry.ratio) + "</td></tr>\n";
  }
  body += "</table>\n<p class=\"sum\">" +
          std::to_string(static_cast<long>(report.entries.size())) +
          " entries total; rows within thresholds omitted</p>\n";
  return "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
         "<title>mrmc regression doctor</title>\n<style>\n"
         "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;"
         "max-width:920px;color:#202124}\n"
         "table{border-collapse:collapse;width:100%}\n"
         "th,td{border:1px solid #dadce0;padding:.25em .5em;"
         "text-align:left;font:12px monospace}\n"
         ".sum{color:#5f6368}\n"
         "tr.regression,b.regression{color:#c5221f}\n"
         "tr.improvement{color:#137333}\ntr.missing{color:#b06000}\n"
         "tr.new,tr.info{color:#5f6368}\n"
         "</style></head><body>\n<h1>mrmc regression doctor</h1>\n" +
         body + "</body></html>\n";
}

}  // namespace mrmc::obs::regress
