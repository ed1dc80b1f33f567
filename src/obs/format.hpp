// Text formatters shared by the obs renderers (trace, job report, pipeline
// report, regression report).  Private to the obs library: one copy of each,
// so every artifact quotes, escapes and rounds the same way.  Doubles that
// must round-trip use the public obs::trace_double (%.17g).
#pragma once

#include <cstddef>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

#include "obs/report.hpp"

namespace mrmc::obs {

/// %.2f — seconds and ratios in human-facing tables.
inline std::string f2(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.2f", value);
  return buf;
}

/// A 0..1 fraction as "12.3%".
inline std::string pct(double fraction) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

/// Append `text` as a quoted JSON string.
inline void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

inline constexpr const char* kReset = "\x1b[0m";

/// ANSI colour of a finding's severity in the text reports.
inline const char* severity_color(report::Severity severity) {
  switch (severity) {
    case report::Severity::kInfo: return "\x1b[36m";      // cyan
    case report::Severity::kWarning: return "\x1b[33m";   // yellow
    case report::Severity::kCritical: return "\x1b[31m";  // red
  }
  return "";
}

/// The findings block of the job and pipeline text reports.  `none` ends
/// the one line printed when there are no findings.
inline void append_findings_text(std::string& out,
                                 std::span<const report::Finding> findings,
                                 std::string_view none, bool color) {
  if (findings.empty()) {
    out += "  findings: none — ";
    out += none;
    out += "\n";
    return;
  }
  out += "  findings:\n";
  for (const report::Finding& finding : findings) {
    out += "    [";
    if (color) out += severity_color(finding.severity);
    out += report::severity_name(finding.severity);
    if (color) out += kReset;
    out += "] " + finding.id + ": " + finding.message + "\n";
    out += "        -> " + finding.recommendation + "\n";
  }
}

/// The `"findings": [...]` member of the job and pipeline JSON reports.
inline void append_findings_json(std::string& out,
                                 std::span<const report::Finding> findings) {
  out += ", \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"id\": ";
    append_json_string(out, findings[i].id);
    out += ", \"severity\": ";
    append_json_string(out, report::severity_name(findings[i].severity));
    out += ", \"message\": ";
    append_json_string(out, findings[i].message);
    out += ", \"recommendation\": ";
    append_json_string(out, findings[i].recommendation);
    out += "}";
  }
  out += "]";
}

}  // namespace mrmc::obs
