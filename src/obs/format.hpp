// Text formatters shared by the obs renderers (trace, job report, pipeline
// report, regression report).  Private to the obs library: one copy of each,
// so every artifact quotes, escapes and rounds the same way.  Doubles that
// must round-trip use the public obs::trace_double (%.17g).
#pragma once

#include <cstdio>
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

inline std::string html_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
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

}  // namespace mrmc::obs
