#include "obs/log.hpp"

#include <algorithm>
#include <cstdlib>

namespace mrmc::obs {

namespace {

/// key=value needs quoting when the value has spaces, quotes, or '='.
bool needs_quoting(std::string_view value) {
  if (value.empty()) return true;
  for (const char c : value) {
    if (c == ' ' || c == '"' || c == '=' || c == '\t' || c == '\n') return true;
  }
  return false;
}

void append_value(std::string& out, std::string_view value) {
  if (!needs_quoting(value)) {
    out.append(value);
    return;
  }
  out.push_back('"');
  for (const char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out.append("\\n");
      continue;
    }
    out.push_back(c);
  }
  out.push_back('"');
}

class StderrSink final : public LogSink {
 public:
  void write(const LogRecord& record) override {
    const std::string line = record.format();
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(stderr, "%s\n", line.c_str());
  }

 private:
  std::mutex mutex_;
};

StderrSink& stderr_sink() {
  static StderrSink sink;
  return sink;
}

}  // namespace

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

LogLevel parse_level(std::string_view text, LogLevel fallback) noexcept {
  if (text == "trace") return LogLevel::kTrace;
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn" || text == "warning") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off" || text == "none") return LogLevel::kOff;
  return fallback;
}

std::string LogRecord::format() const {
  std::string out;
  out.reserve(64 + fields.size() * 16);
  out.append("level=").append(level_name(level));
  out.append(" logger=");
  append_value(out, logger);
  out.append(" msg=");
  // Messages are prose: always quote for a stable grammar.
  out.push_back('"');
  for (const char c : message) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  out.push_back('"');
  for (const LogField& f : fields) {
    out.push_back(' ');
    out.append(f.key);
    out.push_back('=');
    append_value(out, f.value);
  }
  return out;
}

std::string_view LogRecord::field(std::string_view key) const noexcept {
  for (const LogField& f : fields) {
    if (f.key == key) return f.value;
  }
  return {};
}

void CaptureSink::write(const LogRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<LogRecord> CaptureSink::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::size_t CaptureSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void CaptureSink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
}

LogConfig::LogConfig() {
  if (const char* spec = std::getenv("MRMC_LOG")) configure(spec);
}

LogConfig& LogConfig::global() {
  static LogConfig config;
  return config;
}

LogLevel LogConfig::level_for(std::string_view logger) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t best_len = 0;
  LogLevel best = default_level_;
  for (const auto& [prefix, level] : rules_) {
    if (prefix.size() >= best_len && logger.substr(0, prefix.size()) == prefix) {
      best_len = prefix.size();
      best = level;
    }
  }
  return best;
}

void LogConfig::set_default_level(LogLevel level) {
  std::lock_guard<std::mutex> lock(mutex_);
  default_level_ = level;
  recompute_min_locked();
}

void LogConfig::clear_rules() {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  recompute_min_locked();
}

void LogConfig::configure(std::string_view spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view item = spec.substr(begin, end - begin);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        default_level_ = parse_level(item, default_level_);
      } else {
        rules_.emplace_back(std::string(item.substr(0, eq)),
                            parse_level(item.substr(eq + 1)));
      }
    }
    begin = end + 1;
  }
  recompute_min_locked();
}

void LogConfig::set_sink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink;
}

void LogConfig::dispatch(const LogRecord& record) {
  LogSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sink = sink_;
  }
  if (sink == nullptr) sink = &stderr_sink();
  sink->write(record);
}

void LogConfig::recompute_min_locked() {
  int min = static_cast<int>(default_level_);
  for (const auto& [prefix, level] : rules_) {
    min = std::min(min, static_cast<int>(level));
  }
  min_level_.store(min, std::memory_order_relaxed);
}

void Logger::log(LogLevel level, std::string_view message,
                 std::initializer_list<LogField> fields) const {
  if (!enabled(level)) return;
  LogRecord record;
  record.level = level;
  record.logger = name_;
  record.message = std::string(message);
  record.fields.assign(fields.begin(), fields.end());
  LogConfig::global().dispatch(record);
}

}  // namespace mrmc::obs
