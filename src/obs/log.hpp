// Structured, leveled logging for the whole library.
//
// Records are key=value structured (not printf-formatted): a Logger is named
// after its subsystem ("mr.job", "core.pipeline", "pig") and every call
// carries a short message plus typed fields, so log output is grep- and
// machine-friendly:
//
//   level=info logger=mr.job msg="job finished" job=sketch maps=12 sim_s=41.2
//
// Configuration comes from the MRMC_LOG environment variable, read once at
// first use: a comma-separated list of `level` (the default) and
// `logger-prefix=level` overrides, e.g.
//
//   MRMC_LOG=warn                 # the default when unset: warnings only
//   MRMC_LOG=debug                # everything, everywhere
//   MRMC_LOG=warn,mr=debug        # debug for mr.* only
//
// The sink is pluggable; tests install a CaptureSink to assert on records.
// Level checks on the hot path are one relaxed atomic load when the level is
// below the global minimum.
#pragma once

#include <atomic>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mrmc::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] const char* level_name(LogLevel level) noexcept;

/// Parse "debug", "info", ... (case-sensitive); returns `fallback` on junk.
[[nodiscard]] LogLevel parse_level(std::string_view text,
                                   LogLevel fallback = LogLevel::kInfo) noexcept;

/// One typed key=value pair; numeric values are rendered at construction so
/// records are plain strings by the time they reach a sink.
struct LogField {
  std::string key;
  std::string value;

  LogField(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  LogField(std::string k, const char* v) : key(std::move(k)), value(v) {}
  LogField(std::string k, bool v)
      : key(std::move(k)), value(v ? "true" : "false") {}

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  LogField(std::string k, T v)
      : key(std::move(k)), value(std::to_string(static_cast<long long>(v))) {}

  template <typename T, std::enable_if_t<std::is_floating_point_v<T>, int> = 0>
  LogField(std::string k, T v) : key(std::move(k)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(v));
    value = buf;
  }
};

struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string logger;
  std::string message;
  std::vector<LogField> fields;

  /// "level=info logger=mr.job msg=\"...\" k=v ..." (one line, no newline).
  [[nodiscard]] std::string format() const;

  /// Value of the first field named `key`, or "" when absent.
  [[nodiscard]] std::string_view field(std::string_view key) const noexcept;
};

class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// Thread-safe in-memory sink for tests.
class CaptureSink final : public LogSink {
 public:
  void write(const LogRecord& record) override;

  [[nodiscard]] std::vector<LogRecord> records() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<LogRecord> records_;
};

/// Process-wide logging configuration (levels + sink).
class LogConfig {
 public:
  /// The singleton; first call applies the MRMC_LOG environment variable.
  static LogConfig& global();

  /// Effective level for a logger name: most specific prefix rule wins,
  /// otherwise the default level.
  [[nodiscard]] LogLevel level_for(std::string_view logger) const;

  /// Cheap pre-filter: no rule anywhere enables below this level.
  [[nodiscard]] bool maybe_enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  void set_default_level(LogLevel level);
  void clear_rules();

  /// Apply an MRMC_LOG-style spec ("warn,mr=debug"); replaces all rules.
  void configure(std::string_view spec);

  /// Install a sink (nullptr restores the default stderr sink).
  void set_sink(LogSink* sink);

  void dispatch(const LogRecord& record);

 private:
  LogConfig();

  mutable std::mutex mutex_;
  LogLevel default_level_ = LogLevel::kWarn;
  std::vector<std::pair<std::string, LogLevel>> rules_;  // prefix -> level
  std::atomic<int> min_level_{static_cast<int>(LogLevel::kWarn)};
  LogSink* sink_ = nullptr;  // nullptr = stderr

  void recompute_min_locked();
};

/// Named front end; cheap to construct, share, and copy.
class Logger {
 public:
  explicit Logger(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] bool enabled(LogLevel level) const {
    LogConfig& config = LogConfig::global();
    return config.maybe_enabled(level) && level >= config.level_for(name_);
  }

  void log(LogLevel level, std::string_view message,
           std::initializer_list<LogField> fields = {}) const;

  void trace(std::string_view message,
             std::initializer_list<LogField> fields = {}) const {
    log(LogLevel::kTrace, message, fields);
  }
  void debug(std::string_view message,
             std::initializer_list<LogField> fields = {}) const {
    log(LogLevel::kDebug, message, fields);
  }
  void info(std::string_view message,
            std::initializer_list<LogField> fields = {}) const {
    log(LogLevel::kInfo, message, fields);
  }
  void warn(std::string_view message,
            std::initializer_list<LogField> fields = {}) const {
    log(LogLevel::kWarn, message, fields);
  }
  void error(std::string_view message,
             std::initializer_list<LogField> fields = {}) const {
    log(LogLevel::kError, message, fields);
  }

 private:
  std::string name_;
};

}  // namespace mrmc::obs
