// Dual-clock span/event tracer with Chrome trace-event JSON export.
//
// The engine lives in two time domains at once: tasks *execute* for real on
// this process's thread pool (wall clock) while their *placement and cost*
// are simulated on the model cluster (sim clock).  The tracer records both,
// on separate tracks of one Chrome trace-event file, viewable in Perfetto or
// chrome://tracing:
//
//   * pid 1 ("wall clock (real)") — RAII Spans and instants measured with
//     this process's steady clock: pipeline stages, map/shuffle/reduce
//     phases, Pig statements.
//   * pid 2.. (one per simulated job, "sim: <job name>") — duration events
//     on the simulated clock: every TaskPlacement becomes an event on its
//     node/slot track, plus a shuffle track, exactly reconstructing the
//     JobTimeline the SimScheduler computed.
//
// Every sim event carries args `start_s`/`end_s` printed with %.17g, so the
// exported JSON round-trips the scheduler's doubles exactly (asserted by
// tests).  Enable with MRMC_TRACE=<out.json> (written on flush / process
// exit) or programmatically via set_enabled() for in-memory inspection.
// The event buffer is also the only input of the job and pipeline doctors
// (obs/report.hpp, obs/pipeline.hpp): MRMC_REPORT / MRMC_PIPELINE enable
// in-memory tracing without writing a trace file.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mrmc::obs {

/// pid of the real-wall-clock track group.
inline constexpr std::uint32_t kRealPid = 1;

using TraceArg = std::pair<std::string, std::string>;

struct TraceEvent {
  std::string name;
  std::string category;  ///< "real", "sim", "counter", or "meta"
  char phase = 'X';      ///< Chrome ph: X=complete, i=instant, M=metadata,
                         ///< C=counter (args are serialized as raw numbers),
                         ///< s/f=flow start/finish (carry flow_id as "id")
  double ts_us = 0.0;    ///< microseconds on the event's own clock
  double dur_us = 0.0;
  std::uint32_t pid = kRealPid;
  std::uint32_t tid = 0;
  /// Chrome flow-event binding id; serialized as "id" for 's'/'f' phases so
  /// viewers draw an arrow from the flow start to its finish.
  std::uint64_t flow_id = 0;
  std::vector<TraceArg> args;

  /// Value of the first arg named `key`, or "" when absent.
  [[nodiscard]] std::string_view arg(std::string_view key) const noexcept;
};

class Tracer {
 public:
  /// The process-wide tracer; first use reads MRMC_TRACE (a file path —
  /// enables tracing and sets the flush destination), and MRMC_REPORT /
  /// MRMC_PIPELINE (either enables tracing in memory only).
  static Tracer& global();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  void set_output_path(std::string path);
  [[nodiscard]] std::string output_path() const;

  /// Microseconds since this tracer's epoch (steady clock).
  [[nodiscard]] double now_us() const noexcept;

  // ------------------------------------------------------ real-clock events
  /// RAII span on the wall-clock track: records begin at construction and
  /// appends a complete event at destruction.  No-op while disabled.
  class Span {
   public:
    Span(Tracer& tracer, std::string name,
         std::initializer_list<TraceArg> args = {});
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attach an arg after construction (e.g. a result computed inside).
    void arg(std::string key, std::string value);

   private:
    Tracer* tracer_;
    bool active_;
    std::string name_;
    double start_us_ = 0.0;
    std::vector<TraceArg> args_;
  };

  /// Zero-duration marker on the wall-clock track.
  void instant(std::string name, std::initializer_list<TraceArg> args = {});

  /// Chrome counter event ('C') on the wall-clock track: every arg is one
  /// series of the counter named `name`.  Arg values MUST be numeric strings
  /// (use trace_double / std::to_string) — write_chrome_trace serializes
  /// counter args unquoted so Chrome/Perfetto render the series stacked.
  void counter(std::string name, std::vector<TraceArg> args);

  /// Counter event on a simulated job's track group at sim time `t_s`
  /// (same clock as sim_task timestamps).  Same numeric-args contract as
  /// counter(); used by the deterministic sim-grid sampler.
  void sim_counter(std::uint32_t pid, std::string name, double t_s,
                   std::vector<TraceArg> args);

  // ------------------------------------------------- simulated-clock tracks
  /// Allocate a process-id track group for one simulated job and emit its
  /// process_name metadata ("sim: <job_name>").  Returns the pid to pass to
  /// sim_task(); call only while enabled.
  std::uint32_t begin_sim_job(const std::string& job_name);

  /// Name a (pid, tid) sim track, e.g. "node 2 map slot 1" (deduplicated).
  void name_sim_track(std::uint32_t pid, std::uint32_t tid, std::string name);

  /// One simulated duration event [start_s, end_s] (sim seconds).  The
  /// rendered timestamp is offset by `ts_offset_s` (e.g. a phase's position
  /// within its job) purely for visualization; the exact phase-relative
  /// start_s/end_s are appended as %.17g args for lossless reconstruction.
  void sim_task(std::uint32_t pid, std::uint32_t tid, std::string name,
                double start_s, double end_s,
                std::initializer_list<TraceArg> args = {},
                double ts_offset_s = 0.0);

  /// Overload for runtime-built arg lists (e.g. optional per-task byte args).
  void sim_task(std::uint32_t pid, std::uint32_t tid, std::string name,
                double start_s, double end_s, std::vector<TraceArg> args,
                double ts_offset_s);

  // --------------------------------------------------------------- plumbing
  void append(TraceEvent event);
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t size() const;

  /// Drop all recorded events and sim-track state (pids restart at 2).
  void clear();

  /// Serialize everything recorded so far as Chrome trace-event JSON.
  void write_chrome_trace(std::ostream& out) const;

  /// write_chrome_trace() to the configured output path, if any.
  /// Returns true when a file was written.
  bool flush() const;

  ~Tracer();

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::string output_path_;
  std::vector<TraceEvent> events_;
  std::uint32_t next_sim_pid_ = kRealPid + 1;
  std::set<std::pair<std::uint32_t, std::uint32_t>> named_tracks_;
  std::chrono::steady_clock::time_point epoch_;
};

/// %.17g — the round-trip-exact double rendering used for trace args.
[[nodiscard]] std::string trace_double(double value);

}  // namespace mrmc::obs
