#include "obs/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/fsio.hpp"
#include "obs/format.hpp"
#include "obs/log.hpp"

namespace mrmc::obs {

namespace {

const Logger& logger() {
  static const Logger instance("obs.trace");
  return instance;
}

}  // namespace

std::string trace_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string_view TraceEvent::arg(std::string_view key) const noexcept {
  for (const TraceArg& a : args) {
    if (a.first == key) return a.second;
  }
  return {};
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  const auto set = [](const char* name) {
    const char* value = std::getenv(name);
    return value != nullptr && *value != '\0';
  };
  if (set("MRMC_TRACE")) output_path_ = std::getenv("MRMC_TRACE");
  // The job and pipeline reports are rendered from this buffer, so asking
  // for either turns tracing on in memory, without a trace file.
  if (set("MRMC_TRACE") || set("MRMC_REPORT") || set("MRMC_PIPELINE")) {
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Tracer::~Tracer() { flush(); }

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_output_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  output_path_ = std::move(path);
}

std::string Tracer::output_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return output_path_;
}

double Tracer::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Span::Span(Tracer& tracer, std::string name,
                   std::initializer_list<TraceArg> args)
    : tracer_(&tracer), active_(tracer.enabled()), name_(std::move(name)) {
  if (!active_) return;
  start_us_ = tracer.now_us();
  args_.assign(args.begin(), args.end());
}

void Tracer::Span::arg(std::string key, std::string value) {
  if (!active_) return;
  args_.emplace_back(std::move(key), std::move(value));
}

Tracer::Span::~Span() {
  if (!active_) return;
  TraceEvent event;
  event.name = std::move(name_);
  event.category = "real";
  event.phase = 'X';
  event.ts_us = start_us_;
  event.dur_us = tracer_->now_us() - start_us_;
  event.pid = kRealPid;
  event.tid = 0;
  event.args = std::move(args_);
  tracer_->append(std::move(event));
}

void Tracer::instant(std::string name, std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = "real";
  event.phase = 'i';
  event.ts_us = now_us();
  event.pid = kRealPid;
  event.tid = 0;
  event.args.assign(args.begin(), args.end());
  append(std::move(event));
}

void Tracer::counter(std::string name, std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = "counter";
  event.phase = 'C';
  event.ts_us = now_us();
  event.pid = kRealPid;
  event.tid = 0;
  event.args = std::move(args);
  append(std::move(event));
}

void Tracer::sim_counter(std::uint32_t pid, std::string name, double t_s,
                         std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = "counter";
  event.phase = 'C';
  event.ts_us = t_s * 1e6;
  event.pid = pid;
  event.tid = 0;
  event.args = std::move(args);
  append(std::move(event));
}

std::uint32_t Tracer::begin_sim_job(const std::string& job_name) {
  TraceEvent meta;
  meta.category = "meta";
  meta.phase = 'M';
  meta.name = "process_name";
  meta.args.emplace_back("name", "sim: " + job_name);

  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t pid = next_sim_pid_++;
  meta.pid = pid;
  events_.push_back(std::move(meta));
  return pid;
}

void Tracer::name_sim_track(std::uint32_t pid, std::uint32_t tid,
                            std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!named_tracks_.emplace(pid, tid).second) return;
  TraceEvent meta;
  meta.category = "meta";
  meta.phase = 'M';
  meta.name = "thread_name";
  meta.pid = pid;
  meta.tid = tid;
  meta.args.emplace_back("name", std::move(name));
  events_.push_back(std::move(meta));
}

void Tracer::sim_task(std::uint32_t pid, std::uint32_t tid, std::string name,
                      double start_s, double end_s,
                      std::initializer_list<TraceArg> args,
                      double ts_offset_s) {
  sim_task(pid, tid, std::move(name), start_s, end_s,
           std::vector<TraceArg>(args.begin(), args.end()), ts_offset_s);
}

void Tracer::sim_task(std::uint32_t pid, std::uint32_t tid, std::string name,
                      double start_s, double end_s, std::vector<TraceArg> args,
                      double ts_offset_s) {
  TraceEvent event;
  event.name = std::move(name);
  event.category = "sim";
  event.phase = 'X';
  event.ts_us = (ts_offset_s + start_s) * 1e6;
  event.dur_us = (end_s - start_s) * 1e6;
  event.pid = pid;
  event.tid = tid;
  event.args = std::move(args);
  event.args.emplace_back("start_s", trace_double(start_s));
  event.args.emplace_back("end_s", trace_double(end_s));
  append(std::move(event));
}

void Tracer::append(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  named_tracks_.clear();
  next_sim_pid_ = kRealPid + 1;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  std::string buf;
  buf.reserve(events.size() * 128 + 256);
  buf += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) buf += ",\n";
    first = false;
    buf += "  {\"name\": ";
    append_json_string(buf, event.name);
    buf += ", \"cat\": ";
    append_json_string(buf, event.category);
    buf += ", \"ph\": \"";
    buf.push_back(event.phase);
    buf += "\", \"pid\": " + std::to_string(event.pid) +
           ", \"tid\": " + std::to_string(event.tid);
    if (event.phase != 'M') {
      buf += ", \"ts\": " + trace_double(event.ts_us);
      if (event.phase == 'X') {
        buf += ", \"dur\": " + trace_double(event.dur_us);
      }
    }
    if (event.phase == 's' || event.phase == 'f') {
      buf += ", \"id\": " + std::to_string(event.flow_id);
      // Bind the finish to the enclosing slice so viewers draw the arrow
      // even when the finish timestamp precedes the slice start.
      if (event.phase == 'f') buf += ", \"bp\": \"e\"";
    }
    if (!event.args.empty()) {
      buf += ", \"args\": {";
      for (std::size_t i = 0; i < event.args.size(); ++i) {
        if (i > 0) buf += ", ";
        append_json_string(buf, event.args[i].first);
        buf += ": ";
        if (event.phase == 'C') {
          // Counter series must be JSON numbers for Chrome to plot them;
          // counter() documents the numeric-string contract on its args.
          buf += event.args[i].second;
        } else {
          append_json_string(buf, event.args[i].second);
        }
      }
      buf += "}";
    }
    buf += "}";
  }
  buf += "\n]}\n";
  out << buf;
}

bool Tracer::flush() const {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path = output_path_;
  }
  if (path.empty() || !enabled()) return false;
  // Render fully in memory, then commit atomically: a process killed
  // mid-flush (the recovery chaos tests do exactly this) must never leave a
  // truncated trace for the resumed run's doctor to choke on.
  std::ostringstream rendered;
  write_chrome_trace(rendered);
  if (!common::write_file_atomic(path, rendered.str())) {
    logger().warn("failed writing trace output file", {{"path", path}});
    return false;
  }
  return true;
}

}  // namespace mrmc::obs
