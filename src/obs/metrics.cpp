#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/fsio.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace mrmc::obs {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace detail

namespace {

constexpr std::array<double, 31> kDefaultBounds = {
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
    5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0,  1e1,
    2e1,  5e1,  1e2,  2e2,  5e2,  1e3,  2e3,  5e3,  1e4};

}  // namespace

long Counter::value() const noexcept {
  long total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (auto& shard : shards_) shard.value.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(detail::kShards * (bounds_.size() + 1)) {
  MRMC_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be sorted ascending");
}

std::span<const double> Histogram::default_bounds() noexcept {
  return {kDefaultBounds.data(), kDefaultBounds.size()};
}

void Histogram::observe(double value) noexcept {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const std::size_t shard = detail::shard_index();
  counts_[shard * (bounds_.size() + 1) + bucket].value.fetch_add(
      1, std::memory_order_relaxed);
  observe_count_[shard].value.fetch_add(1, std::memory_order_relaxed);
  // CAS add: atomic<double>::fetch_add is C++20 but spotty pre-GCC-12 — a
  // per-shard CAS is uncontended and portable.
  auto& sum = sums_[shard].value;
  double seen = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(seen, seen + value,
                                    std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (std::size_t shard = 0; shard < detail::kShards; ++shard) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
      snap.counts[b] += counts_[shard * (bounds_.size() + 1) + b].value.load(
          std::memory_order_relaxed);
    }
    snap.count += observe_count_[shard].value.load(std::memory_order_relaxed);
    snap.sum += sums_[shard].value.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& cell : counts_) cell.value.store(0, std::memory_order_relaxed);
  for (auto& cell : observe_count_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
  for (auto& cell : sums_) cell.value.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::percentile(double q) const noexcept {
  if (count <= 0 || bounds.empty() || counts.size() != bounds.size() + 1) {
    return 0.0;
  }
  // One observation has no spread: every percentile IS that sample.
  // Interpolating inside its bucket would invent a value never observed.
  if (count == 1) return sum;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  long cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const long in_bucket = counts[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (b >= bounds.size()) return bounds.back();  // overflow: clamp
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double fraction =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lower + (bounds[b] - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " " + trace_double(value) + "\n";
  }
  for (const auto& [name, hist] : histograms) {
    out += name + " count=" + std::to_string(hist.count) +
           " sum=" + trace_double(hist.sum) +
           " mean=" + trace_double(hist.mean()) +
           " p50=" + trace_double(hist.percentile(0.50)) +
           " p95=" + trace_double(hist.percentile(0.95)) +
           " p99=" + trace_double(hist.percentile(0.99)) + "\n";
    for (std::size_t b = 0; b <= hist.bounds.size(); ++b) {
      if (hist.counts[b] == 0) continue;  // sparse: most decades stay empty
      const std::string le =
          b < hist.bounds.size() ? trace_double(hist.bounds[b]) : "+inf";
      out += name + "{le=" + le + "} " + std::to_string(hist.counts[b]) + "\n";
    }
  }
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  // Label-free Prometheus text exposition (# TYPE + one sample per line).
  // Dots and other punctuation are illegal in Prometheus metric names, so
  // "mr.shuffle_bytes" exports as "mrmc_mr_shuffle_bytes".
  const auto prom_name = [](std::string_view name, const char* suffix = "") {
    std::string out = "mrmc_";
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      out.push_back(ok ? c : '_');
    }
    out += suffix;
    return out;
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string metric = prom_name(name);
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string metric = prom_name(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + trace_double(value) + "\n";
  }
  for (const auto& [name, hist] : histograms) {
    // Summaries stay label-free: _count and _sum only, no quantile series.
    const std::string metric = prom_name(name);
    out += "# TYPE " + metric + " summary\n";
    out += prom_name(name, "_count") + " " + std::to_string(hist.count) + "\n";
    out += prom_name(name, "_sum") + " " + trace_double(hist.sum) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + std::to_string(value);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + trace_double(value);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": {\"count\": " + std::to_string(hist.count) +
           ", \"sum\": " + trace_double(hist.sum) +
           ", \"p50\": " + trace_double(hist.percentile(0.50)) +
           ", \"p95\": " + trace_double(hist.percentile(0.95)) +
           ", \"p99\": " + trace_double(hist.percentile(0.99)) +
           ", \"bounds\": [";
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      if (b > 0) out += ", ";
      out += trace_double(hist.bounds[b]);
    }
    out += "], \"counts\": [";
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(hist.counts[b]);
    }
    out += "]}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  if (bounds.empty()) bounds = Histogram::default_bounds();
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(
                           std::vector<double>(bounds.begin(), bounds.end())))
              .first->second;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->snapshot());
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

bool Registry::write_global_if_configured() {
  const char* path = std::getenv("MRMC_METRICS");
  if (path == nullptr || *path == '\0') return false;
  const MetricsSnapshot snap = global().snapshot();
  std::string_view p(path);
  if (p.rfind("prom:", 0) == 0) {
    // MRMC_METRICS=prom:<path> selects the Prometheus text exposition.
    p.remove_prefix(5);
    if (p.empty()) return false;
    return common::write_file_atomic(std::string(p), snap.to_prometheus());
  }
  return common::write_file_atomic(
      path, p.size() >= 5 && p.substr(p.size() - 5) == ".json"
                ? snap.to_json()
                : snap.to_text());
}

}  // namespace mrmc::obs
