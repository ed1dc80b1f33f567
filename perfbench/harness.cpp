// perfbench_harness — the end-to-end benchmark's worker process.  run.py
// drives it in three steps per run; each prints one JSON object as its last
// stdout line.
//
//   prepare --workload W --seed S --out BASE [--facts 1]
//       Generate the workload's reads, write BASE.fa and BASE.truth and,
//       with --facts, BASE.facts: the data-shape facts (duplicate reads,
//       distinct k-mers, band shape, largest bucket, pairs, precision,
//       recall).  Nothing here is timed.
//   setup --workload W --fasta BASE.fa --first local|distributed
//         [--inject-slowdown F]
//       Time the first pass of a fresh process: parse + run_pipeline in the
//       --first mode, then in the other; report the first run's peak RSS.
//   measure --workload W --base BASE --seconds T [--trace 0|1]
//           [--trace-out PATH] [--inject-slowdown F]
//       One warm-up pass (also a set-up sample), then timed passes for T
//       seconds, each output checked.  --trace 1 then runs the layer decomposition:
//       the calls run_pipeline's local path makes, each wrapped in a span,
//       plus the distributed run_pipeline as the mr.pipeline span, and
//       writes the spans as a Chrome trace.  --inject-slowdown stretches
//       every timed run by F (a sleep inside the timed region) to check
//       which regressions the bounds catch; it never runs by default.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bio/fasta.hpp"
#include "bio/kmer.hpp"
#include "core/candidates.hpp"
#include "core/greedy.hpp"
#include "core/hierarchical.hpp"
#include "core/minhash.hpp"
#include "core/pipeline.hpp"
#include "eval/candidate_recall.hpp"
#include "eval/external_indices.hpp"
#include "mr/runtime.hpp"
#include "workloads.hpp"

namespace {

using namespace mrmc;
using perfbench::Workload;
using Metrics = std::map<std::string, double>;

// ------------------------------------------------------------------ probes

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A "VmRSS" / "VmHWM" reading from /proc/self/status, in MB.
double status_mb(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  throw std::runtime_error("no " + std::string(key) + " in /proc/self/status");
}

/// Return freed heap to the OS, then reset the peak-RSS high-water mark to
/// the current RSS (Linux clear_refs "5"), so the next VmHWM reading is the
/// peak of what ran in between.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset peak RSS via clear_refs");
}

/// Peak RSS growth over one layer call: reset at construction, read on demand.
class RssWindow {
 public:
  RssWindow() {
    reset_peak_rss();
    base_mb_ = status_mb("VmRSS");
  }
  [[nodiscard]] double growth_mb() const { return status_mb("VmHWM") - base_mb_; }

 private:
  double base_mb_ = 0.0;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string labels_hash(const std::vector<int>& labels) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a over the label bytes
  for (const int label : labels) {
    auto value = static_cast<std::uint32_t>(label);
    for (int byte = 0; byte < 4; ++byte) {
      hash = (hash ^ (value & 0xffU)) * 1099511628211ULL;
      value >>= 8;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_object(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + json_number(value);
  }
  return out + "}";
}

// ------------------------------------------------------------------- spans

/// In-memory spans around the harness's calls into each layer, written out
/// once as a Chrome trace ("X" events) with each span's self time.
class SpanTrace {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now_us(), 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }
  void arg(int id, const std::string& key, const std::string& value) {
    spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
  }
  [[nodiscard]] double seconds(int id) const {
    const Span& span = spans_[static_cast<std::size_t>(id)];
    return (span.end_us - span.start_us) * 1e-6;
  }

  void write_chrome(const std::string& path) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_us[static_cast<std::size_t>(span.parent)] += span.end_us - span.start_us;
      }
    }
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const double duration = span.end_us - span.start_us;
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << span.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << json_number(span.start_us) << ", \"dur\": " << json_number(duration)
          << ", \"args\": {\"self_us\": " << json_number(duration - child_us[i])
          << ", \"parent\": " << span.parent;
      for (const auto& [key, value] : span.args) {
        out << ", \"" << key << "\": \"" << value << "\"";
      }
      out << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    std::vector<std::pair<std::string, std::string>> args;
  };

  [[nodiscard]] double now_us() const { return (now_s() - origin_s_) * 1e6; }

  double origin_s_ = now_s();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- the runs

core::ExecutionOptions exec_options(bool distributed) {
  core::ExecutionOptions exec;
  exec.distributed = distributed;
  exec.cluster.nodes = 8;  // simulated nodes, the cluster_fasta default
  return exec;
}

struct RunSample {
  double wall_s = 0.0;
  std::vector<int> labels;
};

/// One timed run as a cluster_fasta user sees it: parse the FASTA file, run
/// the pipeline, free everything.
RunSample timed_run(const Workload& workload, const std::string& fasta,
                    bool distributed, double slowdown) {
  RunSample sample;
  const double start = now_s();
  {
    const std::vector<bio::FastaRecord> reads = bio::read_fasta_file(fasta);
    core::PipelineResult result = core::run_pipeline(
        reads, workload.params, exec_options(distributed));
    sample.labels = std::move(result.labels);
  }
  sample.wall_s = now_s() - start;
  if (slowdown > 1.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(sample.wall_s * (slowdown - 1.0)));
    sample.wall_s = now_s() - start;
  }
  return sample;
}

/// A local and a distributed run over the same file.
struct Pass {
  RunSample local;
  RunSample distributed;
  [[nodiscard]] bool consistent() const { return local.labels == distributed.labels; }
};

Pass run_pass(const Workload& workload, const std::string& fasta, double slowdown) {
  Pass pass;
  pass.local = timed_run(workload, fasta, false, slowdown);
  pass.distributed = timed_run(workload, fasta, true, slowdown);
  return pass;
}

bool lsh_backend(const Workload& workload) {
  return workload.params.candidates.backend ==
         core::candidates::Backend::kLshBanded;
}

core::SketchEstimator verify_estimator(const core::PipelineParams& params) {
  return params.mode == core::Mode::kGreedy ? params.greedy_estimator
                                            : params.estimator;
}

void add_job_metrics(Metrics& metrics, SpanTrace& trace, int span,
                     const std::string& job, const mr::JobStats& stats) {
  const std::string prefix = "mr." + job + ".";
  metrics[prefix + "shuffle_bytes"] = stats.shuffle_bytes;
  metrics[prefix + "map_cpu_s"] = stats.map_cpu_s;
  metrics[prefix + "reduce_cpu_s"] = stats.reduce_cpu_s;
  metrics[prefix + "map_tasks"] = static_cast<double>(stats.map_tasks);
  metrics[prefix + "spill_runs"] = static_cast<double>(stats.spill_runs);
  metrics[prefix + "retries"] =
      static_cast<double>(stats.map_retries + stats.reduce_retries);
  trace.arg(span, job + ".shuffle_bytes", json_number(stats.shuffle_bytes));
  trace.arg(span, job + ".map_tasks", std::to_string(stats.map_tasks));
  trace.arg(span, job + ".spill_runs", std::to_string(stats.spill_runs));
  trace.arg(span, job + ".retries",
            std::to_string(stats.map_retries + stats.reduce_retries));
}

/// One traced decomposition: the calls run_pipeline's local path makes, in
/// its order and with its arguments, then the distributed run_pipeline.
struct Decomposition {
  Metrics metrics;
  std::vector<int> local_labels;
  std::vector<int> distributed_labels;
  double local_traced_s = 0.0;  ///< root start to the end of local clustering
  double layer_sum_s = 0.0;     ///< sum of the local layer spans
};

Decomposition decompose(const Workload& workload, const std::string& fasta,
                        SpanTrace& trace) {
  const core::PipelineParams& params = workload.params;
  Decomposition out;
  Metrics& m = out.metrics;
  // Layers off this workload's path report 0.
  for (const char* name :
       {"candidates.enumerate_s", "candidates.enumerate_cpu_s",
        "candidates.enumerate_cpu_util", "candidates.pairs", "candidates.verify_s",
        "candidates.verify_cpu_s", "candidates.rss_delta_mb", "greedy.wall_s",
        "greedy.cpu_s", "greedy.rss_delta_mb", "greedy.comparisons",
        "greedy.clusters", "hier.matrix_s", "hier.agglomerate_s", "hier.cut_s",
        "hier.cpu_s", "hier.matrix_bytes", "hier.rss_delta_mb"}) {
    m[name] = 0.0;
  }
  const int root = trace.open("workload " + workload.name, -1);
  const double root_start = now_s();
  // One local layer call as a child span; `call_wall`/`call_cpu` keep its
  // wall and process CPU seconds.
  double call_wall = 0.0;
  double call_cpu = 0.0;
  const auto layer = [&](const char* name, auto&& fn) {
    const int id = trace.open(name, root);
    const double cpu = process_cpu_s();
    auto result = fn();
    call_cpu = process_cpu_s() - cpu;
    trace.close(id);
    call_wall = trace.seconds(id);
    out.layer_sum_s += call_wall;
    return result;
  };

  const RssWindow parse_rss;
  const std::vector<bio::FastaRecord> reads =
      layer("bio.parse", [&] { return bio::read_fasta_file(fasta); });
  m["bio.parse_s"] = call_wall;
  m["bio.cpu_s"] = call_cpu;
  m["bio.rss_delta_mb"] = parse_rss.growth_mb();

  {
    const core::MinHasher hasher(params.minhash);
    std::vector<std::string_view> seqs;
    seqs.reserve(reads.size());
    for (const auto& read : reads) seqs.emplace_back(read.seq);
    mr::runtime::PoolLease lease(0, false);
    common::ThreadPool& pool = lease.pool();
    const double threads = static_cast<double>(pool.size());

    const RssWindow sketch_rss;
    const core::kernels::SketchMatrix sketches =
        layer("sketch", [&] { return hasher.sketch_matrix(seqs, &pool); });
    m["sketch.wall_s"] = call_wall;
    m["sketch.cpu_s"] = call_cpu;
    m["sketch.cpu_util"] = call_cpu / (call_wall * threads);
    m["sketch.rss_delta_mb"] = sketch_rss.growth_mb();

    const double theta = params.theta;
    if (params.mode == core::Mode::kHierarchical) {
      if (lsh_backend(workload)) {
        throw std::logic_error("the hierarchical workload runs the exact backend");
      }
      const RssWindow hier_rss;
      const core::SimilarityMatrix matrix = layer("hier.matrix", [&] {
        return core::pairwise_similarity_matrix(sketches, params.estimator, &pool);
      });
      m["hier.matrix_s"] = call_wall;
      m["hier.matrix_bytes"] = static_cast<double>(matrix.size()) *
                               static_cast<double>(matrix.size()) * sizeof(float);
      double cpu = call_cpu;
      const core::Dendrogram dendrogram = layer(
          "hier.agglomerate", [&] { return core::agglomerate(matrix, params.linkage); });
      m["hier.agglomerate_s"] = call_wall;
      cpu += call_cpu;
      out.local_labels =
          layer("hier.cut", [&] { return core::cut_dendrogram(dendrogram, theta); });
      m["hier.cut_s"] = call_wall;
      m["hier.cpu_s"] = cpu + call_cpu;
      m["hier.rss_delta_mb"] = hier_rss.growth_mb();
    } else {
      std::optional<core::candidates::SparseSimilarityGraph> graph;
      if (lsh_backend(workload)) {
        const RssWindow candidates_rss;
        const auto pairs = layer("candidates.enumerate", [&] {
          return core::candidates::enumerate_pairs(sketches, params.candidates,
                                                   theta, &pool);
        });
        m["candidates.enumerate_s"] = call_wall;
        m["candidates.enumerate_cpu_s"] = call_cpu;
        m["candidates.enumerate_cpu_util"] = call_cpu / (call_wall * threads);
        m["candidates.pairs"] = static_cast<double>(pairs.size());
        graph = layer("candidates.verify", [&] {
          return core::candidates::verify_pairs(sketches, pairs,
                                                verify_estimator(params), &pool);
        });
        m["candidates.verify_s"] = call_wall;
        m["candidates.verify_cpu_s"] = call_cpu;
        m["candidates.rss_delta_mb"] = candidates_rss.growth_mb();
      }
      const core::GreedyParams greedy{theta, params.greedy_estimator};
      const RssWindow greedy_rss;
      const core::GreedyResult result = layer("greedy", [&] {
        return graph ? core::greedy_cluster_graph(*graph, greedy)
                     : core::greedy_cluster(sketches, greedy);
      });
      m["greedy.wall_s"] = call_wall;
      m["greedy.cpu_s"] = call_cpu;
      m["greedy.rss_delta_mb"] = greedy_rss.growth_mb();
      m["greedy.comparisons"] = static_cast<double>(result.comparisons);
      m["greedy.clusters"] = static_cast<double>(result.num_clusters);
      out.local_labels = result.labels;
    }
  }
  out.local_traced_s = now_s() - root_start;

  const RssWindow mr_rss;
  const int mr_span = trace.open("mr.pipeline", root);
  const double mr_cpu = process_cpu_s();
  core::PipelineResult result =
      core::run_pipeline(reads, params, exec_options(true));
  m["mr.cpu_s"] = process_cpu_s() - mr_cpu;
  trace.close(mr_span);
  m["mr.pipeline_s"] = trace.seconds(mr_span);
  m["mr.rss_delta_mb"] = mr_rss.growth_mb();
  m["mr.sim_total_s"] = result.sim_total_s;
  add_job_metrics(m, trace, mr_span, "sketch", result.sketch_stats);
  add_job_metrics(m, trace, mr_span, "candidates", result.candidate_stats);
  add_job_metrics(m, trace, mr_span, "verify", result.verify_stats);
  add_job_metrics(m, trace, mr_span, "similarity", result.similarity_stats);
  add_job_metrics(m, trace, mr_span, "cluster", result.cluster_stats);
  out.distributed_labels = std::move(result.labels);
  trace.close(root);
  return out;
}

// ------------------------------------------------------------------- facts

/// Data-shape facts, computed once at set-up outside every timed region.
Metrics compute_facts(const Workload& workload,
                      const std::vector<bio::FastaRecord>& reads) {
  const core::PipelineParams& params = workload.params;
  common::ThreadPool& pool = mr::runtime::shared_pool();
  Metrics facts;
  const std::size_t n = reads.size();

  std::unordered_set<std::string_view> distinct_reads;
  distinct_reads.reserve(n);
  for (const auto& read : reads) distinct_reads.insert(read.seq);
  facts["candidates.duplicate_read_ratio"] =
      1.0 - static_cast<double>(distinct_reads.size()) / static_cast<double>(n);

  const bio::KmerParams kmer{params.minhash.kmer, params.minhash.canonical};
  constexpr std::size_t kChunks = 64;
  std::vector<double> windows(kChunks, 0.0);
  std::vector<double> distinct(kChunks, 0.0);
  pool.parallel_for(kChunks, [&](std::size_t chunk) {
    for (std::size_t i = chunk * n / kChunks; i < (chunk + 1) * n / kChunks; ++i) {
      windows[chunk] += static_cast<double>(bio::extract_kmers(reads[i].seq, kmer).size());
      distinct[chunk] += static_cast<double>(bio::kmer_set(reads[i].seq, kmer).size());
    }
  });
  double total_windows = 0.0;
  double total_distinct = 0.0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    total_windows += windows[c];
    total_distinct += distinct[c];
  }
  facts["sketch.kmer_windows"] = total_windows;
  facts["sketch.distinct_kmer_ratio"] = total_distinct / total_windows;
  // Today's sketch hashes each read's distinct k-mers with all K functions.
  facts["sketch.hash_evals"] =
      total_distinct * static_cast<double>(params.minhash.num_hashes);

  for (const char* name :
       {"candidates.bands", "candidates.rows", "candidates.bucket_entries",
        "candidates.largest_bucket", "candidates.precision", "candidates.recall"}) {
    facts[name] = 0.0;  // the exact backend never bands
  }
  if (!lsh_backend(workload)) return facts;

  std::vector<std::string_view> seqs;
  seqs.reserve(n);
  for (const auto& read : reads) seqs.emplace_back(read.seq);
  const core::MinHasher hasher(params.minhash);
  const core::kernels::SketchMatrix sketches = hasher.sketch_matrix(seqs, &pool);
  const core::candidates::BandShape shape = core::candidates::resolve_band_shape(
      params.candidates, sketches.cols(), params.theta);
  std::vector<std::size_t> largest(shape.bands, 0);
  pool.parallel_for(shape.bands, [&](std::size_t band) {
    std::unordered_map<std::uint64_t, std::size_t> buckets;
    buckets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t size = ++buckets[core::candidates::band_bucket_key(
          sketches.row(i), band, shape, params.candidates.seed)];
      largest[band] = std::max(largest[band], size);
    }
  });
  facts["candidates.bands"] = static_cast<double>(shape.bands);
  facts["candidates.rows"] = static_cast<double>(shape.rows);
  facts["candidates.bucket_entries"] = static_cast<double>(n * shape.bands);
  facts["candidates.largest_bucket"] =
      static_cast<double>(*std::max_element(largest.begin(), largest.end()));

  const auto pairs = core::candidates::enumerate_pairs(sketches, params.candidates,
                                                       params.theta, &pool);
  const auto graph = core::candidates::verify_pairs(sketches, pairs,
                                                    verify_estimator(params), &pool);
  const auto above = std::count_if(
      graph.edges.begin(), graph.edges.end(),
      [&](const core::candidates::Edge& edge) { return edge.similarity >= params.theta; });
  facts["candidates.pairs_at_setup"] = static_cast<double>(pairs.size());
  facts["candidates.precision"] =
      pairs.empty() ? 0.0 : static_cast<double>(above) / static_cast<double>(pairs.size());
  constexpr std::size_t kRecallRows = 10'000;
  facts["candidates.recall"] =
      eval::candidate_recall(sketches, params.theta, params.candidates,
                             verify_estimator(params), kRecallRows, &pool)
          .recall;
  return facts;
}

void write_facts(const std::string& path, const Metrics& facts) {
  std::ofstream out(path);
  for (const auto& [name, value] : facts) out << name << ' ' << json_number(value) << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

Metrics read_facts(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Metrics facts;
  std::string name;
  double value = 0.0;
  while (in >> name >> value) facts[name] = value;
  return facts;
}

// -------------------------------------------------------------- commands

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

int prepare(const Args& args) {
  const Workload& workload = perfbench::find_workload(args.str("workload"));
  const std::string base = args.str("out");
  simdata::LabeledReads sample =
      workload.generate(std::stoull(args.str("seed")));
  {
    std::ofstream fasta(base + ".fa");
    bio::write_fasta(fasta, sample.reads);
    std::ofstream truth(base + ".truth");
    for (const int label : sample.labels) truth << label << '\n';
    if (!fasta || !truth) throw std::runtime_error("cannot write " + base);
  }
  Metrics info{{"reads", static_cast<double>(sample.reads.size())},
               {"input_bytes", static_cast<double>(
                                   std::filesystem::file_size(base + ".fa"))}};
  if (args.str("facts", "0") == "1") {
    Metrics facts = compute_facts(workload, sample.reads);
    facts["bio.input_bytes"] = info["input_bytes"];
    write_facts(base + ".facts", facts);
  }
  std::cout << json_object(info) << std::endl;
  return 0;
}

/// The set-up pass of a fresh process: parse + one mode's run_pipeline, then
/// parse + the other's.  The first run starts from a clean process, so its
/// high-water mark is that mode's peak RSS with no carry-over: in-process
/// repeats leave glibc heap pages behind (fragmented free space, under 2 MB
/// of it live), which the next run partly reuses.
int setup(const Args& args) {
  const Workload& workload = perfbench::find_workload(args.str("workload"));
  const std::string fasta = args.str("fasta");
  const double slowdown = std::stod(args.str("inject-slowdown", "1"));
  const bool distributed_first = args.str("first") == "distributed";
  const RunSample first = timed_run(workload, fasta, distributed_first, slowdown);
  const double peak_rss_mb = status_mb("VmHWM");
  const RunSample second = timed_run(workload, fasta, !distributed_first, slowdown);
  std::cout << "{\"setup_s\": " << json_number(first.wall_s + second.wall_s)
            << ", \"peak_rss_mb\": " << json_number(peak_rss_mb)
            << ", \"consistent\": "
            << (first.labels == second.labels ? "true" : "false")
            << ", \"labels\": \"" << labels_hash(first.labels) << "\"}" << std::endl;
  return 0;
}

std::vector<int> read_truth(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<int> truth;
  int label = 0;
  while (in >> label) truth.push_back(label);
  return truth;
}

int measure(const Args& args) {
  const Workload& workload = perfbench::find_workload(args.str("workload"));
  const std::string base = args.str("base");
  const std::string fasta = base + ".fa";
  const double seconds = std::stod(args.str("seconds"));
  const bool trace_mode = args.str("trace", "0") == "1";
  const double slowdown = std::stod(args.str("inject-slowdown", "1"));

  std::size_t attempted = 1;
  std::size_t failed = 0;
  // Warm-up pass: a set-up sample, and the reference labels.
  const Pass warm = run_pass(workload, fasta, slowdown);
  const std::vector<int>& reference = warm.local.labels;
  if (!warm.consistent()) ++failed;

  std::vector<double> local_s, mr_s;
  const double start = now_s();
  double last_s = 0.0;
  do {
    const double pass_start = now_s();
    ++attempted;
    try {
      const Pass pass = run_pass(workload, fasta, slowdown);
      if (!pass.consistent() || pass.local.labels != reference) ++failed;
      std::cout << "pass " << local_s.size() + 1 << ": local "
                << json_number(pass.local.wall_s) << " s, mr "
                << json_number(pass.distributed.wall_s) << " s\n";
      local_s.push_back(pass.local.wall_s);
      mr_s.push_back(pass.distributed.wall_s);
    } catch (const std::exception& error) {
      std::cerr << "perfbench: run failed: " << error.what() << "\n";
      ++failed;
    }
    last_s = now_s() - pass_start;
  } while (now_s() - start + last_s <= seconds);

  if (local_s.empty()) throw std::runtime_error("no timed pass completed");
  const double reads = static_cast<double>(reference.size());
  Metrics metrics;
  if (!trace_mode) {
    metrics["local_reads_per_s"] = reads / median(local_s);
    metrics["mr_reads_per_s"] = reads / median(mr_s);
    metrics["ari_truth"] =
        eval::adjusted_rand_index(reference, read_truth(base + ".truth"));
  } else {
    // Per-layer decomposition: three traced repeats, medians per metric.
    constexpr int kRepeats = 3;
    SpanTrace trace;
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> local_traced, layer_sums;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      ++attempted;
      const Decomposition run = decompose(workload, fasta, trace);
      if (run.local_labels != reference || run.distributed_labels != reference) {
        std::cerr << "perfbench: traced labels differ from the untraced run\n";
        ++failed;
      }
      for (const auto& [name, value] : run.metrics) samples[name].push_back(value);
      local_traced.push_back(run.local_traced_s);
      layer_sums.push_back(run.layer_sum_s);
    }
    for (const auto& [name, values] : samples) metrics[name] = median(values);

    const Metrics facts = read_facts(base + ".facts");
    for (const auto& [name, value] : facts) {
      if (name != "candidates.pairs_at_setup") metrics[name] = value;
    }
    if (lsh_backend(workload) &&
        metrics["candidates.pairs"] != facts.at("candidates.pairs_at_setup")) {
      std::cerr << "perfbench: traced pair count differs from set-up count\n";
      ++failed;
    }
    metrics["bio.parse_mb_per_s"] =
        metrics["bio.input_bytes"] / 1e6 / metrics["bio.parse_s"];
    metrics["sketch.ns_per_window"] =
        metrics["sketch.wall_s"] * 1e9 / metrics["sketch.kmer_windows"];
    const double pairs = metrics["candidates.pairs"];
    metrics["candidates.pairs_per_read"] = pairs / reads;
    metrics["candidates.verify_ns_per_pair"] =
        pairs > 0.0 ? metrics["candidates.verify_s"] * 1e9 / pairs : 0.0;
    metrics["mr.overhead_s"] = median(mr_s) - median(local_s);
    metrics["local.unattributed_s"] = median(local_s) - median(layer_sums);
    metrics["trace.overhead_ratio"] = median(local_traced) / median(local_s);
    const std::string trace_path = args.str("trace-out");
    trace.write_chrome(trace_path);
    std::cout << "trace: " << trace_path << "\n";
  }
  std::cout << "{\"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"setup_s\": "
            << json_number(warm.local.wall_s + warm.distributed.wall_s)
            << ", \"passes\": " << local_s.size()
            << ", \"labels\": \"" << labels_hash(reference)
            << "\", \"metrics\": " << json_object(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness prepare|setup|measure --key value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    if (command == "prepare") return prepare(args);
    if (command == "setup") return setup(args);
    if (command == "measure") return measure(args);
    std::cerr << "perfbench_harness: unknown command " << command << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness " << command << ": " << error.what() << "\n";
    return 1;
  }
}
