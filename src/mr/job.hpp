// Typed MapReduce job runner — the library's Hadoop substitute.
//
// Contract (identical to Hadoop's):
//   map    : In -> [(K, V)]            (one call per input record)
//   combine: (K, [V]) -> [(K, V)]      (optional, per map task)
//   reduce : (K, [V]) -> [Out]         (one call per key group)
//
// Execution is real (tasks produce the actual output); *cluster time* is
// simulated: every task yields a TaskSpec (deterministic work model + byte
// accounting) which the SimScheduler places onto the configured nodes,
// giving the job a reproducible simulated makespan (JobStats::timeline).
//
// Job is a thin typed façade over mr::runtime::TaskGraph.  Each map task is
// a graph node that reads a std::span view of its split of the caller's
// input (no per-split copy) and spills its output as per-reducer key-sorted
// runs; every (map, reducer) pair gets a ShuffleFetch node that moves the
// run the moment the map finishes; each reduce node k-way-merges its sorted
// runs — no re-sort, no map barrier.  The merge is stable by (key, map
// index, emission order), which is exactly the order the old
// concatenate-then-stable_sort shuffle produced, so job output is
// byte-identical across any thread count and to the previous engine.
//
// Failures are injected as *real re-executions*: a doomed attempt runs,
// throws runtime::TaskFailure, and the task graph re-runs the node (map and
// reduce tasks alike, up to JobConfig::max_task_attempts); every failed
// attempt is re-paid in the simulated cost model and surfaced in JobStats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/timer.hpp"
#include "mr/bytes.hpp"
#include "mr/cluster.hpp"
#include "mr/faults.hpp"
#include "mr/runtime.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace mrmc::mr {

using Counters = std::map<std::string, long>;

/// Counting context handed to context-aware reducers; per-task counters are
/// merged into JobStats::counters exactly like the map side's Emitter.
class ReduceContext {
 public:
  void count(const std::string& counter, long delta = 1) {
    counters_[counter] += delta;
  }

  [[nodiscard]] Counters& counters() noexcept { return counters_; }

 private:
  Counters counters_;
};

/// Collects (key, value) pairs and named counters from map/combine calls.
template <typename K, typename V>
class Emitter {
 public:
  void emit(K key, V value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  void count(const std::string& counter, long delta = 1) { counters_[counter] += delta; }

  [[nodiscard]] std::vector<std::pair<K, V>>& pairs() noexcept { return pairs_; }
  [[nodiscard]] Counters& counters() noexcept { return counters_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
  Counters counters_;
};

struct JobConfig {
  std::string name = "job";
  std::size_t num_reducers = 4;
  std::size_t records_per_split = 1024;  ///< map input split granularity
  /// The pool the job's tasks run on (not owned); nullptr = the
  /// process-wide pool (common::shared_pool()).  A task may run
  /// parallel_for on it.
  common::ThreadPool* pool = nullptr;
  ClusterConfig cluster{};
  double map_failure_rate = 0.0;  ///< injected per-map-task failure probability
  double reduce_failure_rate = 0.0;  ///< ditto for reduce tasks
  /// Attempt budget per task (Hadoop's mapreduce.map.maxattempts).  Injected
  /// failures always leave the final attempt to succeed, so a job survives
  /// failure_rate = 1.0 at the cost of max_task_attempts-fold re-execution.
  std::size_t max_task_attempts = 4;
  /// Injected stragglers: with this probability a map task's modeled work
  /// is multiplied by `straggler_slowdown` (a slow node / data skew).
  double straggler_rate = 0.0;
  double straggler_slowdown = 4.0;
  /// Model the shuffle per fetch, overlapped with the map phase (the
  /// behaviour of the task-graph runtime).  false = the legacy aggregate
  /// transfer after a map barrier; real output is identical either way.
  bool overlapped_shuffle = true;
  /// Node-failure schedule (empty = fault-free).  Crashes kill running
  /// attempts and invalidate completed map outputs in the simulated
  /// timeline; the real executor re-executes those maps for real (via
  /// runtime::LostInputFailure), so job output stays byte-identical to the
  /// fault-free run as long as the plan leaves one live node (validated).
  faults::FaultPlan fault_plan{};
  std::uint64_t seed = 1;
};

struct JobStats {
  std::size_t map_tasks = 0;
  std::size_t reduce_tasks = 0;
  std::size_t input_records = 0;
  std::size_t map_output_records = 0;     ///< after the combiner, if any
  std::size_t pre_combine_records = 0;    ///< before the combiner
  std::size_t reduce_groups = 0;
  std::size_t output_records = 0;
  std::size_t map_retries = 0;     ///< failed map attempts that were re-run
  std::size_t reduce_retries = 0;  ///< failed reduce attempts that were re-run
  std::size_t max_task_attempts = 0;  ///< the cap the retries ran under
  /// Completed maps re-executed for real because a fault-plan crash
  /// destroyed their output (the executor's view of the plan; does not
  /// count against max_task_attempts).
  std::size_t lost_map_reruns = 0;
  std::size_t node_crashes = 0;       ///< fault-plan crashes (timeline view)
  std::size_t killed_attempts = 0;    ///< sim attempts killed mid-run
  std::size_t lost_map_outputs = 0;   ///< sim map outputs invalidated
  std::size_t blacklisted_nodes = 0;  ///< nodes over max_node_failures
  double shuffle_bytes = 0.0;
  // Byte accounting (single-attempt values from the task specs; retries
  // re-pay the cost in the simulated timeline, not in these totals).
  double map_input_bytes = 0.0;      ///< split bytes the map tasks read
  double reduce_input_bytes = 0.0;   ///< merged run bytes the reducers read
  double reduce_output_bytes = 0.0;  ///< serialized final output bytes
  std::size_t spill_runs = 0;        ///< non-empty per-reducer spill runs
  double spill_bytes = 0.0;          ///< bytes across those runs (== shuffle)
  std::size_t merge_fan_in_max = 0;  ///< widest reduce-side run merge
  /// Measured CPU time of each map task's own thread (not wall), summed;
  /// informational.  Work a task hands to other pool workers through
  /// parallel_for is not counted.
  double map_cpu_s = 0.0;
  double reduce_cpu_s = 0.0;  ///< ditto, summed across reduce tasks
  Counters counters;
  JobTimeline timeline;       ///< deterministic simulated cluster time
};

template <typename Out>
struct JobResult {
  std::vector<Out> output;
  JobStats stats;
};

template <typename In, typename K, typename V, typename Out>
class Job {
 public:
  using Mapper = std::function<void(const In&, Emitter<K, V>&)>;
  /// Whole-split mapper: one call per input split, with the split's global
  /// index.  The batched shape behind the binary columnar shuffle — a job
  /// can emit one packed block per split instead of one value per record,
  /// or write the split in place from record split_index ×
  /// records_per_split on.
  /// Byte/work accounting stays per-record: input bytes and the map work
  /// model are still charged for every record of the split.
  using SplitMapper =
      std::function<void(std::span<const In>, std::size_t, Emitter<K, V>&)>;
  using Reducer =
      std::function<void(const K&, std::vector<V>&, std::vector<Out>&)>;
  /// Reducer overload that can also bump named counters (ReduceContext).
  using ContextReducer = std::function<void(const K&, std::vector<V>&,
                                            std::vector<Out>&, ReduceContext&)>;
  using Combiner = std::function<void(const K&, std::vector<V>&, Emitter<K, V>&)>;
  using Partitioner = std::function<std::size_t(const K&)>;
  using MapWorkModel = std::function<double(const In&)>;
  using ReduceWorkModel = std::function<double(const K&, std::size_t)>;

  // Every mapper runs as a SplitMapper and every reducer as a
  // ContextReducer; the per-record and counter-less forms are wrapped.
  Job(JobConfig config, Mapper mapper, Reducer reducer)
      : Job(std::move(config), per_split(std::move(mapper)),
            with_context(std::move(reducer))) {}

  Job(JobConfig config, Mapper mapper, ContextReducer reducer)
      : Job(std::move(config), per_split(std::move(mapper)),
            std::move(reducer)) {}

  Job(JobConfig config, SplitMapper mapper, Reducer reducer)
      : Job(std::move(config), std::move(mapper),
            with_context(std::move(reducer))) {}

  Job(JobConfig config, SplitMapper mapper, ContextReducer reducer)
      : config_(std::move(config)),
        mapper_(std::move(mapper)),
        reducer_(std::move(reducer)) {
    validate();
  }

  Job& with_combiner(Combiner combiner) {
    combiner_ = std::move(combiner);
    return *this;
  }
  Job& with_partitioner(Partitioner partitioner) {
    partitioner_ = std::move(partitioner);
    return *this;
  }
  /// Deterministic per-record CPU work estimate (sim-time units).
  Job& with_map_work(MapWorkModel model) {
    map_work_ = std::move(model);
    return *this;
  }
  Job& with_reduce_work(ReduceWorkModel model) {
    reduce_work_ = std::move(model);
    return *this;
  }

  /// Run with automatic input splitting (round-robin locality like a DFS
  /// writing splits across nodes).  Map tasks read views of `input`;
  /// nothing is copied.
  JobResult<Out> run(std::span<const In> input) {
    std::vector<std::span<const In>> splits;
    std::vector<int> locality;
    const std::size_t per_split = config_.records_per_split;
    for (std::size_t begin = 0; begin < input.size(); begin += per_split) {
      splits.push_back(
          input.subspan(begin, std::min(per_split, input.size() - begin)));
      locality.push_back(static_cast<int>((begin / per_split) %
                                          config_.cluster.nodes));
    }
    if (splits.empty()) {
      splits.emplace_back();
      locality.push_back(0);
    }
    return run_views(splits, locality);
  }

  /// Run with caller-provided splits (e.g. SimDfs blocks) and their
  /// preferred replica nodes.  Map tasks read views of the split vectors.
  JobResult<Out> run_splits(const std::vector<std::vector<In>>& splits,
                            const std::vector<int>& preferred_nodes) {
    return run_views(
        std::vector<std::span<const In>>(splits.begin(), splits.end()),
        preferred_nodes);
  }

 private:
  JobResult<Out> run_views(const std::vector<std::span<const In>>& splits,
                           const std::vector<int>& preferred_nodes) {
    MRMC_REQUIRE(splits.size() == preferred_nodes.size(),
                 "one preferred node per split");
    auto& tracer = obs::Tracer::global();
    obs::Tracer::Span job_span(tracer, "mr.job " + config_.name,
                               {{"maps", std::to_string(splits.size())},
                                {"reducers",
                                 std::to_string(config_.num_reducers)}});
    // Real wall window of this job, for pipeline-level driver-gap analysis.
    const double wall_start_us = tracer.now_us();
    JobResult<Out> result;
    JobStats& stats = result.stats;
    const std::size_t num_maps = splits.size();
    const std::size_t num_reducers = config_.num_reducers;
    stats.map_tasks = num_maps;
    stats.reduce_tasks = num_reducers;
    stats.max_task_attempts = config_.max_task_attempts;

    // --------------------------------------------------- the task graph
    // map m  ──▶  fetch (m, r)  ──▶  reduce r        (for every m, r)
    //
    // Each slot below is written by exactly one node and read only by nodes
    // downstream of it; the graph's dependency bookkeeping provides the
    // happens-before edges, so no extra locking is needed.
    std::vector<MapTaskOutput> map_outputs(num_maps);
    std::vector<std::vector<Run>> reducer_runs(num_reducers);
    for (auto& runs : reducer_runs) runs.resize(num_maps);
    std::vector<std::vector<double>> fetched_bytes(
        num_reducers, std::vector<double>(num_maps, 0.0));
    std::vector<ReduceTaskOutput> reduce_outputs(num_reducers);

    // Node-failure plan, executor side: the map's output is assumed to live
    // on the node that holds its input split, so each crash of that node
    // after the map completed costs one real re-execution, driven through
    // the designated fetch below via runtime::LostInputFailure.  (The
    // simulator computes its own, placement-exact invalidations; the two
    // are complementary views of the same plan — see DESIGN.md.)
    const bool faulted = !config_.fault_plan.empty();
    std::vector<std::size_t> map_losses(num_maps, 0);
    if (faulted) {
      for (std::size_t m = 0; m < num_maps; ++m) {
        const int node =
            preferred_nodes[m] >= 0
                ? preferred_nodes[m] %
                      static_cast<int>(config_.cluster.nodes)
                : static_cast<int>(m % config_.cluster.nodes);
        map_losses[m] = config_.fault_plan.crash_count(node);
      }
    }
    // Lost-input re-runs rewrite map_outputs[m] while sibling fetches may
    // still be reading it; the per-map guard restores the exclusion the
    // dependency edges alone provide in the fault-free graph.
    const std::unique_ptr<std::mutex[]> map_guards(
        faulted ? new std::mutex[num_maps] : nullptr);

    const bool traced = tracer.enabled();
    runtime::TaskGraph graph;
    std::vector<std::size_t> map_ids(num_maps);
    std::vector<std::size_t> reduce_ids(num_reducers);
    for (std::size_t m = 0; m < num_maps; ++m) {
      const Injection injection = map_injection(m);
      map_ids[m] = graph.add_task(
          [this, &splits, &preferred_nodes, &map_outputs, &map_guards, m,
           injection](std::size_t attempt) {
            // The doomed attempt does the work, then loses it — real
            // re-execution, not a cost multiplier.
            MapTaskOutput output =
                run_map_attempt(splits[m], preferred_nodes[m], m);
            if (attempt < injection.failures) {
              throw runtime::TaskFailure("injected map-task failure");
            }
            std::unique_lock<std::mutex> lock;
            if (map_guards) lock = std::unique_lock(map_guards[m]);
            map_outputs[m] = std::move(output);
          },
          {}, task_options(traced, "map", m));
    }
    for (std::size_t r = 0; r < num_reducers; ++r) {
      std::vector<std::size_t> fetch_ids;
      fetch_ids.reserve(num_maps);
      for (std::size_t m = 0; m < num_maps; ++m) {
        // Exactly one fetch per map (a fixed reducer) reports the lost
        // output, so the re-execution count is the plan's crash count —
        // deterministic at any thread count.
        const bool reports_loss =
            faulted && r == m % num_reducers && map_losses[m] > 0;
        fetch_ids.push_back(graph.add_task(
            [&map_outputs, &reducer_runs, &fetched_bytes, &map_guards,
             &map_losses, &map_ids, reports_loss, r, m](std::size_t attempt) {
              if (reports_loss && attempt < map_losses[m]) {
                throw runtime::LostInputFailure(
                    "map output lost to node failure", map_ids[m]);
              }
              std::unique_lock<std::mutex> lock;
              if (map_guards) lock = std::unique_lock(map_guards[m]);
              reducer_runs[r][m] = std::move(map_outputs[m].runs[r]);
              fetched_bytes[r][m] = map_outputs[m].run_bytes[r];
              auto& progress = obs::progress::Tracker::global();
              if (progress.enabled()) {
                progress.add_bytes(fetched_bytes[r][m]);
              }
            },
            {map_ids[m]}, task_options(traced, "fetch", r, m)));
      }
      const std::size_t failures = injected_reduce_failures(r);
      reduce_ids[r] = graph.add_task(
          [this, &reducer_runs, &fetched_bytes, &reduce_outputs, r,
           failures](std::size_t attempt) {
            const bool doomed = attempt < failures;
            // Doomed attempts read the runs non-destructively so the retry
            // sees pristine input; the final attempt moves the values out.
            ReduceTaskOutput output = run_reduce_attempt(
                reducer_runs[r], fetched_bytes[r], /*destructive=*/!doomed);
            if (doomed) {
              throw runtime::TaskFailure("injected reduce-task failure");
            }
            reduce_outputs[r] = std::move(output);
          },
          std::move(fetch_ids), task_options(traced, "reduce", r));
    }

    {
      // Live-progress bracket around the real execution: plan counts are
      // known from the graph shape (fetch nodes exist for every (m, r)
      // pair), and the RAII scope ends the job line even when a task
      // failure unwinds out of graph.run.
      obs::progress::Tracker::JobScope progress_scope(
          obs::progress::Tracker::global(), config_.name, num_maps,
          num_maps * num_reducers, num_reducers);
      graph.run(config_.pool != nullptr ? *config_.pool
                                        : runtime::shared_pool());
    }

    // ------------------------------- deterministic single-threaded assembly
    std::vector<TaskSpec> map_specs;
    map_specs.reserve(num_maps);
    double shuffle_bytes = 0.0;
    for (std::size_t m = 0; m < num_maps; ++m) {
      MapTaskOutput& task = map_outputs[m];
      stats.input_records += task.records_in;
      stats.pre_combine_records += task.records_pre_combine;
      stats.map_output_records += task.records_out;
      stats.map_cpu_s += task.cpu_s;
      for (const auto& [name, value] : task.counters) stats.counters[name] += value;

      // Lost-input re-runs are not retries: the simulator schedules
      // each invalidated map's re-execution explicitly, so charging them
      // into the spec here would pay the lost work twice.
      const std::size_t reruns =
          faulted ? graph.lost_input_reruns(map_ids[m]) : 0;
      const std::size_t attempts = graph.attempts(map_ids[m]) - reruns;
      stats.map_retries += attempts - 1;
      stats.lost_map_reruns += reruns;
      stats.map_input_bytes += task.spec.input_bytes;
      for (const double bytes : task.run_bytes) {
        if (bytes > 0.0) {
          ++stats.spill_runs;
          stats.spill_bytes += bytes;
        }
      }
      TaskSpec spec = task.spec;
      // Every failed attempt's cost is paid again by its re-execution.
      spec.work *= static_cast<double>(attempts);
      spec.input_bytes *= static_cast<double>(attempts);
      spec.work *= map_injection(m).slowdown;
      shuffle_bytes += spec.output_bytes;
      map_specs.push_back(spec);
    }
    stats.shuffle_bytes = shuffle_bytes;

    std::vector<TaskSpec> reduce_specs;
    reduce_specs.reserve(num_reducers);
    auto& merge_width_hist =
        obs::Registry::global().histogram("runtime.reduce_merge_width");
    for (std::size_t r = 0; r < num_reducers; ++r) {
      ReduceTaskOutput& task = reduce_outputs[r];
      stats.reduce_groups += task.groups;
      stats.reduce_cpu_s += task.cpu_s;
      for (const auto& [name, value] : task.counters) stats.counters[name] += value;
      merge_width_hist.observe(static_cast<double>(task.merge_width));

      const std::size_t attempts = graph.attempts(reduce_ids[r]);
      stats.reduce_retries += attempts - 1;
      stats.reduce_input_bytes += task.spec.input_bytes;
      stats.reduce_output_bytes += task.spec.output_bytes;
      stats.merge_fan_in_max =
          std::max(stats.merge_fan_in_max, task.merge_width);
      TaskSpec spec = task.spec;
      spec.work *= static_cast<double>(attempts);
      spec.input_bytes *= static_cast<double>(attempts);
      reduce_specs.push_back(spec);

      stats.output_records += task.output.size();
      result.output.insert(result.output.end(),
                           std::make_move_iterator(task.output.begin()),
                           std::make_move_iterator(task.output.end()));
    }

    // --------------------------------------------------- simulated timeline
    std::vector<FetchSpec> fetches;
    if (config_.overlapped_shuffle) {
      fetches.reserve(num_maps * num_reducers);
      for (std::size_t m = 0; m < num_maps; ++m) {
        for (std::size_t r = 0; r < num_reducers; ++r) {
          const double bytes = fetched_bytes[r][m];
          if (bytes > 0.0) fetches.push_back({m, r, bytes});
        }
      }
    }
    const SimScheduler scheduler(config_.cluster);
    stats.timeline = simulate_job(scheduler, map_specs, shuffle_bytes, fetches,
                                  reduce_specs, config_.name,
                                  config_.fault_plan);
    stats.node_crashes = stats.timeline.faults.events.size();
    stats.killed_attempts = stats.timeline.faults.killed_attempts;
    stats.lost_map_outputs = stats.timeline.faults.lost_map_outputs;
    stats.blacklisted_nodes = stats.timeline.faults.blacklisted_nodes;
    export_stats(stats);
    job_span.arg("sim_total_s", obs::trace_double(stats.timeline.total_s));
    job_span.arg("shuffle_bytes", obs::trace_double(stats.shuffle_bytes));
    job_span.arg("map_input_bytes",
                 obs::trace_double(stats.map_input_bytes));
    job_span.arg("reduce_output_bytes",
                 obs::trace_double(stats.reduce_output_bytes));
    job_span.arg("spill_runs", std::to_string(stats.spill_runs));
    job_span.arg("merge_fan_in_max",
                 std::to_string(stats.merge_fan_in_max));

    // Cross-job lineage: simulate_job's emit funnel just claimed this job's
    // pipeline slot (same thread), so last_claim() is exactly ours — stamp
    // it onto the wall span and record the wall window for the pipeline
    // doctor's driver-gap analysis.
    if (const std::optional<obs::pipeline::Claim>& claim =
            obs::pipeline::last_claim()) {
      job_span.arg("pipeline", claim->pipeline);
      job_span.arg("stage", claim->stage);
      if (claim->round >= 0) {
        job_span.arg("round", std::to_string(claim->round));
      }
      job_span.arg("sequence", std::to_string(claim->sequence));
      if (tracer.enabled()) {
        // Real-clock instant carrying the wall window as %.17g, so the
        // pipeline report recovers the driver's exact gaps.
        const double wall_end_us = tracer.now_us();
        obs::TraceEvent wall_event;
        wall_event.name = "job_wall";
        wall_event.category = "real";
        wall_event.phase = 'i';
        wall_event.ts_us = wall_start_us;
        wall_event.pid = obs::kRealPid;
        wall_event.args = {{"pipeline", claim->pipeline},
                           {"stage", claim->stage},
                           {"sequence", std::to_string(claim->sequence)},
                           {"start_us", obs::trace_double(wall_start_us)},
                           {"end_us", obs::trace_double(wall_end_us)}};
        tracer.append(std::move(wall_event));
      }
    }
    return result;
  }

  using Run = std::vector<std::pair<K, V>>;

  struct MapTaskOutput {
    std::vector<Run> runs;           ///< per-reducer key-sorted spill runs
    std::vector<double> run_bytes;   ///< serialized size of each run
    TaskSpec spec;                   ///< single-attempt cost
    Counters counters;
    double cpu_s = 0.0;
    std::size_t records_in = 0;
    std::size_t records_pre_combine = 0;
    std::size_t records_out = 0;
  };
  struct ReduceTaskOutput {
    std::vector<Out> output;
    TaskSpec spec;
    Counters counters;
    double cpu_s = 0.0;
    std::size_t groups = 0;
    std::size_t merge_width = 0;  ///< non-empty runs merged
  };

  /// Per-map-task injected faults, derived deterministically from the seed.
  struct Injection {
    std::size_t failures = 0;  ///< attempts that will throw TaskFailure
    double slowdown = 1.0;     ///< straggler work multiplier
  };

  void validate() const {
    mr::validate(config_.cluster);
    MRMC_REQUIRE(config_.num_reducers >= 1, "need at least one reducer");
    MRMC_REQUIRE(config_.records_per_split >= 1, "split size must be positive");
    MRMC_REQUIRE(config_.max_task_attempts >= 1,
                 "max_task_attempts must be >= 1; 0 would mean no attempt "
                 "ever runs");
    MRMC_REQUIRE(
        config_.map_failure_rate >= 0.0 && config_.map_failure_rate <= 1.0,
        "map_failure_rate must be a probability in [0, 1]");
    MRMC_REQUIRE(config_.reduce_failure_rate >= 0.0 &&
                     config_.reduce_failure_rate <= 1.0,
                 "reduce_failure_rate must be a probability in [0, 1]");
    MRMC_REQUIRE(config_.straggler_rate >= 0.0 && config_.straggler_rate <= 1.0,
                 "straggler_rate must be a probability in [0, 1]");
    MRMC_REQUIRE(config_.straggler_slowdown > 0.0,
                 "straggler_slowdown must be positive");
    if (!config_.fault_plan.empty()) {
      config_.fault_plan.validate(config_.cluster.nodes);
    }
    MRMC_CHECK(mapper_ != nullptr, "mapper required");
    MRMC_CHECK(reducer_ != nullptr, "reducer required");
  }

  static SplitMapper per_split(Mapper mapper) {
    if (mapper == nullptr) return nullptr;
    return [mapper = std::move(mapper)](std::span<const In> split, std::size_t,
                                        Emitter<K, V>& emitter) {
      for (const In& record : split) mapper(record, emitter);
    };
  }

  static ContextReducer with_context(Reducer reducer) {
    if (reducer == nullptr) return nullptr;
    return [reducer = std::move(reducer)](const K& key, std::vector<V>& values,
                                          std::vector<Out>& out,
                                          ReduceContext&) {
      reducer(key, values, out);
    };
  }

  /// Draw order matches the pre-task-graph engine (one failure draw, then
  /// the straggler draw) so seeded tests keep their golden values; extra
  /// failure draws happen only after a first hit.  Injected failures are
  /// capped at max_task_attempts - 1: the final attempt always succeeds.
  [[nodiscard]] Injection map_injection(std::size_t task_index) const {
    Injection injection;
    if (config_.map_failure_rate > 0.0 || config_.straggler_rate > 0.0) {
      common::Xoshiro256 rng(common::mix64(config_.seed ^ (task_index + 1)));
      const std::size_t cap = config_.max_task_attempts - 1;
      if (rng.chance(config_.map_failure_rate)) {
        injection.failures = 1;
        while (injection.failures < cap &&
               rng.chance(config_.map_failure_rate)) {
          ++injection.failures;
        }
        injection.failures = std::min(injection.failures, cap);
      }
      if (rng.chance(config_.straggler_rate)) {
        injection.slowdown = config_.straggler_slowdown;
      }
    }
    return injection;
  }

  [[nodiscard]] std::size_t injected_reduce_failures(std::size_t r) const {
    if (config_.reduce_failure_rate <= 0.0) return 0;
    // A distinct stream from the map side so the two fault models compose.
    common::Xoshiro256 rng(
        common::mix64(config_.seed ^ 0xa24baed4963ee407ULL ^ (r + 1)));
    const std::size_t cap = config_.max_task_attempts - 1;
    std::size_t failures = 0;
    if (rng.chance(config_.reduce_failure_rate)) {
      failures = 1;
      while (failures < cap && rng.chance(config_.reduce_failure_rate)) {
        ++failures;
      }
    }
    return std::min(failures, cap);
  }

  [[nodiscard]] runtime::TaskOptions task_options(bool traced, const char* kind,
                                                  std::size_t index,
                                                  std::size_t sub = SIZE_MAX) const {
    runtime::TaskOptions options;
    options.max_attempts = config_.max_task_attempts;
    options.kind = kind[0] == 'm'   ? runtime::TaskKind::kMap
                   : kind[0] == 'f' ? runtime::TaskKind::kFetch
                   : kind[0] == 'r' ? runtime::TaskKind::kReduce
                                    : runtime::TaskKind::kOther;
    if (traced) {
      options.label = config_.name + "/" + kind + " " + std::to_string(index);
      if (sub != SIZE_MAX) options.label += "." + std::to_string(sub);
    }
    return options;
  }

  /// Publish the finished job's stats to the global metrics registry and
  /// the engine log; user counters are exported as `mr.counter.<name>`.
  void export_stats(const JobStats& stats) const {
    auto& registry = obs::Registry::global();
    registry.counter("mr.jobs").inc();
    registry.counter("mr.map_tasks").add(static_cast<long>(stats.map_tasks));
    registry.counter("mr.reduce_tasks")
        .add(static_cast<long>(stats.reduce_tasks));
    registry.counter("mr.map_retries").add(static_cast<long>(stats.map_retries));
    registry.counter("mr.reduce_retries")
        .add(static_cast<long>(stats.reduce_retries));
    registry.counter("mr.lost_map_reruns")
        .add(static_cast<long>(stats.lost_map_reruns));
    registry.counter("mr.input_records")
        .add(static_cast<long>(stats.input_records));
    registry.counter("mr.map_output_records")
        .add(static_cast<long>(stats.map_output_records));
    registry.counter("mr.output_records")
        .add(static_cast<long>(stats.output_records));
    registry.counter("mr.map_input_bytes")
        .add(static_cast<long>(stats.map_input_bytes));
    registry.counter("mr.reduce_input_bytes")
        .add(static_cast<long>(stats.reduce_input_bytes));
    registry.counter("mr.reduce_output_bytes")
        .add(static_cast<long>(stats.reduce_output_bytes));
    registry.counter("mr.spill_runs").add(static_cast<long>(stats.spill_runs));
    registry.counter("mr.spill_bytes")
        .add(static_cast<long>(stats.spill_bytes));
    for (const auto& [name, value] : stats.counters) {
      registry.counter("mr.counter." + name).add(value);
    }

    static const obs::Logger logger("mr.job");
    if (logger.enabled(obs::LogLevel::kInfo)) {
      logger.info("job finished",
                  {{"job", config_.name},
                   {"maps", stats.map_tasks},
                   {"reducers", stats.reduce_tasks},
                   {"input_records", stats.input_records},
                   {"output_records", stats.output_records},
                   {"map_retries", stats.map_retries},
                   {"reduce_retries", stats.reduce_retries},
                   {"lost_map_reruns", stats.lost_map_reruns},
                   {"shuffle_bytes", stats.shuffle_bytes},
                   {"map_cpu_s", stats.map_cpu_s},
                   {"reduce_cpu_s", stats.reduce_cpu_s},
                   {"sim_total_s", stats.timeline.total_s}});
    }
  }

  [[nodiscard]] std::size_t partition_of(const K& key) const {
    if (partitioner_) return partitioner_(key) % config_.num_reducers;
    // Stable FNV-1a over the key's serialized form: the same key lands on
    // the same reducer on every platform and standard library, so
    // JobStats, shuffle bytes, and the simulated timeline reproduce
    // everywhere (std::hash guarantees none of that).
    return static_cast<std::size_t>(stable_hash(key) %
                                    static_cast<std::uint64_t>(
                                        config_.num_reducers));
  }

  /// Sort pairs by key and fold each group through `fn`.
  template <typename Fn>
  static void for_each_group(std::vector<std::pair<K, V>>& pairs, Fn&& fn) {
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t begin = 0;
    while (begin < pairs.size()) {
      std::size_t end = begin + 1;
      while (end < pairs.size() && !(pairs[begin].first < pairs[end].first)) ++end;
      std::vector<V> values;
      values.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        values.push_back(std::move(pairs[i].second));
      }
      fn(pairs[begin].first, values);
      begin = end;
    }
  }

  /// One map attempt: map every record, combine, partition into per-reducer
  /// runs and sort each run by key (the "spill" a Hadoop mapper writes).
  MapTaskOutput run_map_attempt(std::span<const In> split, int preferred_node,
                                std::size_t split_index) {
    MapTaskOutput task;

    // Thread CPU clock, not wall: the task shares a core with its siblings.
    common::ThreadCpuStopwatch watch;
    Emitter<K, V> emitter;
    double input_bytes = 0.0;
    double work = 0.0;
    mapper_(split, split_index, emitter);
    for (const In& record : split) {
      input_bytes += approx_bytes(record);
      // Default work model: 1 microsecond of reference-node CPU per record
      // (typical lightweight Hadoop record processing).
      work += map_work_ ? map_work_(record) : 1e-6;
    }
    task.records_in = split.size();
    task.records_pre_combine = emitter.pairs().size();

    std::vector<std::pair<K, V>> pairs = std::move(emitter.pairs());
    if (combiner_) {
      Emitter<K, V> combined;
      for_each_group(pairs, [&](const K& key, std::vector<V>& values) {
        combiner_(key, values, combined);
      });
      pairs = std::move(combined.pairs());
      for (const auto& [name, value] : combined.counters()) {
        emitter.counters()[name] += value;
      }
    }
    task.records_out = pairs.size();

    task.runs.resize(config_.num_reducers);
    task.run_bytes.assign(config_.num_reducers, 0.0);
    for (auto& pair : pairs) {
      const std::size_t r = partition_of(pair.first);
      task.run_bytes[r] += approx_bytes(pair);
      task.runs[r].push_back(std::move(pair));
    }
    double output_bytes = 0.0;
    for (const double bytes : task.run_bytes) output_bytes += bytes;
    // Sorted-run invariant: ascending by key, stable in emission order.
    for (Run& run : task.runs) {
      std::stable_sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
    }

    task.cpu_s = watch.seconds();
    task.counters = std::move(emitter.counters());
    task.spec = TaskSpec{work, input_bytes, output_bytes, preferred_node};
    return task;
  }

  /// One reduce attempt: a stable k-way merge over the fetched sorted runs.
  /// Equal keys are consumed lowest-map-index first, each run in emission
  /// order — the exact order the old concatenate + stable_sort produced.
  ReduceTaskOutput run_reduce_attempt(std::vector<Run>& runs,
                                      const std::vector<double>& run_bytes,
                                      bool destructive) {
    ReduceTaskOutput task;

    common::ThreadCpuStopwatch watch;
    double input_bytes = 0.0;
    for (const double bytes : run_bytes) input_bytes += bytes;

    // Min-heap of run indices, ordered by (head key, run index).
    std::vector<std::size_t> position(runs.size(), 0);
    const auto cursor_greater = [&](std::size_t a, std::size_t b) {
      const K& key_a = runs[a][position[a]].first;
      const K& key_b = runs[b][position[b]].first;
      if (key_a < key_b) return false;
      if (key_b < key_a) return true;
      return a > b;
    };
    std::vector<std::size_t> heap;
    for (std::size_t m = 0; m < runs.size(); ++m) {
      if (!runs[m].empty()) {
        heap.push_back(m);
        ++task.merge_width;
      }
    }
    std::make_heap(heap.begin(), heap.end(), cursor_greater);

    ReduceContext context;
    double work = 0.0;
    std::vector<V> values;
    while (!heap.empty()) {
      const K group_key = runs[heap.front()][position[heap.front()]].first;
      values.clear();
      while (!heap.empty()) {
        const std::size_t m = heap.front();
        if (group_key < runs[m][position[m]].first) break;
        std::pop_heap(heap.begin(), heap.end(), cursor_greater);
        heap.pop_back();
        // Keys are consecutive within a sorted run: drain the whole group.
        while (position[m] < runs[m].size() &&
               !(group_key < runs[m][position[m]].first)) {
          V& value = runs[m][position[m]].second;
          values.push_back(destructive ? std::move(value) : V(value));
          ++position[m];
        }
        if (position[m] < runs[m].size()) {
          heap.push_back(m);
          std::push_heap(heap.begin(), heap.end(), cursor_greater);
        }
      }
      ++task.groups;
      work += reduce_work_ ? reduce_work_(group_key, values.size())
                           : 1e-6 * static_cast<double>(values.size());
      reducer_(group_key, values, task.output, context);
    }
    task.counters = std::move(context.counters());

    double output_bytes = 0.0;
    for (const Out& out : task.output) output_bytes += approx_bytes(out);
    task.cpu_s = watch.seconds();
    task.spec = TaskSpec{work, input_bytes, output_bytes, -1};
    return task;
  }

  JobConfig config_;
  SplitMapper mapper_;
  ContextReducer reducer_;
  Combiner combiner_;
  Partitioner partitioner_;
  MapWorkModel map_work_;
  ReduceWorkModel reduce_work_;
};

}  // namespace mrmc::mr
