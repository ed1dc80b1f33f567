// Figure 2 reproduction — runtime of MrMC-MinH^h versus number of cluster
// nodes (2..12) and input size (1 K .. 10 M reads from benchmark S1).
//
// Two modes:
//  * analytic (default): the pipeline's deterministic cost models
//    (core::cost) generate the sketch-job and similarity-job task lists for
//    each (nodes, reads) point and the SimScheduler computes the makespan —
//    this is how we sweep to 10 M reads on one machine.  The model is the
//    same one the executed pipeline uses, validated against real execution
//    by tests and by --validate.
//  * --validate: additionally *executes* the pipeline at small sizes and
//    prints simulated vs measured wall time so the model's shape can be
//    checked end to end.
//
// Expected shape (paper): small inputs are flat in node count (no
// parallelism to exploit); large inputs keep improving through 12 nodes.
//
//   ./fig2_scalability [--max-reads=10000000] [--read-length=1000]
//       [--hashes=100] [--validate] [--seed=42]
//       [--trace=fig2.json]   # Chrome trace of every simulated job
//       [--metrics]           # print the obs metrics snapshot at the end
//       [--report=fig2.txt]   # job-doctor report (.json: JSON; bare: stdout)
//       [--bench-json[=path]] # machine-readable BENCH_fig2.json record
//       [--node-failures]     # makespan-vs-crash-count sweep at 4/8/12
//                             # nodes; writes BENCH_fig2_faults.json
//       [--faults-reads=N]    # input size for the fault sweep (default 1 M)
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "mr/cluster.hpp"
#include "mr/faults.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

using namespace mrmc;

namespace {

/// One simulated pipeline run: the end-to-end time plus whatever the fault
/// schedule cost it (all zero for fault-free runs).
struct SimPoint {
  double total_s = 0.0;
  /// Longest job with more than one task — the window where a crash can
  /// actually cost something.  (The GROUP-ALL clustering job is a single
  /// reducer on the never-crashed node 0, so it is immune by construction.)
  double fault_horizon_s = 0.0;
  std::size_t killed_attempts = 0;
  std::size_t lost_map_outputs = 0;
  std::size_t node_crashes = 0;
  std::size_t blacklisted_nodes = 0;
};

/// Suffix naming one (reads, nodes) point's jobs, e.g. "[1000r/2n]".
std::string point_tag(std::size_t reads, std::size_t nodes) {
  return "[" + std::to_string(reads) + "r/" + std::to_string(nodes) + "n]";
}

/// Simulated end-to-end hierarchical-pipeline time for `reads` reads on
/// `nodes` nodes, built from the same cost models the executed pipeline
/// uses (sketch map work, similarity row work, dendrogram reduce work).
/// A non-empty `plan` injects the same node-failure schedule into each of
/// the three jobs (each job runs on its own clock, like the pipeline does).
SimPoint simulate_hierarchical(std::size_t reads, std::size_t read_length,
                               std::size_t hashes, std::size_t nodes,
                               const mr::faults::FaultPlan& plan = {}) {
  mr::ClusterConfig cluster;
  cluster.nodes = nodes;
  const mr::SimScheduler scheduler(cluster);
  const std::string tag = point_tag(reads, nodes);
  const auto run_job = [&](std::span<const mr::TaskSpec> maps, double bytes,
                           std::span<const mr::TaskSpec> reduces,
                           const std::string& name) {
    return simulate_job(scheduler, maps, bytes, {}, reduces, name, plan);
  };

  const double read_bytes = static_cast<double>(read_length) + 48.0;
  const double sketch_bytes = core::cost::sketch_bytes(hashes);

  // --- Job 1: sketch.  One map task per 1024-read split.
  const std::size_t sketch_splits = std::max<std::size_t>(1, reads / 1024);
  const double reads_per_split =
      static_cast<double>(reads) / static_cast<double>(sketch_splits);
  std::vector<mr::TaskSpec> sketch_maps(
      sketch_splits,
      {reads_per_split * core::cost::sketch_work(read_length, hashes),
       reads_per_split * read_bytes, reads_per_split * sketch_bytes, -1});
  std::vector<mr::TaskSpec> sketch_reduces(
      cluster.reduce_slots(),
      {1e-6, static_cast<double>(reads) * sketch_bytes /
                 static_cast<double>(cluster.reduce_slots()),
       static_cast<double>(reads) * sketch_bytes /
           static_cast<double>(cluster.reduce_slots()),
       -1});
  const auto job1 =
      run_job(sketch_maps, static_cast<double>(reads) * sketch_bytes,
              sketch_reduces, "sketch " + tag);

  // --- Job 2: similarity matrix, row-partitioned.  Each map split covers a
  // contiguous row range; work is the number of pairs in the range.
  const std::size_t row_splits = cluster.map_slots() * 4;
  std::vector<mr::TaskSpec> sim_maps;
  sim_maps.reserve(row_splits);
  const double n = static_cast<double>(reads);
  double row_begin = 0;
  for (std::size_t s = 0; s < row_splits; ++s) {
    const double row_end = n * static_cast<double>(s + 1) /
                           static_cast<double>(row_splits);
    // sum over rows r in [begin,end) of (n - r - 1)
    const double rows = row_end - row_begin;
    const double pairs = rows * n - (row_end * row_end - row_begin * row_begin) / 2.0;
    sim_maps.push_back({pairs * core::cost::compare_work(hashes),
                        rows * sketch_bytes, pairs * 4.0, -1});
    row_begin = row_end;
  }
  const double matrix_bytes = n * (n - 1) / 2.0 * 4.0;
  std::vector<mr::TaskSpec> sim_reduces(
      cluster.reduce_slots(),
      {1e-6, matrix_bytes / static_cast<double>(cluster.reduce_slots()),
       matrix_bytes / static_cast<double>(cluster.reduce_slots()), -1});
  const auto job2 =
      run_job(sim_maps, matrix_bytes, sim_reduces, "similarity " + tag);

  // --- Job 3: clustering, single GROUP-ALL reducer.
  std::vector<mr::TaskSpec> cluster_reduce{
      {core::cost::dendrogram_work(reads), matrix_bytes, n * 8.0, -1}};
  const auto job3 = run_job({}, matrix_bytes, cluster_reduce, "cluster " + tag);

  SimPoint point;
  point.fault_horizon_s = std::max(job1.total_s, job2.total_s);
  for (const auto* job : {&job1, &job2, &job3}) {
    point.total_s += job->total_s;
    point.killed_attempts += job->faults.killed_attempts;
    point.lost_map_outputs += job->faults.lost_map_outputs;
    // Every job replays the same plan, so crash/blacklist counts repeat
    // per job rather than adding up.
    point.node_crashes =
        std::max(point.node_crashes, job->faults.events.size());
    point.blacklisted_nodes =
        std::max(point.blacklisted_nodes, job->faults.blacklisted_nodes);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const std::size_t max_reads = flags.num("max-reads", 10'000'000);
  const std::size_t read_length = flags.num("read-length", 1000);
  const std::size_t hashes = flags.num("hashes", 100);
  const std::uint64_t seed = flags.num("seed", 42);

  bench::apply_obs_flags(flags);
  // --bench-json rows carry per-point job reports, which are built from the
  // tracer's events, so it turns on (in-memory) tracing.
  const bool bench_json = flags.flag("bench-json");
  if (bench_json) obs::Tracer::global().set_enabled(true);
  bench::BenchRecord record("fig2", {"reads", "nodes"});

  const std::vector<std::size_t> node_counts{2, 4, 6, 8, 10, 12};
  std::vector<std::size_t> read_counts;
  for (std::size_t reads = 1000; reads <= max_reads; reads *= 10) {
    read_counts.push_back(reads);
  }

  common::TextTable table({"# Reads", "2 nodes", "4 nodes", "6 nodes",
                           "8 nodes", "10 nodes", "12 nodes"});
  for (const std::size_t reads : read_counts) {
    std::vector<std::string> row{std::to_string(reads)};
    for (const std::size_t nodes : node_counts) {
      const double seconds =
          simulate_hierarchical(reads, read_length, hashes, nodes).total_s;
      row.push_back(common::format_duration(seconds));
    }
    table.add_row(std::move(row));
  }
  if (bench_json) {
    const std::vector<obs::report::JobInput> jobs =
        obs::report::jobs_from_trace(
            obs::report::trace_root(obs::Tracer::global()));
    for (const std::size_t reads : read_counts) {
      for (const std::size_t nodes : node_counts) {
        // Aggregate the point's jobs (sketch, similarity, cluster) into one
        // record row: the makespan, busy/capacity efficiency, and every
        // finding id.  The job totals add up in simulation order, exactly
        // as simulate_hierarchical sums them.
        const std::string tag = point_tag(reads, nodes);
        double seconds = 0.0, busy = 0.0, capacity = 0.0;
        std::string findings;
        for (const obs::report::JobInput& job : jobs) {
          if (!job.name.ends_with(tag)) continue;
          const obs::report::JobReport report = obs::report::analyze(job);
          seconds += report.total_s;
          busy += report.map_phase.busy_s + report.reduce_phase.busy_s;
          capacity +=
              report.map_phase.makespan_s *
                  static_cast<double>(report.map_phase.slots) +
              report.reduce_phase.makespan_s *
                  static_cast<double>(report.reduce_phase.slots);
          for (const auto& finding : report.findings) {
            if (!findings.empty()) findings += ",";
            findings += finding.id;
          }
        }
        record.row()
            .num("reads", static_cast<long>(reads))
            .num("nodes", static_cast<long>(nodes))
            .num("sim_total_s", seconds)
            .num("parallel_efficiency", capacity > 0.0 ? busy / capacity : 0.0)
            .str("findings", findings);
      }
    }
  }
  std::cout << "Figure 2 — simulated MrMC-MinH^h runtime vs nodes and reads\n"
            << "(S1-style reads of " << read_length << " bp, " << hashes
            << " hash functions; EMR M1-Large-calibrated cost model)\n";
  table.print(std::cout);

  if (flags.flag("validate")) {
    std::cout << "\nValidation — executed pipeline vs analytic model\n";
    common::TextTable check({"# Reads", "Nodes", "Model", "Pipeline sim",
                             "Wall (this host)"});
    for (const std::size_t reads : {400u, 800u}) {
      const auto& spec = simdata::whole_metagenome_spec("S1");
      const auto sample = simdata::build_whole_metagenome(
          spec, {.reads = reads, .read_length = read_length, .seed = seed});
      for (const std::size_t nodes : {2u, 8u}) {
        const auto result = bench::run_mrmc(sample, core::Mode::kHierarchical, 5,
                                            hashes, 0.5, nodes, seed);
        check.add_row(
            {std::to_string(reads), std::to_string(nodes),
             common::format_duration(
                 simulate_hierarchical(reads, read_length, hashes, nodes)
                     .total_s),
             common::format_duration(result.sim_s),
             common::format_duration(result.wall_s)});
      }
    }
    check.print(std::cout);
  }

  if (flags.flag("node-failures")) {
    // Makespan vs injected crash count: the fault-tolerance counterpart of
    // the scalability table.  Each point reruns the pipeline under a seeded
    // FaultPlan::random schedule.  The plan replays on every job's own
    // clock, so its horizon is the longest crashable fault-free job —
    // crashes then land while many tasks are in flight instead of in the
    // dead air after the shorter jobs finish.  Node 0 never crashes,
    // keeping every plan survivable.  Always written as
    // BENCH_fig2_faults.json for CI.
    const std::size_t fault_reads = flags.num("faults-reads", 1'000'000);
    bench::BenchRecord fault_record("fig2_faults",
                                    {"nodes", "crashes", "plan_seed"});
    common::TextTable fault_table({"Nodes", "Crashes", "Fault-free", "Faulted",
                                   "Slowdown", "Killed", "Lost outputs",
                                   "Blacklisted"});
    for (const std::size_t nodes : {4u, 8u, 12u}) {
      const SimPoint baseline =
          simulate_hierarchical(fault_reads, read_length, hashes, nodes);
      for (const std::size_t crashes : {0u, 1u, 2u, 3u}) {
        const std::uint64_t plan_seed = seed + 97 * nodes + crashes;
        const mr::faults::FaultPlan plan =
            crashes == 0 ? mr::faults::FaultPlan{}
                         : mr::faults::FaultPlan::random(
                               plan_seed, nodes, crashes,
                               baseline.fault_horizon_s);
        const SimPoint point =
            crashes == 0 ? baseline
                         : simulate_hierarchical(fault_reads, read_length,
                                                 hashes, nodes, plan);
        const double slowdown =
            baseline.total_s > 0.0 ? point.total_s / baseline.total_s : 1.0;
        char slowdown_text[32];
        std::snprintf(slowdown_text, sizeof(slowdown_text), "%.2fx", slowdown);
        fault_table.add_row({std::to_string(nodes), std::to_string(crashes),
                             common::format_duration(baseline.total_s),
                             common::format_duration(point.total_s),
                             slowdown_text,
                             std::to_string(point.killed_attempts),
                             std::to_string(point.lost_map_outputs),
                             std::to_string(point.blacklisted_nodes)});
        fault_record.row()
            .num("nodes", static_cast<long>(nodes))
            .num("crashes", static_cast<long>(crashes))
            .num("plan_seed", static_cast<long>(plan_seed))
            .num("fault_free_s", baseline.total_s)
            .num("faulted_s", point.total_s)
            .num("slowdown", slowdown)
            .num("killed_attempts", static_cast<long>(point.killed_attempts))
            .num("lost_map_outputs",
                 static_cast<long>(point.lost_map_outputs))
            .num("node_crashes", static_cast<long>(point.node_crashes))
            .num("blacklisted_nodes",
                 static_cast<long>(point.blacklisted_nodes));
      }
    }
    std::cout << "\nFault sweep — makespan vs injected node crashes ("
              << fault_reads << " reads)\n";
    fault_table.print(std::cout);
    if (fault_record.write(fault_record.default_path())) {
      std::cout << "wrote fault sweep record to " << fault_record.default_path()
                << "\n";
    }
  }

  if (bench_json) {
    const std::string bench_path = flags.str("bench-json", "1") == "1"
                                       ? record.default_path()
                                       : flags.str("bench-json", "");
    if (record.write(bench_path)) {
      std::cout << "\nwrote bench record to " << bench_path << "\n";
    }
  }
  bench::finish_obs(flags);
  return 0;
}
