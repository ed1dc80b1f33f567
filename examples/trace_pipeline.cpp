// Observability walkthrough: run the MrMC-MinH pipeline on a small simulated
// metagenome with tracing and metrics enabled, then write
//
//   * a Chrome trace-event file — wall-clock spans of every pipeline stage
//     and MapReduce phase on one track group, and each simulated job's
//     per-task node/slot placement on its own track group (open the file in
//     Perfetto or chrome://tracing), and
//   * a metrics snapshot — engine counters (shuffle bytes, retries,
//     data-local tasks) and per-phase simulated-duration histograms
//     (now with p50/p95/p99 estimates), and
//   * a job-doctor report — critical-path decomposition, utilization, and
//     findings for every simulated job, printed below and written to a file,
//     and
//   * a pipeline-doctor report — the jobs of each run_pipeline call stitched
//     into one end-to-end view (per-stage critical path, aggregate shuffle
//     bytes, stage-level findings), printed below and written to a file.
//     Both reports are JSON for a .json path and text otherwise.
//
//   ./trace_pipeline [reads] [trace.json] [metrics.txt] [report.json]
//       [pipeline.json]
//
// The same artifacts come out of ANY pipeline run via environment variables:
//   MRMC_TRACE=out.json MRMC_METRICS=metrics.txt MRMC_REPORT=report.json
//       ./quickstart   (all three on one command line)
// and the trace file can be re-analyzed offline: mrmc_doctor out.json
#include <fstream>
#include <iostream>
#include <vector>

#include "cli.hpp"
#include "common/mini_json.hpp"
#include "core/mrmc.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "simdata/datasets.hpp"

int main(int argc, char** argv) {
  using namespace mrmc;

  return examples::run_main("trace_pipeline", [&] {
    const std::size_t reads =
        argc > 1 ? examples::parse_arg<std::size_t>("reads", argv[1], 1,
                                                    examples::kMaxReads)
                 : 600;
    const std::string trace_path = argc > 2 ? argv[2] : "trace_pipeline.json";
    const std::string metrics_path = argc > 3 ? argv[3] : "trace_pipeline_metrics.txt";
    const std::string report_path = argc > 4 ? argv[4] : "trace_pipeline_report.json";
    const std::string pipeline_path =
        argc > 5 ? argv[5] : "trace_pipeline_pipeline.json";

    auto& tracer = obs::Tracer::global();
    tracer.set_output_path(trace_path);
    tracer.set_enabled(true);
    obs::LogConfig::global().set_default_level(obs::LogLevel::kInfo);

    // An S2-style two-species sample, clustered with both pipeline variants so
    // the trace shows all three job shapes (sketch, similarity, cluster).
    const auto& spec = simdata::whole_metagenome_spec("S2");
    simdata::WholeMetagenomeOptions options;
    options.reads = reads;
    const simdata::LabeledReads sample =
        simdata::build_whole_metagenome(spec, options);

    core::PipelineParams params;
    params.minhash = {.kmer = 5, .num_hashes = 100, .canonical = true, .seed = 1};
    for (const core::Mode mode : {core::Mode::kHierarchical, core::Mode::kGreedy}) {
      params.mode = mode;
      params.theta = mode == core::Mode::kHierarchical ? 0.54 : 0.32;
      const core::PipelineResult result = core::run_pipeline(sample.reads, params);
      std::cout << core::mode_name(mode) << ": clusters=" << result.num_clusters
                << " sim=" << common::format_duration(result.sim_total_s)
                << " (sketch " << common::format_duration(
                       result.sketch_stats.timeline.total_s)
                << ", cluster " << common::format_duration(
                       result.cluster_stats.timeline.total_s)
                << ")\n";
    }

    if (!tracer.flush()) {
      std::cerr << "failed to write " << trace_path << "\n";
      return 1;
    }
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    std::ofstream metrics_out(metrics_path);
    metrics_out << snapshot.to_text();
    if (!metrics_out.good()) {
      std::cerr << "failed to write " << metrics_path << "\n";
      return 1;
    }

    std::cout << "\nwrote " << tracer.size() << " trace events to " << trace_path
              << " (open in Perfetto or chrome://tracing)\n"
              << "wrote metrics snapshot to " << metrics_path << "; highlights:\n";
    for (const char* key :
         {"mr.shuffle_bytes", "mr.map_retries", "mr.data_local_tasks",
          "mr.jobs", "mr.counter.reads.sketched", "mr.counter.clusters.formed"}) {
      const auto it = snapshot.counters.find(key);
      if (it != snapshot.counters.end()) {
        std::cout << "  " << it->first << " = " << it->second << "\n";
      }
    }
    for (const auto& [name, hist] : snapshot.histograms) {
      std::cout << "  " << name << ": count=" << hist.count
                << " mean=" << hist.mean() << " p95=" << hist.percentile(0.95)
                << "\n";
    }

    // The job doctor, built from the tracer's events: the same reconstruction
    // mrmc_doctor runs on the flushed trace file.
    const common::JsonValue trace = obs::report::trace_root(tracer);
    const std::vector<obs::report::JobInput> jobs =
        obs::report::jobs_from_trace(trace);
    std::cout << "\nJob doctor (" << jobs.size() << " simulated jobs)\n"
              << obs::report::render(jobs, "text");
    if (obs::report::write_report(report_path, jobs)) {
      std::cout << "wrote job report to " << report_path << "\n";
    }

    // The pipeline doctor: both run_pipeline calls stitched end to end — the
    // same view `mrmc_doctor pipeline <trace>` prints.
    const std::vector<obs::pipeline::PipelineReport> pipeline_reports =
        obs::pipeline::analyze_trace(trace);
    std::cout << "\nPipeline doctor (" << pipeline_reports.size()
              << " pipelines)\n"
              << obs::pipeline::render(pipeline_reports, "text");
    if (obs::pipeline::write_report(pipeline_path, pipeline_reports)) {
      std::cout << "wrote pipeline report to " << pipeline_path << "\n";
    }
    return 0;
  });
}
