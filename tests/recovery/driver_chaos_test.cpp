// Driver-scope chaos tests: the recovery layer's headline invariant.  For
// every pipeline shape, kill the driver (MRMC_CRASH_AFTER_STAGE) after each
// stage in turn — across fault plans and thread counts — and the resumed
// run must produce byte-identical cluster labels with every completed
// stage served from checkpoint (asserted via the hit counters).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/candidate_jobs.hpp"
#include "core/candidates.hpp"
#include "core/hierarchical.hpp"
#include "core/minhash.hpp"
#include "core/pipeline.hpp"
#include "mr/faults.hpp"
#include "mr/recovery.hpp"
#include "mr/runtime.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::core {
namespace {

/// setenv/unsetenv with restore — the recovery hooks read the environment.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    ::setenv(name_.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

std::string fresh_dir(const std::string& tag) {
  static int serial = 0;
  const std::string dir =
      ::testing::TempDir() + "/mrmc_chaos_" + tag + std::to_string(serial++);
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<bio::FastaRecord> sample_reads() {
  return simdata::build_whole_metagenome(simdata::whole_metagenome_spec("S8"),
                                         {.reads = 50, .seed = 5})
      .reads;
}

struct PipelineCase {
  std::string name;
  PipelineParams params;
  std::vector<std::string> stages;  ///< driver stage names, in order
};

std::vector<PipelineCase> pipeline_cases() {
  MinHashParams minhash{.kmer = 5, .num_hashes = 32, .canonical = true,
                        .seed = 1};
  PipelineCase exact_greedy;
  exact_greedy.name = "exact-greedy";
  exact_greedy.params.minhash = minhash;
  exact_greedy.params.mode = Mode::kGreedy;
  exact_greedy.params.theta = 0.3;
  exact_greedy.stages = {"sketch", "greedy-cluster"};

  PipelineCase exact_hier;
  exact_hier.name = "exact-hierarchical";
  exact_hier.params.minhash = minhash;
  exact_hier.params.mode = Mode::kHierarchical;
  exact_hier.params.theta = 0.5;
  exact_hier.stages = {"sketch", "similarity", "hierarchical-cluster"};

  PipelineCase lsh_greedy;
  lsh_greedy.name = "lsh-greedy";
  lsh_greedy.params.minhash = minhash;
  lsh_greedy.params.mode = Mode::kGreedy;
  lsh_greedy.params.theta = 0.3;
  lsh_greedy.params.candidates.backend = candidates::Backend::kLshBanded;
  lsh_greedy.stages = {"sketch", "candidates", "greedy-cluster"};

  // The hierarchical LSH path is the one that still verifies pairs.
  PipelineCase lsh_hier = exact_hier;
  lsh_hier.name = "lsh-hierarchical";
  lsh_hier.params.candidates.backend = candidates::Backend::kLshBanded;
  lsh_hier.stages = {"sketch", "candidates", "verify", "hierarchical-cluster"};

  return {exact_greedy, exact_hier, lsh_greedy, lsh_hier};
}

ExecutionOptions exec_options(std::size_t threads,
                              const mr::faults::FaultPlan& plan,
                              const std::string& checkpoint_dir) {
  ExecutionOptions exec;
  exec.threads = threads;
  exec.records_per_split = 16;
  exec.fault_plan = plan;
  exec.checkpoint_dir = checkpoint_dir;
  return exec;
}

TEST(DriverChaos, KillAfterEveryStageResumesByteIdentical) {
  const auto reads = sample_reads();
  const std::vector<std::pair<std::string, mr::faults::FaultPlan>> plans = {
      {"fault-free", {}},
      {"recovering-node", mr::faults::FaultPlan({{1, 9.0, 40.0}})},
  };

  for (const PipelineCase& c : pipeline_cases()) {
    // One uncheckpointed, fault-free baseline per shape; every kill/resume
    // combination below must reproduce exactly these labels.
    const PipelineResult baseline =
        run_pipeline(reads, c.params, exec_options(2, {}, ""));
    ASSERT_EQ(baseline.labels.size(), reads.size());

    for (const auto& [plan_name, plan] : plans) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        for (std::size_t kill = 0; kill < c.stages.size(); ++kill) {
          SCOPED_TRACE(c.name + " / " + plan_name + " / threads=" +
                       std::to_string(threads) + " / kill-after=" +
                       c.stages[kill]);
          const std::string dir = fresh_dir(c.name);
          {
            ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", c.stages[kill]);
            EXPECT_THROW(
                run_pipeline(reads, c.params,
                             exec_options(threads, plan, dir)),
                mr::recovery::InjectedDriverCrash);
          }
          const PipelineResult resumed = run_pipeline(
              reads, c.params, exec_options(threads, plan, dir));

          EXPECT_EQ(resumed.labels, baseline.labels);
          EXPECT_EQ(resumed.num_clusters, baseline.num_clusters);
          // Every stage the crashed run completed is served from disk.
          EXPECT_EQ(resumed.recovery.stages, c.stages.size());
          EXPECT_EQ(resumed.recovery.checkpoint_hits, kill + 1);
          EXPECT_EQ(resumed.recovery.checkpoint_misses,
                    c.stages.size() - kill - 1);
          EXPECT_EQ(resumed.recovery.checkpoint_writes,
                    resumed.recovery.checkpoint_misses);
          EXPECT_EQ(resumed.recovery.invalid_checkpoints, 0u);
        }
      }
    }
  }
}

TEST(DriverChaos, ParkedDriverResumesAfterTheClusterIsRepaired) {
  const auto reads = sample_reads();
  const PipelineCase c = pipeline_cases()[0];  // exact-greedy
  const PipelineResult baseline =
      run_pipeline(reads, c.params, exec_options(2, {}, ""));

  // Crash after "sketch" on a healthy cluster, then try to resume under a
  // plan that strands every node: the driver parks instead of failing, and
  // the sketch checkpoint survives for the repaired run.
  const std::string dir = fresh_dir("park");
  {
    ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", "sketch");
    EXPECT_THROW(run_pipeline(reads, c.params, exec_options(2, {}, dir)),
                 mr::recovery::InjectedDriverCrash);
  }
  const mr::faults::FaultPlan dead_cluster(
      {{0, 0.0, mr::faults::kNever},
       {1, 0.0, mr::faults::kNever},
       {2, 0.0, mr::faults::kNever},
       {3, 0.0, mr::faults::kNever}});
  ASSERT_FALSE(dead_cluster.leaves_schedulable(4));
  try {
    (void)run_pipeline(reads, c.params, exec_options(2, dead_cluster, dir));
    FAIL() << "expected DriverParked";
  } catch (const mr::recovery::DriverParked& parked) {
    EXPECT_NE(std::string(parked.what()).find("schedulable"),
              std::string::npos);
  }

  // Operator repairs the plan; the resumed run hits the parked-run's
  // checkpoints and matches the clean labels.
  const PipelineResult resumed =
      run_pipeline(reads, c.params, exec_options(2, {}, dir));
  EXPECT_EQ(resumed.labels, baseline.labels);
  EXPECT_EQ(resumed.recovery.checkpoint_hits, 1u);  // "sketch"
  EXPECT_FALSE(resumed.recovery.parked);
}

TEST(DriverChaos, ReExecutedSketchMapsLeaveTheCodeTableLabelsByteIdentical) {
  // Node 1 dies just after every job starts, killing the map attempts it
  // runs: the k = 5 sketch job's rows of 16-bit codes are then rewritten in
  // place by re-executed map attempts, and every shape still gives its
  // fault-free labels.
  const auto reads = sample_reads();
  const ExecutionOptions fault_free = exec_options(2, {}, "");
  const mr::faults::FaultPlan plan(
      {{1, fault_free.cluster.job_startup_s + 0.1, mr::faults::kNever}});
  for (const PipelineCase& c : pipeline_cases()) {
    ASSERT_TRUE(MinHasher(c.params.minhash).writes_codes()) << c.name;
    const PipelineResult baseline = run_pipeline(reads, c.params, fault_free);
    const PipelineResult faulted =
        run_pipeline(reads, c.params, exec_options(2, plan, ""));
    EXPECT_EQ(faulted.labels, baseline.labels) << c.name;
    EXPECT_GT(faulted.sketch_stats.lost_map_reruns, 0u) << c.name;
    EXPECT_EQ(baseline.sketch_stats.lost_map_reruns, 0u) << c.name;
  }
}

TEST(DriverChaos, ReExecutedScoringMapsLeaveTheHierarchicalLabelsByteIdentical) {
  // The same plan re-executes the similarity job's map attempts (exact
  // shape), which rewrite their rows' cells of the matrix in place, and the
  // verify job's (LSH shape), which rewrite their slots of the edge list;
  // both shapes give their fault-free labels.
  const auto reads = sample_reads();
  const ExecutionOptions fault_free = exec_options(2, {}, "");
  const mr::faults::FaultPlan plan(
      {{1, fault_free.cluster.job_startup_s + 0.1, mr::faults::kNever}});
  const std::vector<PipelineCase> cases = pipeline_cases();
  for (const PipelineCase& c : {cases[1], cases[3]}) {
    ASSERT_EQ(c.params.mode, Mode::kHierarchical) << c.name;
    const bool lsh = c.params.candidates.backend == candidates::Backend::kLshBanded;
    const PipelineResult baseline = run_pipeline(reads, c.params, fault_free);
    const PipelineResult faulted =
        run_pipeline(reads, c.params, exec_options(2, plan, ""));
    EXPECT_EQ(faulted.labels, baseline.labels) << c.name;
    const mr::JobStats& rerun =
        lsh ? faulted.verify_stats : faulted.similarity_stats;
    const mr::JobStats& clean =
        lsh ? baseline.verify_stats : baseline.similarity_stats;
    EXPECT_GT(rerun.lost_map_reruns, 0u) << c.name;
    EXPECT_EQ(clean.lost_map_reruns, 0u) << c.name;
    EXPECT_GT(clean.map_tasks, 1u) << c.name;
  }
}

TEST(DriverChaos, AFailingLshCandidatesStageFailsTheRunWithItsOwnError) {
  // Resume an LSH run whose sketch stage is checkpointed on a 0-node
  // cluster: the cluster's validation error reaches the caller as thrown.
  // The run never falls back to exact all-pairs, whose labels differ from
  // the LSH labels; the repaired resume hits the sketch and returns the
  // local LSH labels.
  const auto reads = sample_reads();
  const PipelineCase c = pipeline_cases()[2];  // lsh-greedy
  ExecutionOptions local = exec_options(2, {}, "");
  local.distributed = false;
  const PipelineResult expected = run_pipeline(reads, c.params, local);

  const std::string dir = fresh_dir("candidates");
  {
    ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", "sketch");
    EXPECT_THROW((void)run_pipeline(reads, c.params, exec_options(2, {}, dir)),
                 mr::recovery::InjectedDriverCrash);
  }
  ExecutionOptions no_nodes = exec_options(2, {}, dir);
  no_nodes.cluster.nodes = 0;
  try {
    (void)run_pipeline(reads, c.params, no_nodes);
    FAIL() << "expected common::InvalidArgument";
  } catch (const common::InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("at least one node"),
              std::string::npos)
        << error.what();
  }

  const PipelineResult resumed =
      run_pipeline(reads, c.params, exec_options(2, {}, dir));
  EXPECT_EQ(resumed.labels, expected.labels);
  EXPECT_EQ(resumed.recovery.checkpoint_hits, 1u);  // "sketch"
}

TEST(DriverChaos, LshBandsThatDoNotTileTheSketchAreRejectedInBothModes) {
  // 7 bands cannot tile K = 32: a caller error, raised before any stage.
  const auto reads = sample_reads();
  PipelineCase c = pipeline_cases()[2];  // lsh-greedy
  c.params.candidates.bands = 7;
  ExecutionOptions distributed = exec_options(2, {}, "");
  EXPECT_THROW((void)run_pipeline(reads, c.params, distributed),
               common::InvalidArgument);
  ExecutionOptions local;
  local.distributed = false;
  EXPECT_THROW((void)run_pipeline(reads, c.params, local),
               common::InvalidArgument);
}

TEST(DriverChaos, ThetaOutsideTheUnitIntervalIsRejectedInBothModes) {
  // θ outside [0, 1], NaN included, is a caller error raised before any
  // stage: no read is sketched and no checkpoint directory is made.
  const auto reads = sample_reads();
  for (PipelineCase c : pipeline_cases()) {
    for (const double theta :
         {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
      c.params.theta = theta;
      for (const bool distributed : {true, false}) {
        const std::string dir = fresh_dir("theta");
        ExecutionOptions exec = exec_options(2, {}, dir);
        exec.distributed = distributed;
        EXPECT_THROW((void)run_pipeline(reads, c.params, exec),
                     common::InvalidArgument)
            << c.name << " theta=" << theta << " distributed=" << distributed;
        EXPECT_FALSE(std::filesystem::exists(dir)) << c.name;
      }
    }
  }
}

TEST(DriverChaos, BadExecutionOptionsAreRejectedBeforeAnyStageOfADistributedRun) {
  // A split size of 0 or a cluster with no node is a distributed run's
  // caller error, raised before any stage: no read is sketched and no
  // checkpoint directory is made.  A local run reads neither option.
  const auto reads = sample_reads();
  const PipelineCase c = pipeline_cases()[1];  // exact-hierarchical
  ExecutionOptions local = exec_options(2, {}, "");
  local.distributed = false;
  const PipelineResult expected = run_pipeline(reads, c.params, local);
  for (const std::string bad : {"split", "nodes"}) {
    const std::string dir = fresh_dir("options");
    ExecutionOptions exec = exec_options(2, {}, dir);
    if (bad == "split") exec.records_per_split = 0;
    if (bad == "nodes") exec.cluster.nodes = 0;
    EXPECT_THROW((void)run_pipeline(reads, c.params, exec), common::InvalidArgument)
        << bad;
    EXPECT_FALSE(std::filesystem::exists(dir)) << bad;
    exec.distributed = false;
    EXPECT_EQ(run_pipeline(reads, c.params, exec).labels, expected.labels) << bad;
  }
}

TEST(DriverChaos, LocalRunIgnoresTheStageHooksAndCheckpoints) {
  // A local run calls its stage bodies directly: no driver for
  // MRMC_CRASH_AFTER_STAGE to stop, and no checkpoint for
  // MRMC_CHECKPOINT_DIR (or ExecutionOptions::checkpoint_dir) to write or
  // serve.
  const auto reads = sample_reads();
  for (const PipelineCase& c : pipeline_cases()) {
    ExecutionOptions local = exec_options(2, {}, "");
    local.distributed = false;
    const PipelineResult baseline = run_pipeline(reads, c.params, local);

    const std::string dir = fresh_dir("local");
    local.checkpoint_dir = dir;
    ScopedEnv env_dir("MRMC_CHECKPOINT_DIR", dir);
    for (const std::string& stage : c.stages) {
      ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", stage);
      const PipelineResult hooked = run_pipeline(reads, c.params, local);
      EXPECT_EQ(hooked.labels, baseline.labels) << c.name << " " << stage;
      EXPECT_EQ(hooked.recovery.stages, 0u) << c.name << " " << stage;
    }
    EXPECT_FALSE(std::filesystem::exists(dir)) << c.name;
  }
}

TEST(DriverChaos, LocalStageErrorsKeepTheirType) {
  // An error reaches the caller as it was thrown, in both modes.  θ = 1.5
  // is rejected before any stage; a 0-node cluster fails the distributed
  // sketch stage's first job, which the driver does not wrap.
  const auto reads = sample_reads();
  for (PipelineCase c : pipeline_cases()) {
    ExecutionOptions local = exec_options(2, {}, "");
    local.distributed = false;
    ExecutionOptions no_nodes = exec_options(2, {}, "");
    no_nodes.cluster.nodes = 0;
    EXPECT_THROW((void)run_pipeline(reads, c.params, no_nodes),
                 common::InvalidArgument)
        << c.name;
    c.params.theta = 1.5;
    EXPECT_THROW((void)run_pipeline(reads, c.params, local),
                 common::InvalidArgument)
        << c.name;
    EXPECT_THROW((void)run_pipeline(reads, c.params, exec_options(2, {}, "")),
                 common::InvalidArgument)
        << c.name;
  }
}

/// The matrix a hierarchical run's cluster stage receives: the similarity
/// stage's all-pairs matrix, or the LSH backend's verified graph densified.
SimilarityMatrix cluster_stage_matrix(const std::vector<bio::FastaRecord>& reads,
                                      const PipelineParams& params) {
  std::vector<std::string_view> seqs;
  for (const auto& read : reads) seqs.emplace_back(read.seq);
  const kernels::SketchMatrix sketches =
      MinHasher(params.minhash).sketch_matrix(seqs);
  if (params.candidates.backend == candidates::Backend::kExactAllPairs) {
    return pairwise_similarity_matrix(sketches, params.estimator);
  }
  return similarity_matrix_from_graph(candidates::build_graph(
      sketches, params.candidates, params.theta, params.estimator));
}

TEST(DriverChaos, ReRunHierarchicalAttemptsReuseTheCutLabels) {
  // agglomerate consumes the matrix, so the hierarchical-cluster stage
  // keeps the labels its first reduce attempt cut: every doomed reduce
  // attempt after it must hand back the local run's labels without a
  // second agglomerate.
  const auto reads = sample_reads();
  for (const PipelineCase& c : {pipeline_cases()[1], pipeline_cases()[3]}) {
    ExecutionOptions local = exec_options(2, {}, "");
    local.distributed = false;
    const PipelineResult expected = run_pipeline(reads, c.params, local);

    // The cluster job with every reduce attempt but the last doomed.  The
    // reducer cuts on the pool its job runs on, as run_pipeline's does.
    ExecutionOptions exec = exec_options(2, {}, "");
    mr::runtime::PoolLease lease(exec.threads, false);
    SimilarityMatrix matrix = cluster_stage_matrix(reads, c.params);
    std::optional<std::vector<int>> cut_labels;
    int agglomerates = 0;
    const auto cut = [&] {
      if (!cut_labels) {
        ++agglomerates;
        cut_labels = cut_dendrogram(
            agglomerate(std::move(matrix), c.params.linkage, &lease.pool()),
            c.params.theta);
      }
      return *cut_labels;
    };
    mr::JobConfig config = detail::job_config(
        "hierarchical-cluster", exec, &lease.pool(), reads.size() / 8, 1);
    config.reduce_failure_rate = 1.0;
    mr::JobStats stats;
    EXPECT_EQ(detail::run_cluster_job(config, reads.size(), 1.0, cut, stats),
              expected.labels)
        << c.name;
    EXPECT_EQ(stats.reduce_retries, config.max_task_attempts - 1) << c.name;
    EXPECT_EQ(agglomerates, 1) << c.name;
  }
}

TEST(DriverChaos, AClusterBodyThatThrowsAbortsTheClusterJob) {
  // Only a TaskFailure re-runs a reduce attempt: any other error from the
  // cluster body (an agglomerate that threw, say) aborts the job with its
  // own type, so no attempt follows it.
  ExecutionOptions exec = exec_options(2, {}, "");
  mr::runtime::PoolLease lease(exec.threads, false);
  mr::JobConfig config = detail::job_config("hierarchical-cluster", exec,
                                            &lease.pool(), 4, 1);
  config.reduce_failure_rate = 1.0;
  int calls = 0;
  mr::JobStats stats;
  EXPECT_THROW((void)detail::run_cluster_job(
                   config, 16, 1.0,
                   [&]() -> std::vector<int> {
                     ++calls;
                     throw common::Error("no active neighbour found");
                   },
                   stats),
               common::Error);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace mrmc::core
