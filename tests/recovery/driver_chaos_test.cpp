// Driver-scope chaos tests: the PR's headline invariant.  For every
// pipeline shape, kill the driver (MRMC_CRASH_AFTER_STAGE) after each
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

TEST(DriverChaos, RetriedStageLeavesLabelsByteIdentical) {
  const auto reads = sample_reads();
  const PipelineCase c = pipeline_cases()[1];  // exact-hierarchical
  const PipelineResult baseline =
      run_pipeline(reads, c.params, exec_options(2, {}, ""));

  ExecutionOptions exec = exec_options(2, {}, "");
  exec.retry.max_job_attempts = 3;
  exec.retry.backoff_base_s = 1e-3;
  exec.retry.backoff_cap_s = 2e-3;
  ScopedEnv fail("MRMC_FAIL_STAGE", "similarity:2");
  const PipelineResult retried = run_pipeline(reads, c.params, exec);
  EXPECT_EQ(retried.labels, baseline.labels);
  EXPECT_EQ(retried.recovery.retries, 2u);
}

TEST(DriverChaos, ReExecutedSketchMapsLeaveTheCodeTableLabelsByteIdentical) {
  // Node 1 dies just after every job starts, killing the map attempts it
  // runs: the k = 5 sketch job's blocks of 16-bit codes then come from
  // re-executed map attempts, and every shape still gives its fault-free
  // labels.
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

TEST(DriverChaos, ExhaustedRetriesCarryTheAttemptHistory) {
  const auto reads = sample_reads();
  const PipelineCase c = pipeline_cases()[0];
  ExecutionOptions exec = exec_options(2, {}, "");
  exec.retry.max_job_attempts = 2;
  exec.retry.backoff_base_s = 1e-3;
  exec.retry.backoff_cap_s = 2e-3;
  ScopedEnv fail("MRMC_FAIL_STAGE", "sketch:5");
  try {
    (void)run_pipeline(reads, c.params, exec);
    FAIL() << "expected RetryExhausted";
  } catch (const mr::recovery::RetryExhausted& error) {
    EXPECT_EQ(error.stage(), "sketch");
    ASSERT_EQ(error.history().size(), 2u);
    EXPECT_EQ(error.history()[0].outcome, "failed");
  }
}

TEST(DriverChaos, LshCandidatesExhaustionThrowsRetryExhausted) {
  // A candidates stage that keeps failing fails the run like any other
  // stage: an exact all-pairs rerun would return exact-greedy labels, not
  // the LSH labels a local run returns.
  const auto reads = sample_reads();
  const PipelineCase c = pipeline_cases()[2];  // lsh-greedy
  ExecutionOptions exec = exec_options(2, {}, "");
  exec.retry.max_job_attempts = 2;
  exec.retry.backoff_base_s = 1e-3;
  exec.retry.backoff_cap_s = 2e-3;

  ScopedEnv fail("MRMC_FAIL_STAGE", "candidates:2");
  try {
    (void)run_pipeline(reads, c.params, exec);
    FAIL() << "expected RetryExhausted";
  } catch (const mr::recovery::RetryExhausted& error) {
    EXPECT_EQ(error.stage(), "candidates");
    EXPECT_EQ(error.history().size(), 2u);
  }
}

TEST(DriverChaos, LshBandsThatDoNotTileTheSketchAreRejectedInBothModes) {
  // 7 bands cannot tile K = 32: a caller error, raised before any stage —
  // never a failed job that the retry loop repeats.
  const auto reads = sample_reads();
  PipelineCase c = pipeline_cases()[2];  // lsh-greedy
  c.params.candidates.bands = 7;
  ExecutionOptions distributed = exec_options(2, {}, "");
  distributed.retry.max_job_attempts = 2;
  distributed.retry.backoff_base_s = 1e-3;
  distributed.retry.backoff_cap_s = 2e-3;
  EXPECT_THROW((void)run_pipeline(reads, c.params, distributed),
               common::InvalidArgument);
  ExecutionOptions local;
  local.distributed = false;
  EXPECT_THROW((void)run_pipeline(reads, c.params, local),
               common::InvalidArgument);
}

TEST(DriverChaos, RetryPolicyOutOfRangeIsRejectedInBothModes) {
  // No attempt at all is a caller error, raised before any stage in both
  // modes, even though only a distributed run retries.
  const auto reads = sample_reads();
  const PipelineCase c = pipeline_cases()[0];
  for (const bool distributed : {true, false}) {
    ExecutionOptions exec = exec_options(2, {}, "");
    exec.distributed = distributed;
    exec.retry.max_job_attempts = 0;
    EXPECT_THROW((void)run_pipeline(reads, c.params, exec),
                 common::InvalidArgument)
        << "distributed=" << distributed;
  }
}

TEST(DriverChaos, LocalRunIgnoresTheStageHooksAndCheckpoints) {
  // A local run calls its stage bodies directly: no retry loop for
  // MRMC_FAIL_STAGE to fail, and no checkpoint for MRMC_CHECKPOINT_DIR (or
  // ExecutionOptions::checkpoint_dir) to write or serve.
  const auto reads = sample_reads();
  for (const PipelineCase& c : pipeline_cases()) {
    ExecutionOptions local = exec_options(2, {}, "");
    local.distributed = false;
    const PipelineResult baseline = run_pipeline(reads, c.params, local);

    const std::string dir = fresh_dir("local");
    local.checkpoint_dir = dir;
    ScopedEnv env_dir("MRMC_CHECKPOINT_DIR", dir);
    for (const std::string& stage : c.stages) {
      ScopedEnv fail("MRMC_FAIL_STAGE", stage + ":5");
      ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", stage);
      const PipelineResult hooked = run_pipeline(reads, c.params, local);
      EXPECT_EQ(hooked.labels, baseline.labels) << c.name << " " << stage;
      EXPECT_EQ(hooked.recovery.stages, 0u) << c.name << " " << stage;
    }
    EXPECT_FALSE(std::filesystem::exists(dir)) << c.name;
  }
}

TEST(DriverChaos, LocalStageErrorsKeepTheirType) {
  // θ outside [0, 1] is rejected inside the cluster stage.  Distributed,
  // the driver's retry loop wraps it; locally it surfaces as it was thrown.
  const auto reads = sample_reads();
  for (PipelineCase c : pipeline_cases()) {
    c.params.theta = 1.5;
    if (c.params.candidates.backend == candidates::Backend::kLshBanded) {
      c.params.candidates.bands = 4;  // skip θ-driven band selection
    }
    ExecutionOptions local = exec_options(2, {}, "");
    local.distributed = false;
    EXPECT_THROW((void)run_pipeline(reads, c.params, local),
                 common::InvalidArgument)
        << c.name;
    EXPECT_THROW((void)run_pipeline(reads, c.params, exec_options(2, {}, "")),
                 mr::recovery::RetryExhausted)
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

TEST(DriverChaos, ReRunHierarchicalAttemptsReuseTheDendrogram) {
  // agglomerate consumes the matrix, so every attempt after the first —
  // doomed reduce attempts, a driver retry — must cut the dendrogram the
  // first attempt built and hand back the local run's labels.
  const auto reads = sample_reads();
  for (const PipelineCase& c : {pipeline_cases()[1], pipeline_cases()[3]}) {
    const std::string backend =
        c.params.candidates.backend == candidates::Backend::kLshBanded ? "lsh"
                                                                         : "exact";
    ExecutionOptions local = exec_options(2, {}, "");
    local.distributed = false;
    const PipelineResult expected = run_pipeline(reads, c.params, local);

    // The cluster job with every reduce attempt but the last doomed, then
    // the whole job again on the same body, as a driver retry runs it.
    // The reducer cuts on the pool its job runs on, as run_pipeline's does.
    ExecutionOptions exec = exec_options(2, {}, "");
    mr::runtime::PoolLease lease(exec.threads, false);
    detail::DendrogramLabels labels(cluster_stage_matrix(reads, c.params),
                                    c.params.linkage, c.params.theta);
    mr::JobConfig config = detail::job_config(
        "hierarchical-cluster", exec, &lease.pool(), reads.size() / 8, 1);
    config.reduce_failure_rate = 1.0;
    for (int run = 0; run < 2; ++run) {
      mr::JobStats stats;
      EXPECT_EQ(detail::run_cluster_job(config, reads.size(), 1.0,
                                        [&] { return labels(&lease.pool()); },
                                        stats),
                expected.labels)
          << backend << " run " << run;
      EXPECT_EQ(stats.reduce_retries, config.max_task_attempts - 1) << backend;
    }

    // A distributed run whose cluster stage fails once under the driver.
    exec.retry.max_job_attempts = 2;
    exec.retry.backoff_base_s = 1e-3;
    exec.retry.backoff_cap_s = 2e-3;
    ScopedEnv fail("MRMC_FAIL_STAGE", "hierarchical-cluster:1");
    const PipelineResult retried = run_pipeline(reads, c.params, exec);
    EXPECT_EQ(retried.labels, expected.labels) << backend;
    EXPECT_EQ(retried.recovery.retries, 1u) << backend;
  }
}

TEST(DriverChaos, AnAttemptAfterAFailedAgglomerateRaisesAnError) {
  // Every distance is 1 - (-inf) = +inf: agglomerate finds no neighbour and
  // throws after taking the matrix.  The next attempt has nothing to read.
  detail::DendrogramLabels labels(
      SimilarityMatrix(3, -std::numeric_limits<float>::infinity()),
      Linkage::kAverage, 0.5);
  EXPECT_THROW((void)labels(nullptr), common::Error);
  try {
    (void)labels(nullptr);
    FAIL() << "expected common::Error";
  } catch (const common::Error& error) {
    EXPECT_NE(std::string(error.what()).find("agglomerate that threw"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace mrmc::core
