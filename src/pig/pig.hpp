// PigContext — a miniature Pig Latin runtime.  FOREACH..GENERATE..FLATTEN,
// GROUP ALL and GROUP BY each execute as one MapReduce job on the simulated
// cluster, as Pig plans scripts onto Hadoop; LOAD and STORE read and write
// the DFS directly.  Job statistics and simulated timelines accumulate in
// the context for reporting.  Scripts run on a context through
// pig::run_script (pig/script.hpp), which also drives checkpoint and resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mr/cluster.hpp"
#include "mr/job.hpp"
#include "mr/recovery.hpp"
#include "mr/runtime.hpp"
#include "mr/simdfs.hpp"
#include "pig/tuple.hpp"
#include "pig/udf.hpp"

namespace mrmc::pig {

class PigContext {
 public:
  /// Every statement's job runs on one pool, leased for the context's
  /// lifetime: `threads == 0` is the process-wide shared pool
  /// (mr::runtime::shared_pool()), > 0 a private pool of that size.
  PigContext(mr::SimDfs* dfs, mr::ClusterConfig cluster, std::size_t threads = 0);

  /// LOAD '<path>' USING FastaStorage AS (seq, id): parses a FASTA file
  /// stored in the DFS into (seq:chararray, id:chararray) tuples.
  Relation load_fasta(const std::string& path);

  /// B = FOREACH A GENERATE FLATTEN(udf(...)): one MapReduce job; the UDF
  /// runs in the mappers, output order follows input order.
  Relation foreach_generate(const Relation& input, const Udf& udf);

  /// G = GROUP A ALL: single-reducer job producing one tuple whose only
  /// field is the bag of all input tuples (input order preserved).
  Relation group_all(const Relation& input);

  /// G = GROUP A BY $field: keyed shuffle producing (key, bag) tuples, one
  /// per distinct value of the string, long or double field (doubles by
  /// exact value), ordered by key as ORDER BY orders it (value_less).  This
  /// is the engine's real reduce-side grouping, unlike GROUP ALL's
  /// single-reducer funnel.
  Relation group_by(const Relation& input, std::size_t field);

  /// STORE A INTO '<path>': writes tab-separated text into the DFS.
  void store(const Relation& relation, const std::string& path);

  /// Accumulated simulated cluster time of every job this context ran.
  [[nodiscard]] double sim_time_s() const noexcept { return sim_time_s_; }
  [[nodiscard]] const std::vector<mr::JobStats>& job_history() const noexcept {
    return jobs_;
  }
  [[nodiscard]] mr::SimDfs& dfs() noexcept { return *dfs_; }

 private:
  /// Run one `Job` named `name` over `input`, each tuple tagged with its
  /// index, on the context's pool and cluster; add its simulated time and
  /// stats to the context and return its output.
  template <typename Job, typename Map, typename Reduce>
  auto run_job(const std::string& name, std::size_t reducers, Map map,
               Reduce reduce, const Relation& input);

  mr::SimDfs* dfs_;
  mr::ClusterConfig cluster_;
  mr::runtime::PoolLease lease_;
  double sim_time_s_ = 0.0;
  std::vector<mr::JobStats> jobs_;
};

/// Parameters of the paper's Algorithm 3 Pig script.
struct Algorithm3Params {
  int kmer = 5;                   ///< $KMER
  std::size_t num_hashes = 100;   ///< $NUMHASH
  std::uint64_t seed = 1;         ///< the UDF seed ($DIV is 0)
  double cutoff = 0.9;            ///< $CUTOFF
  core::Linkage linkage = core::Linkage::kAverage;  ///< $LINK
};

struct Algorithm3Result {
  std::vector<std::pair<std::string, int>> hierarchical;  ///< (read id, label)
  std::vector<std::pair<std::string, int>> greedy;
  /// Simulated time / job count of the jobs *this process* ran; a resumed
  /// run (MRMC_CHECKPOINT_DIR) serves completed steps from checkpoint, so
  /// both shrink while the stored outputs stay byte-identical.
  double sim_time_s = 0.0;
  std::size_t jobs_run = 0;
  mr::recovery::RecoveryStats recovery;  ///< checkpoint hits/misses/retries
};

/// Execute Algorithm 3 end to end: fills the $-parameters of
/// algorithm3_script() and runs it through run_script on a fresh context
/// (LOAD -> StringGenerator -> TranslateToKmer -> CalculateMinwiseHash ->
/// GROUP ALL -> {CalculatePairwiseSimilarity ->
/// AgglomerativeHierarchicalClustering, GreedyClustering} -> STORE into
/// `out_hier` / `out_greedy`).  The paths become quoted script text, so
/// they may not contain a quote or a '$'.
Algorithm3Result run_algorithm3(mr::SimDfs& dfs, const std::string& input_path,
                                const std::string& out_hier,
                                const std::string& out_greedy,
                                const Algorithm3Params& params,
                                const mr::ClusterConfig& cluster = {},
                                std::size_t threads = 0);

}  // namespace mrmc::pig
