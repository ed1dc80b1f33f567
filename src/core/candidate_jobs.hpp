// The candidate-generation MapReduce jobs (ScalLoPS-style LSH banding at
// MapReduce scale, Sunarso et al.):
//
//   "candidates"  map: (read_id, sketch) -> per-band (bucket_key, read_id)
//                 GROUP on bucket_key
//                 reduce: emit the bucket's sorted unique id list (buckets
//                 with fewer than two distinct ids emit nothing); the
//                 driver joins the lists into CSR and expands them row by
//                 row with candidates::pairs_from_buckets on its pool
//   "verify"      map: one packed BinaryBlock of integer counts per split
//                 (match counts via count_equal / count_equal_packed, or
//                 |∩|,|∪| lanes via SortedSketchStore::jaccard_counts)
//                 reduce: identity; the driver rebuilds edges positionally
//                 from the already-sorted candidate pair list
//
// Both drivers produce sorted unique outputs, so candidate sets and
// edge lists are byte-identical across thread counts, record split orders,
// fault plans that leave one live node, and scalar vs AVX2 kernels — and
// identical to the local candidates::enumerate_pairs / verify_pairs path.
// Each job claims a lineage stage ("candidates" / "verify") so
// `mrmc_doctor pipeline` reports them like any other pipeline stage.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/candidates.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"
#include "mr/job.hpp"

namespace mrmc::core {

struct CandidateJobResult {
  std::vector<candidates::Pair> pairs;  ///< sorted by (a, b), unique
  candidates::BandShape shape;          ///< resolved banding ({0, 0} for exact)
  mr::JobStats stats;                   ///< empty for the exact backend
};

/// Enumerate candidate pairs for the sketch table.  The LSH backend runs the
/// "candidates" MapReduce job on the simulated cluster; the exact backend
/// enumerates all pairs driver-side with candidates::enumerate_pairs (an
/// all-pairs shuffle would itself be the O(n^2) wall this layer removes).
/// Read ids are 32-bit: rows × bands must stay below 2^32 (InvalidArgument
/// otherwise).
CandidateJobResult run_candidate_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    const candidates::Params& params, double theta,
    const ExecutionOptions& exec);

struct VerifyJobResult {
  candidates::SparseSimilarityGraph graph;
  mr::JobStats stats;
};

/// Score candidate pairs into a sparse similarity graph via the "verify"
/// MapReduce job.  `pairs` must be sorted unique (run_candidate_job output).
/// `sketch_bits` is PipelineParams::sketch_bits: below 64 the map tasks score
/// b-bit packed sketch rows with the packed count_equal kernel (the sketches
/// must already be b-bit truncated, as the sketch job leaves them).
VerifyJobResult run_verify_job(
    std::shared_ptr<const kernels::SketchMatrix> sketches,
    std::vector<candidates::Pair> pairs, SketchEstimator estimator,
    std::size_t sketch_bits, const ExecutionOptions& exec);

}  // namespace mrmc::core
