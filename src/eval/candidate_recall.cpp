#include "eval/candidate_recall.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/kernels.hpp"

namespace mrmc::eval {

CandidateRecallReport candidate_recall(
    const core::kernels::SketchMatrix& sketches, double theta,
    const core::candidates::Params& params, core::SketchEstimator estimator,
    std::size_t sample_rows, common::ThreadPool* pool) {
  namespace candidates = core::candidates;

  CandidateRecallReport report;
  const std::size_t n = sample_rows == 0
                            ? sketches.rows()
                            : std::min(sketches.rows(), sample_rows);
  report.reads = n;
  if (n < 2) return report;

  // Materialize the subsample so the backend sees exactly the rows the
  // oracle scores (banding on the full matrix would propose out-of-sample
  // pairs and skew precision).
  const core::kernels::SketchMatrix sample = sketches.head(n);

  if (params.backend == candidates::Backend::kLshBanded) {
    report.shape = candidates::resolve_band_shape(params, sample.cols(), theta);
  }
  const std::vector<candidates::Pair> proposed =
      candidates::enumerate_pairs(sample, params, theta, pool);
  report.candidate_pairs = proposed.size();

  // Exact oracle: score every pair, count those >= θ and how many of them
  // the backend proposed.  enumerate_pairs output is sorted, so membership
  // is a binary search.  Per-row partial counts keep the parallel sweep
  // deterministic.
  const core::SketchPairSimilarity similarity(sample, estimator, pool);

  std::vector<std::size_t> row_true(n, 0);
  std::vector<std::size_t> row_recovered(n, 0);
  sample.with_cell([&]<typename Cell>(Cell) {
    auto score_row = [&](std::size_t i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (similarity.at<Cell>(i, j) < theta) continue;
        ++row_true[i];
        const candidates::Pair pair{static_cast<std::uint32_t>(i),
                                    static_cast<std::uint32_t>(j)};
        if (std::binary_search(proposed.begin(), proposed.end(), pair)) {
          ++row_recovered[i];
        }
      }
    };
    common::parallel_for(pool, n, score_row);
  });
  for (std::size_t i = 0; i < n; ++i) {
    report.true_pairs += row_true[i];
    report.recovered_pairs += row_recovered[i];
  }

  report.recall = report.true_pairs == 0
                      ? 1.0
                      : static_cast<double>(report.recovered_pairs) /
                            static_cast<double>(report.true_pairs);
  report.precision = report.candidate_pairs == 0
                         ? 0.0
                         : static_cast<double>(report.recovered_pairs) /
                               static_cast<double>(report.candidate_pairs);
  return report;
}

}  // namespace mrmc::eval
