#include "core/incremental.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"

namespace mrmc::core {

IncrementalClusterer::IncrementalClusterer(MinHashParams hasher,
                                           GreedyParams greedy,
                                           std::size_t bands)
    : hasher_(hasher),
      greedy_(greedy),
      shape_(candidates::validated_band_shape(hasher.num_hashes, bands)),
      representatives_(hasher_.table_for_overwrite(0)) {
  MRMC_REQUIRE(greedy.theta >= 0.0 && greedy.theta <= 1.0, "theta in [0, 1]");
}

std::vector<int> IncrementalClusterer::add_all(
    std::span<const std::string_view> seqs) {
  if (seqs.empty()) return {};
  // The representatives sit in rows [0, seeded), label by label, and the
  // batch below them, in the hasher's cell width; the sweep seeds the first
  // and tests only the second.
  const std::size_t seeded = representatives_.rows();
  auto table = hasher_.table_for_overwrite(seeded + seqs.size());
  GreedyResult swept;
  table.with_cell([&]<typename Cell>(Cell) {
    std::copy_n(representatives_.row_ptr<Cell>(0), seeded * table.cols(),
                table.row<Cell>(0).data());
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      hasher_.sketch_into(seqs[i], table.row<Cell>(seeded + i));
    }
    const SketchPairSimilarity similarity(table, greedy_.estimator);
    swept = sweep_buckets(
        candidates::lsh_buckets(table, shape_, candidates::Params{}.seed),
        table.rows(), seeded, [&](std::size_t rep, std::size_t read) {
          return similarity.at<Cell>(rep, read) >= greedy_.theta;
        });
    auto grown = hasher_.table_for_overwrite(swept.num_clusters);
    for (std::size_t label = 0; label < swept.num_clusters; ++label) {
      std::ranges::copy(table.row<Cell>(swept.representatives[label]),
                        grown.row<Cell>(label).begin());
    }
    representatives_ = std::move(grown);
  });
  sizes_.resize(swept.num_clusters, 0);
  std::vector<int> labels(
      swept.labels.begin() + static_cast<std::ptrdiff_t>(seeded),
      swept.labels.end());
  for (const int label : labels) ++sizes_[static_cast<std::size_t>(label)];
  reads_added_ += labels.size();
  return labels;
}

Sketch IncrementalClusterer::representative_sketch(int label) const {
  MRMC_REQUIRE(label >= 0 &&
                   static_cast<std::size_t>(label) < representatives_.rows(),
               "unknown cluster label");
  auto one = hasher_.table_for_overwrite(1);
  one.with_cell([&]<typename Cell>(Cell) {
    std::ranges::copy(representatives_.row<Cell>(static_cast<std::size_t>(label)),
                      one.row<Cell>(0).begin());
  });
  const auto wide = hasher_.widen(one);
  return {wide.row(0).begin(), wide.row(0).end()};
}

}  // namespace mrmc::core
