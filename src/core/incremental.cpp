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
      representatives_(0, hasher_.sketch_size()) {
  MRMC_REQUIRE(greedy.theta >= 0.0 && greedy.theta <= 1.0, "theta in [0, 1]");
}

std::vector<int> IncrementalClusterer::add_all(
    std::span<const std::string_view> seqs) {
  if (seqs.empty()) return {};
  // The representatives sit in rows [0, seeded), label by label, and the
  // batch below them; the sweep seeds the first and tests only the second.
  const std::size_t seeded = representatives_.rows();
  const std::size_t cols = representatives_.cols();
  auto table = kernels::SketchMatrix::for_overwrite(seeded + seqs.size(), cols);
  std::copy_n(representatives_.data(), seeded * cols, table.row(0).data());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    hasher_.sketch_into(seqs[i], table.row(seeded + i));
  }
  hasher_.certify(table);
  const SketchPairSimilarity similarity(table, greedy_.estimator);
  const GreedyResult swept = sweep_buckets(
      candidates::lsh_buckets(table, shape_, candidates::Params{}.seed),
      table.rows(), seeded, [&](std::size_t rep, std::size_t read) {
        return similarity(rep, read) >= greedy_.theta;
      });

  auto grown = kernels::SketchMatrix::for_overwrite(swept.num_clusters, cols);
  for (std::size_t label = 0; label < swept.num_clusters; ++label) {
    std::ranges::copy(table.row(swept.representatives[label]),
                      grown.row(label).begin());
  }
  representatives_ = std::move(grown);
  sizes_.resize(swept.num_clusters, 0);
  std::vector<int> labels(
      swept.labels.begin() + static_cast<std::ptrdiff_t>(seeded),
      swept.labels.end());
  for (const int label : labels) ++sizes_[static_cast<std::size_t>(label)];
  reads_added_ += labels.size();
  return labels;
}

std::span<const std::uint64_t> IncrementalClusterer::representative_sketch(
    int label) const {
  MRMC_REQUIRE(label >= 0 &&
                   static_cast<std::size_t>(label) < representatives_.rows(),
               "unknown cluster label");
  return representatives_.row(static_cast<std::size_t>(label));
}

}  // namespace mrmc::core
