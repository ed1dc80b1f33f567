#include "core/incremental.hpp"

#include "common/error.hpp"

namespace mrmc::core {

IncrementalClusterer::IncrementalClusterer(MinHashParams hasher,
                                           GreedyParams greedy,
                                           std::size_t bands)
    : hasher_(hasher),
      greedy_(greedy),
      index_(hasher.num_hashes,
             candidates::validated_band_shape(hasher.num_hashes, bands),
             candidates::Params{}.seed) {}

int IncrementalClusterer::add(std::string_view seq) {
  const Sketch sketch = hasher_.sketch(seq);
  int assigned = -1;
  for (const int cluster : index_.candidates(sketch)) {
    if (sketch_similarity(representatives_[cluster], sketch,
                          greedy_.estimator) >= greedy_.theta) {
      assigned = cluster;
      break;
    }
  }
  if (assigned < 0) {
    assigned = static_cast<int>(representatives_.size());
    index_.insert(assigned, sketch);
    representatives_.push_back(sketch);
    sizes_.push_back(0);
  }
  ++sizes_[assigned];
  ++reads_added_;
  return assigned;
}

std::vector<int> IncrementalClusterer::add_all(
    std::span<const std::string_view> seqs) {
  std::vector<int> labels;
  labels.reserve(seqs.size());
  for (const auto seq : seqs) labels.push_back(add(seq));
  return labels;
}

const Sketch& IncrementalClusterer::representative_sketch(int label) const {
  MRMC_REQUIRE(label >= 0 &&
                   static_cast<std::size_t>(label) < representatives_.size(),
               "unknown cluster label");
  return representatives_[static_cast<std::size_t>(label)];
}

}  // namespace mrmc::core
