#include "core/incremental.hpp"

#include <algorithm>

#include "bio/kmer.hpp"
#include "common/error.hpp"

namespace mrmc::core {

namespace {

Sketch sorted_unique(const Sketch& sketch) {
  Sketch s = sketch;
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

}  // namespace

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
  const bool set_based = greedy_.estimator == SketchEstimator::kSetBased;
  const Sketch sorted = set_based ? sorted_unique(sketch) : Sketch{};

  int assigned = -1;
  for (const int cluster : index_.candidates(sketch)) {
    const double similarity =
        set_based
            ? bio::exact_jaccard(sorted_representatives_[cluster], sorted)
            : component_match_similarity(representatives_[cluster], sketch);
    if (similarity >= greedy_.theta) {
      assigned = cluster;
      break;
    }
  }
  if (assigned < 0) {
    assigned = static_cast<int>(representatives_.size());
    index_.insert(assigned, sketch);
    representatives_.push_back(sketch);
    sorted_representatives_.push_back(set_based ? sorted : Sketch{});
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
