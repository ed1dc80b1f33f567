#include "pig/udf.hpp"

#include <algorithm>
#include <utility>

#include "bio/dna.hpp"
#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "core/greedy.hpp"
#include "core/kernels.hpp"

namespace mrmc::pig {

namespace {

/// A group's minwise tuples as one sketch table, row i = tuple i.  Every
/// tuple must carry the same number of values.
core::kernels::SketchMatrix sketch_table(const Bag& group) {
  const std::size_t cols =
      group.empty() ? 0 : group.front().get<std::vector<long>>(0).size();
  core::kernels::SketchMatrix sketches(group.size(), cols);
  for (std::size_t i = 0; i < group.size(); ++i) {
    const auto& values = group[i].get<std::vector<long>>(0);
    MRMC_REQUIRE(values.size() == cols,
                 "every minwise tuple in a group must have the same length");
    std::transform(values.begin(), values.end(), sketches.row(i).begin(),
                   [](long v) { return static_cast<std::uint64_t>(v); });
  }
  return sketches;
}

std::vector<long> from_sketch(const core::Sketch& sketch) {
  std::vector<long> values;
  values.reserve(sketch.size());
  for (const std::uint64_t v : sketch) values.push_back(static_cast<long>(v));
  return values;
}

}  // namespace

// ------------------------------------------------------------ StringGenerator

Bag StringGenerator::exec(const Tuple& input) const {
  const auto& seq = input.get<std::string>(0);
  std::vector<long> codes;
  codes.reserve(seq.size());
  for (const char c : seq) codes.push_back(bio::encode_base(c));
  Tuple out;
  out.fields.emplace_back(std::move(codes));
  out.fields.push_back(input.fields.at(1));  // id passes through
  return {std::move(out)};
}

// ------------------------------------------------------------ TranslateToKmer

TranslateToKmer::TranslateToKmer(int k) : k_(k) {
  MRMC_REQUIRE(k >= 1 && k <= bio::kMaxKmerK, "k must be in [1, 31]");
}

Bag TranslateToKmer::exec(const Tuple& input) const {
  const auto& codes = input.get<std::vector<long>>(0);
  // Back to bases, 'N' for any code outside 0..3 (it restarts the window),
  // so bio::kmer_set's rolling encoder does the packing.
  std::string seq(codes.size(), 'N');
  std::transform(codes.begin(), codes.end(), seq.begin(), [](long code) {
    return code >= 0 && code <= 3 ? bio::decode_base(static_cast<int>(code))
                                  : 'N';
  });
  const std::vector<std::uint64_t> set = bio::kmer_set(seq, {.k = k_});

  Tuple out;
  out.fields.emplace_back(std::vector<long>(set.begin(), set.end()));
  out.fields.push_back(input.fields.at(1));
  return {std::move(out)};
}

// ------------------------------------------------------- CalculateMinwiseHash

CalculateMinwiseHash::CalculateMinwiseHash(std::size_t num_hashes, int kmer,
                                           std::uint64_t seed,
                                           core::SketchScheme scheme)
    : hasher_(std::make_shared<core::MinHasher>(core::MinHashParams{
          .kmer = kmer,
          .num_hashes = num_hashes,
          .canonical = false,
          .seed = seed,
          .scheme = scheme})) {}

Bag CalculateMinwiseHash::exec(const Tuple& input) const {
  const auto& kmers = input.get<std::vector<long>>(0);
  std::vector<std::uint64_t> features;
  features.reserve(kmers.size());
  for (const long k : kmers) features.push_back(static_cast<std::uint64_t>(k));
  const core::Sketch sketch = hasher_->sketch_features(features);

  Tuple out;
  out.fields.emplace_back(from_sketch(sketch));
  out.fields.push_back(input.fields.at(1));
  return {std::move(out)};
}

// ------------------------------------------- CalculatePairwiseSimilarity

CalculatePairwiseSimilarity::CalculatePairwiseSimilarity(
    core::SketchEstimator estimator, core::candidates::Params candidates,
    double theta)
    : estimator_(estimator), candidates_(candidates), theta_(theta) {}

Bag CalculatePairwiseSimilarity::exec(const Tuple& input) const {
  const auto& group = input.get<Bag>(0);
  const core::kernels::SketchMatrix sketches = sketch_table(group);
  const std::size_t n = sketches.rows();

  // Row i holds the similarities of pairs (i, j > i).  LSH-banded candidate
  // generation scores only bucket-mate pairs via the shared candidates layer
  // and leaves every other cell 0; empty sketches cannot be banded and are
  // scored exactly.
  std::vector<std::vector<double>> sims(n);
  if (candidates_.backend == core::candidates::Backend::kLshBanded &&
      sketches.cols() != 0) {
    for (std::size_t i = 0; i < n; ++i) sims[i].assign(n - i - 1, 0.0);
    const core::candidates::SparseSimilarityGraph graph =
        core::candidates::build_graph(sketches, candidates_, theta_, estimator_);
    for (const auto& edge : graph.edges) {
      sims[edge.a][edge.b - edge.a - 1] = edge.similarity;
    }
  } else {
    const core::SketchPairSimilarity pair_sim(sketches, estimator_);
    for (std::size_t i = 0; i < n; ++i) {
      sims[i].reserve(n - i - 1);
      for (std::size_t j = i + 1; j < n; ++j) sims[i].push_back(pair_sim(i, j));
    }
  }

  Bag rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple row;
    row.fields.emplace_back(static_cast<long>(i));
    row.fields.emplace_back(std::move(sims[i]));
    row.fields.push_back(group[i].fields.at(1));  // read id
    rows.push_back(std::move(row));
  }
  return rows;
}

// ------------------------------------ AgglomerativeHierarchicalClustering

AgglomerativeHierarchicalClustering::AgglomerativeHierarchicalClustering(
    core::Linkage linkage, double cutoff)
    : linkage_(linkage), cutoff_(cutoff) {
  MRMC_REQUIRE(cutoff >= 0.0 && cutoff <= 1.0, "cutoff in [0, 1]");
}

Bag AgglomerativeHierarchicalClustering::exec(const Tuple& input) const {
  const auto& group = input.get<Bag>(0);  // similarity rows
  const std::size_t n = group.size();
  core::SimilarityMatrix matrix(n, 0.0F);
  std::vector<std::string> ids(n);
  for (const Tuple& tuple : group) {
    const auto row = static_cast<std::size_t>(tuple.get<long>(0));
    const auto& sims = tuple.get<std::vector<double>>(1);
    // A row of a larger matrix (e.g. a LIMITed relation) must not write
    // past this group's n x n cells.
    MRMC_REQUIRE(row < n && sims.size() <= n - row - 1,
                 "similarity row must fit the group's n x n matrix");
    matrix.set(row, row, 1.0F);
    for (std::size_t j = 0; j < sims.size(); ++j) {
      matrix.set(row, row + 1 + j, static_cast<float>(sims[j]));
    }
    ids[row] = tuple.get<std::string>(2);
  }

  const core::Dendrogram dendrogram =
      core::agglomerate(std::move(matrix), linkage_);
  const std::vector<int> labels = core::cut_dendrogram(dendrogram, cutoff_);

  Bag out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tuple tuple;
    tuple.fields.emplace_back(ids[i]);
    tuple.fields.emplace_back(static_cast<long>(labels[i]));
    out.push_back(std::move(tuple));
  }
  return out;
}

// ------------------------------------------------------------ GreedyClustering

GreedyClustering::GreedyClustering(double cutoff, core::SketchEstimator estimator)
    : cutoff_(cutoff), estimator_(estimator) {
  MRMC_REQUIRE(cutoff >= 0.0 && cutoff <= 1.0, "cutoff in [0, 1]");
}

Bag GreedyClustering::exec(const Tuple& input) const {
  const auto& group = input.get<Bag>(0);  // minwise tuples
  const core::GreedyResult result =
      core::greedy_cluster(sketch_table(group), {cutoff_, estimator_});

  Bag out;
  out.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    Tuple tuple;
    tuple.fields.push_back(group[i].fields.at(1));
    tuple.fields.emplace_back(static_cast<long>(result.labels[i]));
    out.push_back(std::move(tuple));
  }
  return out;
}

}  // namespace mrmc::pig
