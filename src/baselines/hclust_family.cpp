#include "baselines/hclust_family.hpp"

#include <algorithm>
#include <utility>

#include "baselines/word_stats.hpp"
#include "bio/alignment.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/hierarchical.hpp"

namespace mrmc::baselines {

namespace {

/// Complete-linkage clustering of a similarity matrix, cut at `identity`.
std::vector<int> complete_linkage_cut(core::SimilarityMatrix matrix,
                                      double identity) {
  const core::Dendrogram dendrogram =
      core::agglomerate(std::move(matrix), core::Linkage::kComplete);
  return core::cut_dendrogram(dendrogram, identity);
}

}  // namespace

BaselineResult esprit_cluster(std::span<const bio::FastaRecord> reads,
                              const EspritParams& params) {
  MRMC_REQUIRE(params.identity > 0.0 && params.identity <= 1.0,
               "identity in (0, 1]");
  common::Stopwatch watch;
  BaselineResult result;
  const std::size_t n = reads.size();
  if (n == 0) return result;

  std::vector<std::vector<std::uint16_t>> words;
  words.reserve(n);
  for (const auto& read : reads) {
    words.push_back(word_counts(read.seq, params.word_size));
  }

  core::SimilarityMatrix matrix(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      ++result.comparisons;
      const double kd = kmer_distance(words[i], reads[i].seq.size(), words[j],
                                      reads[j].seq.size(), params.word_size);
      if (kd >= params.kmer_filter) {
        matrix.set(i, j, 0.0F);  // filtered: never aligned, treated as far
        continue;
      }
      ++result.alignments;
      const double identity = bio::global_identity(reads[i].seq, reads[j].seq,
                                                   {.band = params.band});
      matrix.set(i, j, static_cast<float>(identity));
    }
  }

  result.labels = complete_linkage_cut(std::move(matrix), params.identity);
  result.num_clusters = core::count_clusters(result.labels);
  result.wall_s = watch.seconds();
  return result;
}

BaselineResult dotur_cluster(std::span<const bio::FastaRecord> reads,
                             const DoturParams& params) {
  MRMC_REQUIRE(params.identity > 0.0 && params.identity <= 1.0,
               "identity in (0, 1]");
  common::Stopwatch watch;
  BaselineResult result;
  const std::size_t n = reads.size();
  if (n == 0) return result;

  core::SimilarityMatrix matrix(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      ++result.alignments;
      const double identity = bio::global_identity(reads[i].seq, reads[j].seq,
                                                   {.band = params.band});
      matrix.set(i, j, static_cast<float>(identity));
    }
  }

  result.labels = complete_linkage_cut(std::move(matrix), params.identity);
  result.num_clusters = core::count_clusters(result.labels);
  result.wall_s = watch.seconds();
  return result;
}

BaselineResult mothur_cluster(std::span<const bio::FastaRecord> reads,
                              const MothurParams& params) {
  MRMC_REQUIRE(params.identity > 0.0 && params.identity <= 1.0,
               "identity in (0, 1]");
  common::Stopwatch watch;
  BaselineResult result;
  const std::size_t n = reads.size();
  if (n == 0) return result;

  // Unbanded full-matrix alignment: same distances as DOTUR's (banded)
  // pipeline on near-identical pairs, heavier constant factor overall.
  core::SimilarityMatrix matrix(n, 0.0F);
  for (std::size_t i = 0; i < n; ++i) {
    matrix.set(i, i, 1.0F);
    for (std::size_t j = i + 1; j < n; ++j) {
      ++result.alignments;
      const double identity =
          bio::global_identity(reads[i].seq, reads[j].seq, {});
      matrix.set(i, j, static_cast<float>(identity));
    }
  }

  result.labels = complete_linkage_cut(std::move(matrix), params.identity);
  result.num_clusters = core::count_clusters(result.labels);
  result.wall_s = watch.seconds();
  return result;
}

}  // namespace mrmc::baselines
