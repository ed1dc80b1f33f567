// Cluster post-processing: representative extraction and OTU tables.
// Clustering's downstream consumers (diversity analysis, representative-only
// workflows — the paper's motivation (iii)) want, per cluster: a
// representative sequence (the medoid under sketch similarity), member
// count, and abundance fraction.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "bio/fasta.hpp"
#include "core/minhash.hpp"

namespace mrmc::core {

struct OtuEntry {
  int label = 0;
  std::size_t size = 0;
  double abundance = 0.0;        ///< size / total reads
  std::size_t representative = 0;  ///< read index of the medoid
};

/// One entry per cluster, sorted by descending size (ties: lower label).
/// The representative is the member maximizing total sketch similarity to
/// its cluster mates (exact medoid for clusters up to `medoid_cap` members,
/// first member beyond that).
std::vector<OtuEntry> build_otu_table(std::span<const int> labels,
                                      const kernels::SketchMatrix& sketches,
                                      SketchEstimator estimator =
                                          SketchEstimator::kComponentMatch,
                                      std::size_t medoid_cap = 256);

/// FASTA records of each cluster representative, named
/// "OTU<label>_size<count>" (the pre-processing output format of
/// representative-based workflows).
std::vector<bio::FastaRecord> representative_reads(
    const std::vector<OtuEntry>& table, std::span<const bio::FastaRecord> reads);

/// Render the table as TSV: label, size, abundance, representative id.
std::string otu_table_tsv(const std::vector<OtuEntry>& table,
                          std::span<const bio::FastaRecord> reads);

}  // namespace mrmc::core
