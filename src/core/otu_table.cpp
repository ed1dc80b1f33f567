#include "core/otu_table.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace mrmc::core {

std::vector<OtuEntry> build_otu_table(std::span<const int> labels,
                                      const kernels::SketchMatrix& sketches,
                                      SketchEstimator estimator,
                                      std::size_t medoid_cap) {
  MRMC_REQUIRE(labels.size() == sketches.rows(), "one sketch per label");
  std::map<int, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    MRMC_REQUIRE(labels[i] >= 0, "labels must be non-negative");
    members[labels[i]].push_back(i);
  }

  // Medoid scans compare each member against every other member; the
  // set-based estimator pays its sort once per sketch up front.
  const SketchPairSimilarity pair_sim(sketches, estimator);

  std::vector<OtuEntry> table;
  table.reserve(members.size());
  const auto total = static_cast<double>(labels.size());
  for (const auto& [label, indices] : members) {
    OtuEntry entry;
    entry.label = label;
    entry.size = indices.size();
    entry.abundance = static_cast<double>(indices.size()) / total;
    entry.representative = indices.front();

    if (indices.size() > 2 && indices.size() <= medoid_cap) {
      // Exact medoid: member with the highest summed similarity to the rest.
      double best_total = -1.0;
      for (const std::size_t candidate : indices) {
        double sum = 0.0;
        for (const std::size_t other : indices) {
          if (other == candidate) continue;
          sum += pair_sim(candidate, other);
        }
        if (sum > best_total) {
          best_total = sum;
          entry.representative = candidate;
        }
      }
    }
    table.push_back(entry);
  }

  std::sort(table.begin(), table.end(), [](const OtuEntry& a, const OtuEntry& b) {
    return a.size > b.size || (a.size == b.size && a.label < b.label);
  });
  return table;
}

std::vector<bio::FastaRecord> representative_reads(
    const std::vector<OtuEntry>& table, std::span<const bio::FastaRecord> reads) {
  std::vector<bio::FastaRecord> out;
  out.reserve(table.size());
  for (const auto& entry : table) {
    MRMC_REQUIRE(entry.representative < reads.size(),
                 "representative index out of range");
    bio::FastaRecord record;
    record.id = "OTU" + std::to_string(entry.label) + "_size" +
                std::to_string(entry.size);
    record.header = record.id + " rep=" + reads[entry.representative].id;
    record.seq = reads[entry.representative].seq;
    out.push_back(std::move(record));
  }
  return out;
}

std::string otu_table_tsv(const std::vector<OtuEntry>& table,
                          std::span<const bio::FastaRecord> reads) {
  std::ostringstream out;
  out << "label\tsize\tabundance\trepresentative\n";
  for (const auto& entry : table) {
    MRMC_REQUIRE(entry.representative < reads.size(),
                 "representative index out of range");
    out << entry.label << '\t' << entry.size << '\t' << entry.abundance << '\t'
        << reads[entry.representative].id << '\n';
  }
  return out.str();
}

}  // namespace mrmc::core
