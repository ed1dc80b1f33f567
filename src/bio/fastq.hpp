// FASTQ parsing and quality handling.  454/Illumina pipelines feed
// clustering tools FASTQ; this module parses records, converts Phred
// scores, and provides the standard pre-clustering quality controls
// (quality trimming, length/quality filters) so the library can ingest
// raw sequencer output rather than pre-cleaned FASTA.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bio/fasta.hpp"

namespace mrmc::bio {

struct FastqRecord {
  std::string id;       ///< first token of the '@' header
  std::string header;   ///< full header without '@'
  std::string seq;
  std::string quality;  ///< Phred+33 encoded, same length as seq

  friend bool operator==(const FastqRecord&, const FastqRecord&) = default;
};

/// Phred score of one quality character (offset 33); clamped at 0.
int phred_score(char quality_char) noexcept;

/// Expected per-base error probability for a Phred score: 10^(-q/10).
double phred_error_probability(int score) noexcept;

/// Mean per-base error probability of a record (1.0 for empty).
double mean_error_probability(const FastqRecord& record);

/// Parse all records from a stream.  Throws IoError on structural problems
/// (missing '+', quality/sequence length mismatch, truncated record).
std::vector<FastqRecord> read_fastq(std::istream& in);
std::vector<FastqRecord> read_fastq_string(std::string_view text);
std::vector<FastqRecord> read_fastq_file(const std::string& path);

/// Parse with an explicit error policy (see bio/parse.hpp).  Under kSkip a
/// malformed record — bad '@' header, missing '+', length mismatch, empty
/// id, or a record truncated by EOF — is quarantined: a reason lands in
/// `report` (optional), "bio.malformed_records" is bumped, and parsing
/// continues with the next record.  Under kThrow these are byte-identical
/// to the plain overloads.
std::vector<FastqRecord> read_fastq(std::istream& in,
                                    const ParseOptions& options,
                                    ParseReport* report = nullptr);
std::vector<FastqRecord> read_fastq_string(std::string_view text,
                                           const ParseOptions& options,
                                           ParseReport* report = nullptr);
std::vector<FastqRecord> read_fastq_file(const std::string& path,
                                         const ParseOptions& options,
                                         ParseReport* report = nullptr);

void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records);
std::string write_fastq_string(const std::vector<FastqRecord>& records);

/// Drop the FASTQ quality track (for the FASTA-only clustering API).
std::vector<FastaRecord> to_fasta(std::span<const FastqRecord> records);

struct QualityFilter {
  int trim_quality = 10;           ///< 3'-trim below this Phred score
  std::size_t min_length = 30;     ///< discard reads shorter than this after trim
  double max_mean_error = 0.02;    ///< discard reads above this mean error
};

/// 3'-trim each read at the first position where the windowed quality drops
/// below `trim_quality`, then apply the length and mean-error filters.
/// Returns surviving reads; `dropped` (optional) counts discards.
std::vector<FastqRecord> quality_filter(std::span<const FastqRecord> records,
                                        const QualityFilter& filter,
                                        std::size_t* dropped = nullptr);

}  // namespace mrmc::bio
