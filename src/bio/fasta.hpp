// FASTA parsing and writing.  Mirrors the paper's `FastaStorage` UDF: each
// record carries a read id, the raw sequence and the full header line.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bio/parse.hpp"

namespace mrmc::bio {

struct FastaRecord {
  std::string id;      ///< first whitespace-delimited token of the header
  std::string header;  ///< full header line without the leading '>'
  std::string seq;     ///< sequence with line breaks removed

  /// Modelled wire size for the MapReduce byte accounting (mr::approx_bytes
  /// dispatches to this hook): each string charged as approx_bytes charges
  /// one, its length plus an 8-byte length header.
  [[nodiscard]] double approx_serialized_bytes() const noexcept {
    return static_cast<double>(id.size() + header.size() + seq.size() + 3 * 8);
  }

  friend bool operator==(const FastaRecord&, const FastaRecord&) = default;
};

/// Parse all records from a stream.  Throws IoError on malformed input
/// (content before the first '>', or a record with an empty sequence).
std::vector<FastaRecord> read_fasta(std::istream& in);

/// Parse with an explicit error policy.  Under OnParseError::kSkip,
/// malformed records (empty id, no sequence, data before the first header)
/// are quarantined instead of fatal: each one adds a reason to `report`
/// (optional) and bumps the "bio.malformed_records" counter.  Under kThrow
/// this is byte-identical to the one-argument overload.
std::vector<FastaRecord> read_fasta(std::istream& in,
                                    const ParseOptions& options,
                                    ParseReport* report = nullptr);

/// Parse all records from an in-memory string.
std::vector<FastaRecord> read_fasta_string(std::string_view text);
std::vector<FastaRecord> read_fasta_string(std::string_view text,
                                           const ParseOptions& options,
                                           ParseReport* report = nullptr);

/// Parse all records from a file path.  Throws IoError if unreadable (in
/// either mode — an unopenable file is never a per-record problem).  The
/// lenient overload logs the file's skip count when any record was dropped.
std::vector<FastaRecord> read_fasta_file(const std::string& path);
std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         const ParseOptions& options,
                                         ParseReport* report = nullptr);

/// Write records, wrapping sequence lines at `width` characters (0 = no wrap).
void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t width = 70);

std::string write_fasta_string(const std::vector<FastaRecord>& records,
                               std::size_t width = 70);

}  // namespace mrmc::bio
