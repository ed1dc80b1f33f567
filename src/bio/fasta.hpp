// FASTA parsing and writing.  Mirrors the paper's `FastaStorage` UDF: each
// record carries a read id, the raw sequence and the full header line.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bio/parse.hpp"

namespace mrmc::common {
class ThreadPool;
}  // namespace mrmc::common

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

/// Parse all records from a stream (read to its end, then parsed as
/// text).  Throws IoError on malformed input (content before the first
/// '>', or a record with an empty sequence).
std::vector<FastaRecord> read_fasta(std::istream& in);

/// Parse with an explicit error policy.  Under OnParseError::kSkip,
/// malformed records (empty id, no sequence, data before the first header)
/// are quarantined instead of fatal: each one adds a reason to `report`
/// (optional) and bumps the "bio.malformed_records" counter.  Under kThrow
/// this is byte-identical to the one-argument overload.
std::vector<FastaRecord> read_fasta(std::istream& in,
                                    const ParseOptions& options,
                                    ParseReport* report = nullptr);

/// Parse all records from an in-memory string: the file reader's chunks and
/// chunk parser, run in order on the calling thread, reading the text in
/// place.
std::vector<FastaRecord> read_fasta_string(std::string_view text);
std::vector<FastaRecord> read_fasta_string(std::string_view text,
                                           const ParseOptions& options,
                                           ParseReport* report = nullptr);

/// Parse all records from a file path, on the process-wide pool
/// (common::shared_pool()): the file is cut into chunks of about
/// detail::kFastaChunkBytes that each start at a record, and each chunk is
/// read with pread and parsed on its own.  Records, errors and lenient
/// reports are those of a serial parse: in strict mode the error thrown is
/// that of the first malformed record in file order, and reasons come in
/// file order.  Throws IoError naming the path if the file cannot be opened
/// or read, or is a directory (in either mode — an unreadable file is never
/// a per-record problem).  The lenient overload logs the file's skip count
/// when any record was dropped.
std::vector<FastaRecord> read_fasta_file(const std::string& path);
std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         const ParseOptions& options,
                                         ParseReport* report = nullptr);

namespace detail {

/// The nominal chunk size of the FASTA readers: each cut after the first
/// chunk start moves forward to the next record start (a '>' after a '\n').
inline constexpr std::size_t kFastaChunkBytes = std::size_t{256} << 10;
/// How many bytes read_fasta_file reads at a time while it looks for a cut.
inline constexpr std::size_t kFastaProbeBytes = std::size_t{4} << 10;

/// read_fasta_file on a given pool, without the skip log: nullptr parses
/// the chunks in order on the calling thread.  The public reader passes the
/// process-wide pool; tests pass their own to check that the thread count
/// changes nothing.
std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         common::ThreadPool* pool,
                                         const ParseOptions& options,
                                         ParseReport* report);

}  // namespace detail

/// Write records, wrapping sequence lines at `width` characters (0 = no wrap).
void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t width = 70);

std::string write_fasta_string(const std::vector<FastaRecord>& records,
                               std::size_t width = 70);

}  // namespace mrmc::bio
