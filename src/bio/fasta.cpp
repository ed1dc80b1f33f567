#include "bio/fasta.hpp"

#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace mrmc::bio {

namespace {

std::string_view first_token(std::string_view line) {
  return line.substr(0, line.find_first_of(" \t"));
}

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

namespace detail {

// Called by the FASTA and FASTQ parsers for every quarantined record, so
// both feed one metric the pipeline doctor and dashboards can watch.
void note_malformed(ParseReport* report, const std::string& reason) {
  obs::Registry::global().counter("bio.malformed_records").add();
  if (report == nullptr) return;
  ++report->skipped;
  report->reasons.push_back(reason);
}

}  // namespace detail

std::vector<FastaRecord> read_fasta(std::istream& in,
                                    const ParseOptions& options,
                                    ParseReport* report) {
  std::vector<FastaRecord> records;
  std::string line;
  FastaRecord current;
  // The record's sequence lines, gathered in one buffer that keeps its
  // capacity; the record gets an exact-size copy (appending to its own
  // string would leave up to twice the bytes it needs).
  std::string seq;
  bool in_record = false;    // a valid header has been seen
  bool quarantined = false;  // inside a record whose header was rejected
  bool leading_junk = false; // already counted the pre-header garbage run
  const bool lenient = options.on_error == OnParseError::kSkip;

  // In strict mode `fail` throws; in lenient mode it quarantines and lets
  // the caller's control flow skip the record.  The message strings are the
  // strict-mode errors verbatim, so reasons read the same either way.
  const auto fail = [&](std::string message) {
    if (!lenient) throw common::IoError(message);
    detail::note_malformed(report, message);
  };

  auto flush = [&] {
    if (!in_record) return;
    if (seq.empty()) {
      fail("fasta: record '" + current.id + "' has no sequence");
    } else {
      current.seq = std::string(seq);  // copy-constructed: capacity == size
      records.push_back(std::move(current));
    }
    current = {};
    seq.clear();
  };

  while (std::getline(in, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    if (line.front() == '>') {
      flush();
      quarantined = false;
      const std::string_view id = first_token(std::string_view(line).substr(1));
      if (id.empty()) {
        fail("fasta: record with empty id");
        // Lenient: swallow this record's sequence lines too.
        in_record = false;
        quarantined = true;
        continue;
      }
      in_record = true;
      current.id = std::string(id);
      current.header = line.substr(1);
    } else {
      if (!in_record) {
        if (quarantined) continue;  // body of an already-counted bad record
        if (!leading_junk) {
          fail("fasta: sequence data before first header");
          leading_junk = true;  // one count per garbage run, not per line
        }
        continue;
      }
      seq += line;
    }
  }
  flush();
  if (report != nullptr) report->records = records.size();
  return records;
}

std::vector<FastaRecord> read_fasta(std::istream& in) {
  return read_fasta(in, ParseOptions{});
}

std::vector<FastaRecord> read_fasta_string(std::string_view text,
                                           const ParseOptions& options,
                                           ParseReport* report) {
  std::istringstream stream{std::string(text)};
  return read_fasta(stream, options, report);
}

std::vector<FastaRecord> read_fasta_string(std::string_view text) {
  return read_fasta_string(text, ParseOptions{});
}

std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         const ParseOptions& options,
                                         ParseReport* report) {
  std::ifstream file(path);
  if (!file) throw common::IoError("fasta: cannot open '" + path + "'");
  ParseReport local;
  if (report == nullptr) report = &local;
  auto records = read_fasta(file, options, report);
  if (report->skipped > 0) {
    static const obs::Logger logger("bio.fasta");
    logger.warn("skipped malformed records", {{"path", path},
                                              {"skipped", report->skipped},
                                              {"kept", records.size()}});
  }
  return records;
}

std::vector<FastaRecord> read_fasta_file(const std::string& path) {
  return read_fasta_file(path, ParseOptions{});
}

void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t width) {
  for (const auto& rec : records) {
    out << '>' << (rec.header.empty() ? rec.id : rec.header) << '\n';
    if (width == 0) {
      out << rec.seq << '\n';
    } else {
      for (std::size_t pos = 0; pos < rec.seq.size(); pos += width) {
        out << std::string_view(rec.seq).substr(pos, width) << '\n';
      }
    }
  }
}

std::string write_fasta_string(const std::vector<FastaRecord>& records,
                               std::size_t width) {
  std::ostringstream out;
  write_fasta(out, records, width);
  return out.str();
}

}  // namespace mrmc::bio
