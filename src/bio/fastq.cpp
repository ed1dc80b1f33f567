#include "bio/fastq.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/log.hpp"

namespace mrmc::bio {

namespace {

std::string first_token(std::string_view line) {
  const auto end = line.find_first_of(" \t");
  return std::string(line.substr(0, end));
}

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

}  // namespace

int phred_score(char quality_char) noexcept {
  const int score = static_cast<unsigned char>(quality_char) - 33;
  return score < 0 ? 0 : score;
}

double phred_error_probability(int score) noexcept {
  return std::pow(10.0, -score / 10.0);
}

double mean_error_probability(const FastqRecord& record) {
  if (record.quality.empty()) return 1.0;
  double total = 0.0;
  for (const char c : record.quality) {
    total += phred_error_probability(phred_score(c));
  }
  return total / static_cast<double>(record.quality.size());
}

// One getline loop on the calling thread: no benchmark reads FASTQ.  To
// parse it on the pool, follow the FASTA chunk parser (parse_chunks in
// fasta.cpp); a cut there needs one more check, since '@' can also open a
// quality line: a record start is an '@' line whose second line after it
// begins with '+'.
std::vector<FastqRecord> read_fastq(std::istream& in,
                                    const ParseOptions& options,
                                    ParseReport* report) {
  std::vector<FastqRecord> records;
  std::string header, seq, plus, quality;
  const bool lenient = options.on_error == OnParseError::kSkip;
  // Strict mode throws; lenient mode quarantines the current record (its
  // lines are already consumed, so parsing resumes at the next header) with
  // the strict-mode message as the reason.
  const auto fail = [&](std::string message) {
    if (!lenient) throw common::IoError(message);
    detail::note_malformed(report, message);
  };

  while (std::getline(in, header)) {
    strip_cr(header);
    if (header.empty()) continue;
    if (header.front() != '@') {
      // A desynced file (stray line between records): drop this line and
      // rescan — the next '@' line restarts the 4-line cadence.
      fail("fastq: expected '@' header, got '" + header + "'");
      continue;
    }
    if (!std::getline(in, seq) || !std::getline(in, plus) ||
        !std::getline(in, quality)) {
      fail("fastq: truncated record");
      break;
    }
    strip_cr(seq);
    strip_cr(plus);
    strip_cr(quality);
    if (plus.empty() || plus.front() != '+') {
      fail("fastq: expected '+' separator");
      continue;
    }
    if (seq.size() != quality.size()) {
      fail("fastq: sequence/quality length mismatch for '" + header + "'");
      continue;
    }
    FastqRecord record;
    record.header = header.substr(1);
    record.id = first_token(record.header);
    if (record.id.empty()) {
      fail("fastq: record with empty id");
      continue;
    }
    record.seq = std::move(seq);
    record.quality = std::move(quality);
    records.push_back(std::move(record));
  }
  if (report != nullptr) report->records = records.size();
  return records;
}

std::vector<FastqRecord> read_fastq(std::istream& in) {
  return read_fastq(in, ParseOptions{});
}

std::vector<FastqRecord> read_fastq_string(std::string_view text,
                                           const ParseOptions& options,
                                           ParseReport* report) {
  std::istringstream stream{std::string(text)};
  return read_fastq(stream, options, report);
}

std::vector<FastqRecord> read_fastq_string(std::string_view text) {
  return read_fastq_string(text, ParseOptions{});
}

std::vector<FastqRecord> read_fastq_file(const std::string& path,
                                         const ParseOptions& options,
                                         ParseReport* report) {
  std::ifstream file(path);
  if (!file) throw common::IoError("fastq: cannot open '" + path + "'");
  ParseReport local;
  if (report == nullptr) report = &local;
  auto records = read_fastq(file, options, report);
  // A read error ends the getline loop like the end of the file does; only
  // badbit tells them apart.  A directory opens, then fails its first read.
  if (file.bad()) throw common::IoError("fastq: cannot read '" + path + "'");
  if (report->skipped > 0) {
    static const obs::Logger logger("bio.fastq");
    logger.warn("skipped malformed records", {{"path", path},
                                              {"skipped", report->skipped},
                                              {"kept", records.size()}});
  }
  return records;
}

std::vector<FastqRecord> read_fastq_file(const std::string& path) {
  return read_fastq_file(path, ParseOptions{});
}

void write_fastq(std::ostream& out, const std::vector<FastqRecord>& records) {
  for (const auto& record : records) {
    out << '@' << (record.header.empty() ? record.id : record.header) << '\n'
        << record.seq << "\n+\n" << record.quality << '\n';
  }
}

std::string write_fastq_string(const std::vector<FastqRecord>& records) {
  std::ostringstream out;
  write_fastq(out, records);
  return out.str();
}

std::vector<FastaRecord> to_fasta(std::span<const FastqRecord> records) {
  std::vector<FastaRecord> out;
  out.reserve(records.size());
  for (const auto& record : records) {
    out.push_back({record.id, record.header, record.seq});
  }
  return out;
}

std::vector<FastqRecord> quality_filter(std::span<const FastqRecord> records,
                                        const QualityFilter& filter,
                                        std::size_t* dropped) {
  std::vector<FastqRecord> kept;
  std::size_t discarded = 0;
  for (const auto& record : records) {
    // 3'-trim: cut at the first base whose score falls below the threshold.
    std::size_t keep = record.seq.size();
    for (std::size_t i = 0; i < record.quality.size(); ++i) {
      if (phred_score(record.quality[i]) < filter.trim_quality) {
        keep = i;
        break;
      }
    }
    FastqRecord trimmed = record;
    trimmed.seq.resize(keep);
    trimmed.quality.resize(keep);

    if (trimmed.seq.size() < filter.min_length ||
        mean_error_probability(trimmed) > filter.max_mean_error) {
      ++discarded;
      continue;
    }
    kept.push_back(std::move(trimmed));
  }
  if (dropped != nullptr) *dropped = discarded;
  return kept;
}

}  // namespace mrmc::bio
