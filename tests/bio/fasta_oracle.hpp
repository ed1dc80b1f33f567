// The FASTA reader as it was before it parsed in chunks: one getline loop
// over a stream.  Kept as the oracle the chunk parser is held to — records,
// strict errors and lenient reports (counts, reasons, their order).  It
// reports skips without touching the "bio.malformed_records" counter.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bio/fasta.hpp"
#include "common/error.hpp"

namespace mrmc::bio::oracle {

inline std::vector<FastaRecord> read_fasta_getline(std::string_view text,
                                                   const ParseOptions& options,
                                                   ParseReport* report) {
  std::istringstream in{std::string(text)};
  std::vector<FastaRecord> records;
  std::string line;
  FastaRecord current;
  std::string seq;
  bool in_record = false;
  bool quarantined = false;
  bool leading_junk = false;
  const bool lenient = options.on_error == OnParseError::kSkip;

  const auto fail = [&](std::string message) {
    if (!lenient) throw common::IoError(message);
    if (report == nullptr) return;
    ++report->skipped;
    report->reasons.push_back(std::move(message));
  };
  const auto flush = [&] {
    if (!in_record) return;
    if (seq.empty()) {
      fail("fasta: record '" + current.id + "' has no sequence");
    } else {
      current.seq = std::string(seq);
      records.push_back(std::move(current));
    }
    current = {};
    seq.clear();
  };

  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.front() == '>') {
      flush();
      quarantined = false;
      const std::string_view header = std::string_view(line).substr(1);
      const std::string_view id = header.substr(0, header.find_first_of(" \t"));
      if (id.empty()) {
        fail("fasta: record with empty id");
        in_record = false;
        quarantined = true;
        continue;
      }
      in_record = true;
      current.id = std::string(id);
      current.header = line.substr(1);
    } else {
      if (!in_record) {
        if (quarantined) continue;
        if (!leading_junk) {
          fail("fasta: sequence data before first header");
          leading_junk = true;
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

}  // namespace mrmc::bio::oracle
