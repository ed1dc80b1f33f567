// The chunked FASTA reader against the getline parser it replaced
// (fasta_oracle.hpp): records, strict errors and lenient reports must be
// the same on one thread and on pools of 2 and 4, wherever the cuts land.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bio/fasta.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fasta_oracle.hpp"

namespace mrmc::bio {
namespace {

constexpr std::size_t kChunk = detail::kFastaChunkBytes;
constexpr std::size_t kProbe = detail::kFastaProbeBytes;
constexpr ParseOptions kSkip{.on_error = OnParseError::kSkip};

/// What one reader makes of one input, in both modes.
struct Outcome {
  std::vector<FastaRecord> records;  // strict mode
  std::string error;                 // strict mode's error; empty if none
  std::vector<FastaRecord> kept;     // lenient mode
  ParseReport report;
};

template <class Parse>
Outcome outcome_of(const Parse& parse) {
  Outcome out;
  try {
    out.records = parse(ParseOptions{}, nullptr);
  } catch (const common::IoError& e) {
    out.error = e.what();
  }
  out.kept = parse(kSkip, &out.report);
  return out;
}

/// "" if equal, else where the first difference is.
std::string difference(const std::vector<FastaRecord>& expected,
                       const std::vector<FastaRecord>& actual) {
  if (expected.size() != actual.size()) {
    return "sizes " + std::to_string(expected.size()) + " vs " +
           std::to_string(actual.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(expected[i] == actual[i])) {
      return "record " + std::to_string(i) + " ('" + expected[i].id + "' vs '" +
             actual[i].id + "')";
    }
  }
  return "";
}

void expect_same(const Outcome& expected, const Outcome& actual,
                 const std::string& reader) {
  SCOPED_TRACE(reader);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(difference(expected.records, actual.records), "");
  EXPECT_EQ(difference(expected.kept, actual.kept), "");
  EXPECT_EQ(actual.report.records, expected.report.records);
  EXPECT_EQ(actual.report.skipped, expected.report.skipped);
  EXPECT_EQ(actual.report.reasons, expected.report.reasons);
}

/// A file holding `text`, removed when the test is done with it.
class TempFile {
 public:
  explicit TempFile(const std::string& text)
      : path_(::testing::TempDir() + "/mrmc_chunks_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter()++) + ".fa") {
    std::ofstream out(path_, std::ios::binary);
    out << text;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int& counter() {
    static int n = 0;
    return n;
  }
  std::string path_;
};

common::ThreadPool& pool_of(std::size_t threads) {
  static common::ThreadPool two(2);
  static common::ThreadPool four(4);
  return threads == 2 ? two : four;
}

Outcome oracle_outcome(const std::string& text) {
  return outcome_of([&](const ParseOptions& options, ParseReport* report) {
    return oracle::read_fasta_getline(text, options, report);
  });
}

Outcome file_outcome(const std::string& path, common::ThreadPool* pool) {
  return outcome_of([&](const ParseOptions& options, ParseReport* report) {
    return detail::read_fasta_file(path, pool, options, report);
  });
}

/// Every reader against the oracle: the string and stream overloads, and
/// the file reader on the calling thread and on pools of 2 and 4 threads.
void check_against_oracle(const std::string& text, bool every_reader = true) {
  const Outcome expected = oracle_outcome(text);
  expect_same(expected, outcome_of([&](const ParseOptions& o, ParseReport* r) {
                return read_fasta_string(text, o, r);
              }),
              "read_fasta_string");
  const TempFile file(text);
  expect_same(expected, file_outcome(file.path(), nullptr), "file, 1 thread");
  expect_same(expected, file_outcome(file.path(), &pool_of(4)), "file, 4 threads");
  if (!every_reader) return;
  expect_same(expected, outcome_of([&](const ParseOptions& o, ParseReport* r) {
                std::istringstream in(text);
                return read_fasta(in, o, r);
              }),
              "read_fasta(istream)");
  expect_same(expected, file_outcome(file.path(), &pool_of(2)), "file, 2 threads");
}

std::string random_bases(std::mt19937_64& rng, std::size_t length) {
  std::string bases(length, 'A');
  for (char& base : bases) base = "ACGT"[rng() & 3];
  return bases;
}

/// Reads as perfbench writes them: write_fasta, wrapped at 70.
std::string reads_text(std::size_t reads, std::size_t length, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<FastaRecord> records(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    records[i].id = "r" + std::to_string(i);
    records[i].header = records[i].id + " otu=" + std::to_string(i % 97) + " len=" +
                        std::to_string(length);
    records[i].seq = random_bases(rng, length);
  }
  return write_fasta_string(records);
}

/// Well-formed FASTA of exactly `bytes` bytes (at least 7), ending in '\n'.
std::string filler(std::size_t bytes) {
  std::string text;
  for (std::size_t i = 0; bytes - text.size() > 200; ++i) {
    text += ">f" + std::to_string(i) + " filler\n" + std::string(100, "ACGT"[i % 4]) + "\n";
  }
  text += ">pad\n" + std::string(bytes - text.size() - 6, 'C') + "\n";
  return text;
}

TEST(FastaChunks, FillerHasTheRequestedSize) {
  for (const std::size_t bytes : {7u, 150u, 201u, 5000u}) {
    const std::string text = filler(bytes);
    EXPECT_EQ(text.size(), bytes);
    EXPECT_EQ(text.back(), '\n');
  }
}

TEST(FastaChunks, PerfbenchShapesMatchTheGetlineParser) {
  // amplicon_uniform (80 bp), amplicon_skewed (60 bp) and the shotgun
  // workloads (600 bp), each several chunks long.
  const std::string amplicon = reads_text(24000, 80, 7);
  ASSERT_GT(amplicon.size(), 8 * kChunk);
  check_against_oracle(amplicon);
  check_against_oracle(reads_text(20000, 60, 11));
  const std::string shotgun = reads_text(4000, 600, 777013);
  ASSERT_GT(shotgun.size(), 8 * kChunk);
  check_against_oracle(shotgun);
}

TEST(FastaChunks, ManyChunksOfMixedLinesMatchTheGetlineParser) {
  // CRLF and LF lines, blank lines, tabs in headers, long headers, and
  // malformed records (empty ids, no sequence), spread over many chunks.
  std::mt19937_64 rng(3);
  std::string text;
  for (std::size_t i = 0; text.size() < 12 * kChunk; ++i) {
    const std::string eol = rng() % 3 == 0 ? "\r\n" : "\n";
    switch (rng() % 16) {
      case 0:
        text += "> empty id" + eol + "ACGT" + eol;
        break;
      case 1:
        text += ">noseq" + std::to_string(i) + eol;
        break;
      case 2:
        text += ">long" + std::to_string(i) + " " + std::string(2 * kProbe, 'h') + eol +
                "ACGT" + eol;
        break;
      default:
        text += ">r" + std::to_string(i) + "\tdesc" + eol;
        for (std::size_t line = rng() % 4; line-- > 0;) {
          if (rng() % 5 == 0) text += eol;
          text += random_bases(rng, 1 + rng() % 80) + eol;
        }
        if (rng() % 4 == 0) text += eol + eol;
    }
  }
  check_against_oracle(text);
}

/// `unit` repeated, starting `offset` bytes before the first nominal cut,
/// so that cut falls on byte `offset` (mod the unit's size) of a unit.
std::string units_across_the_first_cut(const std::string& unit, std::size_t offset) {
  std::string text = filler(kChunk - offset);
  while (text.size() < kChunk + 4 * unit.size()) text += unit;
  return text;
}

TEST(FastaChunks, CutsOnEveryByteOfCrlfAndBlankLineRecordStarts) {
  const std::string units[] = {
      ">a x\r\nACGT\r\nTT\r\n>b\r\nGG\r\n\r\n",  // CRLF, a blank CRLF line
      ">c\nAC\n\n\n>d y\nGT\n\r\n\n",          // blank lines before '>'
      "> \nAC\n>nos\n>ok\nA\n",               // malformed records
  };
  for (const std::string& unit : units) {
    for (std::size_t offset = 1; offset <= unit.size() + 1; ++offset) {
      SCOPED_TRACE("offset " + std::to_string(offset));
      check_against_oracle(units_across_the_first_cut(unit, offset), false);
    }
  }
}

TEST(FastaChunks, CutInsideAHeaderLongerThanOneProbe) {
  const std::string header = ">long " + std::string(3 * kProbe, 'h');
  for (const std::size_t before : {std::size_t{1}, std::size_t{100}, kProbe - 1,
                                   kProbe, kProbe + 1, 2 * kProbe + 7,
                                   header.size() - 1}) {
    for (const std::string eol : {"\n", "\r\n"}) {
      SCOPED_TRACE("header starts " + std::to_string(before) + " bytes before the cut");
      const std::string text = filler(kChunk - before) + header + eol + "ACGT" + eol +
                               ">after" + eol + "GG" + eol + filler(1000);
      check_against_oracle(text, false);
    }
  }
}

TEST(FastaChunks, RecordStartAtTheLastByte) {
  for (const std::size_t at : {kChunk - 1, kChunk, kChunk + 1, kChunk + 5}) {
    SCOPED_TRACE("'>' at " + std::to_string(at));
    const std::string text = filler(at) + ">";
    const Outcome expected = oracle_outcome(text);
    EXPECT_EQ(expected.error, "fasta: record with empty id");
    check_against_oracle(text, false);
  }
}

TEST(FastaChunks, NoTrailingNewlineAndEmptyInput) {
  check_against_oracle(">a\nAC");
  check_against_oracle(">a\nAC\r");
  check_against_oracle(filler(kChunk + 1000) + ">last x\nACGT\nGG");
  check_against_oracle(filler(kChunk - 2) + ">last\nACGT");
  check_against_oracle("");
  const TempFile empty("");
  ParseReport report;
  EXPECT_TRUE(detail::read_fasta_file(empty.path(), &pool_of(4), kSkip, &report).empty());
  EXPECT_EQ(report.records, 0u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST(FastaChunks, StrictModeNamesTheEarliestMalformedRecord) {
  // The earlier error sits near the end of the second chunk, the later one
  // about a chunk further on, where a pool often finds it first.
  std::string text = filler(2 * kChunk - 300) + ">early\n";
  text += filler(3 * kChunk - text.size() + 10) + "> \nACGT\n" + filler(kChunk);
  const TempFile file(text);
  const std::string message = "fasta: record 'early' has no sequence";
  EXPECT_EQ(oracle_outcome(text).error, message);
  EXPECT_EQ(file_outcome(file.path(), nullptr).error, message);
  for (int round = 0; round < 10; ++round) {
    for (const std::size_t threads : {2u, 4u}) {
      try {
        (void)detail::read_fasta_file(file.path(), &pool_of(threads), ParseOptions{},
                                      nullptr);
        ADD_FAILURE() << "no error on " << threads << " threads";
      } catch (const common::IoError& e) {
        EXPECT_EQ(std::string(e.what()), message) << threads << " threads";
      }
    }
  }
  try {
    (void)read_fasta_file(file.path());
    ADD_FAILURE() << "no error on the shared pool";
  } catch (const common::IoError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(FastaChunks, LenientReasonsComeInFileOrder) {
  std::string text;
  std::vector<std::string> reasons;
  for (int i = 0; i < 40; ++i) {
    text += filler(kChunk / 4 + 13 * i) + ">bad" + std::to_string(i) + "\n";
    reasons.push_back("fasta: record 'bad" + std::to_string(i) + "' has no sequence");
  }
  text += filler(500);
  const TempFile file(text);
  for (common::ThreadPool* pool : {static_cast<common::ThreadPool*>(nullptr),
                                   &pool_of(2), &pool_of(4)}) {
    ParseReport report;
    (void)detail::read_fasta_file(file.path(), pool, kSkip, &report);
    EXPECT_EQ(report.reasons, reasons);
    EXPECT_EQ(report.skipped, reasons.size());
  }
  check_against_oracle(text, false);
}

TEST(FastaChunks, DataBeforeTheFirstHeaderIsOneReason) {
  // A pre-header run longer than a chunk: no cut can fall inside it, so it
  // is counted once, as by the serial parser.
  std::string text;
  while (text.size() < 2 * kChunk) text += "junk line without a header\n";
  text += reads_text(3000, 80, 5);
  const TempFile file(text);
  for (common::ThreadPool* pool : {static_cast<common::ThreadPool*>(nullptr),
                                   &pool_of(4)}) {
    const Outcome outcome = file_outcome(file.path(), pool);
    EXPECT_EQ(outcome.error, "fasta: sequence data before first header");
    EXPECT_EQ(outcome.report.skipped, 1u);
    EXPECT_EQ(outcome.report.reasons,
              std::vector<std::string>{"fasta: sequence data before first header"});
    EXPECT_EQ(outcome.kept.size(), 3000u);
  }
  check_against_oracle(text, false);
}

TEST(FastaChunks, APipeIsReadToItsEnd) {
  const std::string fifo =
      ::testing::TempDir() + "/mrmc_chunks_fifo_" + std::to_string(::getpid());
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string text = reads_text(3000, 80, 9);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << text;
  });
  const auto records = read_fasta_file(fifo);
  writer.join();
  std::remove(fifo.c_str());
  EXPECT_EQ(difference(oracle::read_fasta_getline(text, ParseOptions{}, nullptr), records),
            "");
}

}  // namespace
}  // namespace mrmc::bio
