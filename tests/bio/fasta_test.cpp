#include "bio/fasta.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace mrmc::bio {
namespace {

TEST(ReadFasta, SingleRecord) {
  const auto records = read_fasta_string(">read1 sample=a\nACGT\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, "read1");
  EXPECT_EQ(records[0].header, "read1 sample=a");
  EXPECT_EQ(records[0].seq, "ACGT");
}

TEST(ReadFasta, MultilineSequencesAreJoined) {
  const auto records = read_fasta_string(">r\nACGT\nTTTT\nGG\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, "ACGTTTTTGG");
}

TEST(ReadFasta, MultipleRecords) {
  const auto records = read_fasta_string(">a\nAC\n>b\nGT\n>c\nTT\n");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].id, "a");
  EXPECT_EQ(records[1].id, "b");
  EXPECT_EQ(records[2].id, "c");
}

TEST(ReadFasta, SkipsBlankLines) {
  const auto records = read_fasta_string("\n>a\n\nAC\n\n>b\nGT\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].seq, "AC");
}

TEST(ReadFasta, HandlesCrLf) {
  const auto records = read_fasta_string(">a desc\r\nACGT\r\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].header, "a desc");
  EXPECT_EQ(records[0].seq, "ACGT");
}

TEST(ReadFasta, IdIsFirstToken) {
  const auto records = read_fasta_string(">id7\textra stuff\nAC\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, "id7");
}

TEST(ReadFasta, EmptyInputYieldsNoRecords) {
  EXPECT_TRUE(read_fasta_string("").empty());
}

TEST(ReadFasta, RejectsSequenceBeforeHeader) {
  EXPECT_THROW(read_fasta_string("ACGT\n>a\nAC\n"), common::IoError);
}

TEST(ReadFasta, RejectsRecordWithoutSequence) {
  EXPECT_THROW(read_fasta_string(">a\n>b\nAC\n"), common::IoError);
  EXPECT_THROW(read_fasta_string(">only\n"), common::IoError);
}

TEST(ReadFasta, RejectsEmptyId) {
  EXPECT_THROW(read_fasta_string("> \nAC\n"), common::IoError);
}

TEST(ReadFastaFile, MissingFileThrows) {
  EXPECT_THROW(read_fasta_file("/nonexistent/path.fa"), common::IoError);
}

TEST(ReadFastaFile, DirectoryThrowsNamingThePath) {
  const std::string dir = ::testing::TempDir() + "/mrmc_fasta_dir_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  for (const ParseOptions options : {ParseOptions{}, ParseOptions{OnParseError::kSkip}}) {
    try {
      (void)read_fasta_file(dir, options);
      ADD_FAILURE() << "a directory read as a FASTA file";
    } catch (const common::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + dir + "'"), std::string::npos) << e.what();
    }
  }
  std::filesystem::remove(dir);
}

TEST(WriteFasta, RoundTrip) {
  const std::vector<FastaRecord> records = {
      {"a", "a sample=1", "ACGTACGT"},
      {"b", "b", "TTTT"},
  };
  const auto text = write_fasta_string(records);
  const auto parsed = read_fasta_string(text);
  EXPECT_EQ(parsed, records);
}

TEST(WriteFasta, WrapsLongSequences) {
  const std::vector<FastaRecord> records = {{"a", "a", std::string(150, 'A')}};
  const auto text = write_fasta_string(records, 70);
  // 150 bases at width 70 -> 3 sequence lines.
  std::istringstream in(text);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4);  // 1 header + 3 sequence
  EXPECT_EQ(read_fasta_string(text)[0].seq, std::string(150, 'A'));
}

TEST(WriteFasta, ZeroWidthMeansNoWrap) {
  const std::vector<FastaRecord> records = {{"a", "a", std::string(150, 'C')}};
  const auto text = write_fasta_string(records, 0);
  EXPECT_NE(text.find(std::string(150, 'C')), std::string::npos);
}

TEST(WriteFasta, UsesIdWhenHeaderEmpty) {
  const std::vector<FastaRecord> records = {{"xyz", "", "AC"}};
  const auto text = write_fasta_string(records);
  EXPECT_NE(text.find(">xyz"), std::string::npos);
}

}  // namespace
}  // namespace mrmc::bio
