#include "bio/fastq.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace mrmc::bio {
namespace {

constexpr const char* kTwoRecords =
    "@r1 sample=a\nACGT\n+\nIIII\n@r2\nTTGG\n+\n!!II\n";

TEST(ReadFastq, ParsesRecords) {
  const auto records = read_fastq_string(kTwoRecords);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "r1");
  EXPECT_EQ(records[0].header, "r1 sample=a");
  EXPECT_EQ(records[0].seq, "ACGT");
  EXPECT_EQ(records[0].quality, "IIII");
  EXPECT_EQ(records[1].id, "r2");
}

TEST(ReadFastq, HandlesCrLf) {
  const auto records = read_fastq_string("@a\r\nAC\r\n+\r\nII\r\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, "AC");
  EXPECT_EQ(records[0].quality, "II");
}

TEST(ReadFastq, EmptyInput) { EXPECT_TRUE(read_fastq_string("").empty()); }

TEST(ReadFastq, RejectsMalformedRecords) {
  EXPECT_THROW(read_fastq_string("ACGT\n"), common::IoError);          // no '@'
  EXPECT_THROW(read_fastq_string("@a\nAC\n"), common::IoError);        // truncated
  EXPECT_THROW(read_fastq_string("@a\nAC\nII\nII\n"), common::IoError);  // no '+'
  EXPECT_THROW(read_fastq_string("@a\nACGT\n+\nII\n"), common::IoError);  // len
  EXPECT_THROW(read_fastq_string("@ \nAC\n+\nII\n"), common::IoError);  // empty id
}

TEST(ReadFastq, MissingFileThrows) {
  EXPECT_THROW(read_fastq_file("/does/not/exist.fq"), common::IoError);
}

TEST(WriteFastq, RoundTrip) {
  const auto records = read_fastq_string(kTwoRecords);
  EXPECT_EQ(read_fastq_string(write_fastq_string(records)), records);
}

TEST(PhredScore, KnownValues) {
  EXPECT_EQ(phred_score('!'), 0);   // '!' = 33
  EXPECT_EQ(phred_score('I'), 40);  // 'I' = 73
  EXPECT_EQ(phred_score('+'), 10);
}

TEST(PhredErrorProbability, KnownValues) {
  EXPECT_DOUBLE_EQ(phred_error_probability(0), 1.0);
  EXPECT_DOUBLE_EQ(phred_error_probability(10), 0.1);
  EXPECT_DOUBLE_EQ(phred_error_probability(20), 0.01);
}

TEST(MeanErrorProbability, AveragesOverBases) {
  FastqRecord record{"r", "r", "ACGT", "IIII"};  // q40 -> 1e-4 each
  EXPECT_NEAR(mean_error_probability(record), 1e-4, 1e-9);
  record.quality = "!!!!";  // q0 -> p 1.0
  EXPECT_DOUBLE_EQ(mean_error_probability(record), 1.0);
  EXPECT_DOUBLE_EQ(mean_error_probability({"r", "r", "", ""}), 1.0);
}

TEST(ToFasta, DropsQuality) {
  const auto fasta = to_fasta(read_fastq_string(kTwoRecords));
  ASSERT_EQ(fasta.size(), 2u);
  EXPECT_EQ(fasta[0].id, "r1");
  EXPECT_EQ(fasta[0].seq, "ACGT");
}

TEST(QualityFilter, TrimsAtLowQualityTail) {
  // Quality drops below 10 ('+' = q10; '!' = q0) at position 4.
  const FastqRecord record{"r", "r", "ACGTACGT", "IIII!III"};
  std::size_t dropped = 0;
  const auto kept = quality_filter({&record, 1}, {.trim_quality = 10, .min_length = 2,
                                              .max_mean_error = 0.5},
                                   &dropped);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].seq, "ACGT");
  EXPECT_EQ(kept[0].quality, "IIII");
  EXPECT_EQ(dropped, 0u);
}

TEST(QualityFilter, DropsShortAfterTrim) {
  const FastqRecord record{"r", "r", "ACGTACGT", "II!IIIII"};
  std::size_t dropped = 0;
  const auto kept = quality_filter({&record, 1}, {.trim_quality = 10, .min_length = 5,
                                              .max_mean_error = 0.5},
                                   &dropped);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(dropped, 1u);
}

TEST(QualityFilter, DropsHighMeanError) {
  const FastqRecord record{"r", "r", "ACGTACGT", "++++++++"};  // q10 -> p 0.1
  const auto kept = quality_filter(
      {&record, 1}, {.trim_quality = 5, .min_length = 2, .max_mean_error = 0.05});
  EXPECT_TRUE(kept.empty());
}

TEST(QualityFilter, KeepsCleanReads) {
  const auto records = read_fastq_string("@a\nACGTACGTACGTACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n");
  std::size_t dropped = 0;
  const auto kept = quality_filter(records, {}, &dropped);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(dropped, 0u);
}

}  // namespace
}  // namespace mrmc::bio
