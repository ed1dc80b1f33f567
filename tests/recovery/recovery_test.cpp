// Unit tests for mr::recovery building blocks: payload encoding, the
// checkpoint store's validation surface, and the StageDriver's single
// attempt / checkpoint / park behavior in isolation (the end-to-end
// kill/resume matrix lives in driver_chaos_test.cpp).
#include "mr/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"

namespace mrmc::mr::recovery {
namespace {

std::string unique_dir(const std::string& tag) {
  static int serial = 0;
  const std::string dir =
      ::testing::TempDir() + "/mrmc_recovery_" + tag + std::to_string(serial++);
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------- payload encoding

TEST(Payload, RoundTripsEveryFieldType) {
  PayloadWriter writer;
  writer.u32(0xdeadbeefU);
  writer.u64(0x0123456789abcdefULL);
  writer.i64(-42);
  writer.f64(-1.5e300);
  writer.f32(2.75F);
  writer.str("hello\0world");  // embedded NUL is cut by the literal, fine
  writer.str("");

  PayloadReader reader(writer.bytes());
  EXPECT_EQ(reader.u32(), 0xdeadbeefU);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f64(), -1.5e300);
  EXPECT_EQ(reader.f32(), 2.75F);
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.done());
}

TEST(Payload, OverrunThrowsInsteadOfReadingGarbage) {
  PayloadWriter writer;
  writer.u32(7);
  PayloadReader reader(writer.bytes());
  EXPECT_THROW((void)reader.u64(), common::Error);

  // A string whose recorded length exceeds the remaining bytes is the
  // classic torn-file shape; it must throw, not allocate wildly.
  PayloadWriter torn;
  torn.u64(1ULL << 40);
  PayloadReader torn_reader(torn.bytes());
  EXPECT_THROW((void)torn_reader.str(), common::Error);
}

TEST(Payload, DoneDetectsTrailingBytes) {
  PayloadWriter writer;
  writer.u32(1);
  writer.u32(2);
  PayloadReader reader(writer.bytes());
  (void)reader.u32();
  EXPECT_FALSE(reader.done());
  (void)reader.u32();
  EXPECT_TRUE(reader.done());
}

// ------------------------------------------------------- checkpoint store

TEST(CheckpointStore, StoresAndReloadsAPayload) {
  CheckpointStore store(unique_dir("store"));
  const std::string name = checkpoint_file_name("unit", "sketch", 0, 0xabcd);
  ASSERT_TRUE(store.store(name, 0xabcd, "payload-bytes"));
  const auto loaded = store.load(name, 0xabcd);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload-bytes");
  EXPECT_EQ(store.invalid_checkpoints(), 0u);
  // No temp residue from the atomic write.
  for (const auto& entry :
       std::filesystem::directory_iterator(store.dir())) {
    EXPECT_EQ(entry.path().extension(), ".ckpt") << entry.path();
  }
}

TEST(CheckpointStore, MissingFileIsAPlainMiss) {
  CheckpointStore store(unique_dir("missing"));
  EXPECT_FALSE(store.load("never-written.ckpt", 1).has_value());
  EXPECT_EQ(store.invalid_checkpoints(), 0u);  // absent != invalid
}

TEST(CheckpointStore, WrongKeyTruncationAndCorruptionAreInvalid) {
  CheckpointStore store(unique_dir("invalid"));
  const std::string name = checkpoint_file_name("unit", "stage", 1, 99);
  ASSERT_TRUE(store.store(name, 99, "the quick brown fox"));
  const std::string path = store.dir() + "/" + name;

  // Key mismatch (a stale file from a different param/input chain).
  EXPECT_FALSE(store.load(name, 100).has_value());
  EXPECT_EQ(store.invalid_checkpoints(), 1u);

  // Truncation (torn write survived a crash without the atomic rename).
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 5);
  EXPECT_FALSE(store.load(name, 99).has_value());
  EXPECT_EQ(store.invalid_checkpoints(), 2u);

  // Payload corruption: right size, wrong checksum.
  ASSERT_TRUE(store.store(name, 99, "the quick brown fox"));
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(full_size) - 1);
    file.put('X');
  }
  EXPECT_FALSE(store.load(name, 99).has_value());
  EXPECT_EQ(store.invalid_checkpoints(), 3u);

  // Garbage that never was a checkpoint (bad magic).
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << "this is not a checkpoint file";
  }
  EXPECT_FALSE(store.load(name, 99).has_value());
  EXPECT_EQ(store.invalid_checkpoints(), 4u);
}

TEST(CheckpointStore, FileNamesSanitizeSlashes) {
  const std::string name =
      checkpoint_file_name("pipeline/hier", "a/b", 3, 0xf0);
  EXPECT_EQ(name.find('/'), std::string::npos);
  EXPECT_NE(name.find("3-a_b"), std::string::npos);
  EXPECT_NE(name.find(key_hex(0xf0)), std::string::npos);
}

TEST(CheckpointStore, KeyHexIsFixedWidthLowercase) {
  EXPECT_EQ(key_hex(0), "0000000000000000");
  EXPECT_EQ(key_hex(0xabcdef0123456789ULL), "abcdef0123456789");
}

// ---------------------------------------------------------- stage driver

void encode_string(PayloadWriter& writer, const std::string& value) {
  writer.str(value);
}

std::string decode_string(PayloadReader& reader) { return reader.str(); }

TEST(StageDriver, RunsUncheckpointedWhenNoDirConfigured) {
  StageDriver driver{StageDriver::Options{}};
  EXPECT_FALSE(driver.checkpointing());
  int calls = 0;
  const std::string value = driver.run_stage(
      "stage",
      [&] {
        ++calls;
        return std::string("computed");
      },
      encode_string, decode_string);
  EXPECT_EQ(value, "computed");
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(driver.stats().stages, 1u);
  EXPECT_EQ(driver.stats().checkpoint_hits, 0u);
  EXPECT_EQ(driver.stats().checkpoint_misses, 0u);
  EXPECT_EQ(driver.stats().checkpoint_writes, 0u);
}

TEST(StageDriver, SecondDriverServesTheStageFromCheckpoint) {
  const std::string dir = unique_dir("hit");
  StageDriver::Options options;
  options.checkpoint_dir = dir;
  options.params_fingerprint = 11;
  options.input_fingerprint = 22;

  StageDriver first(options);
  int calls = 0;
  const auto compute = [&] {
    ++calls;
    return std::string("value-0");
  };
  EXPECT_EQ(first.run_stage("s", compute, encode_string, decode_string),
            "value-0");
  EXPECT_EQ(first.stats().checkpoint_misses, 1u);
  EXPECT_EQ(first.stats().checkpoint_writes, 1u);

  StageDriver second(options);
  EXPECT_EQ(second.run_stage("s", compute, encode_string, decode_string),
            "value-0");
  EXPECT_EQ(calls, 1);  // served from disk, compute never re-ran
  EXPECT_EQ(second.stats().checkpoint_hits, 1u);
  EXPECT_EQ(second.stats().checkpoint_misses, 0u);

  // A different fingerprint chain must not see the stale file as valid.
  StageDriver::Options changed = options;
  changed.params_fingerprint = 12;
  StageDriver third(changed);
  EXPECT_EQ(third.run_stage("s", compute, encode_string, decode_string),
            "value-0");
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(third.stats().checkpoint_hits, 0u);
  EXPECT_EQ(third.stats().checkpoint_misses, 1u);
}

TEST(StageDriver, DownstreamKeysDependOnUpstreamPayloads) {
  // Two runs whose first stage produces different bytes must not share the
  // second stage's checkpoint, even with identical fingerprints: the chain
  // absorbs every upstream payload checksum.
  const std::string dir = unique_dir("chain");
  StageDriver::Options options;
  options.checkpoint_dir = dir;

  int second_calls = 0;
  const auto second_stage = [&] {
    ++second_calls;
    return std::string("downstream");
  };

  StageDriver a(options);
  (void)a.run_stage("first", [] { return std::string("A"); }, encode_string,
                    decode_string);
  (void)a.run_stage("second", second_stage, encode_string, decode_string);
  EXPECT_EQ(second_calls, 1);

  // Same stages, different first payload: "second" recomputes.
  std::filesystem::remove_all(dir);
  StageDriver b(options);
  (void)b.run_stage("first", [] { return std::string("B"); }, encode_string,
                    decode_string);
  (void)b.run_stage("second", second_stage, encode_string, decode_string);
  EXPECT_EQ(second_calls, 2);
  EXPECT_EQ(b.stats().checkpoint_hits, 0u);
}

TEST(StageDriver, UndecodablePayloadFallsBackToRecompute) {
  // A checksum-valid checkpoint whose payload does not match the decoder
  // (e.g. written by a different schema) is treated as invalid, not fatal.
  const std::string dir = unique_dir("undecodable");
  StageDriver::Options options;
  options.checkpoint_dir = dir;

  StageDriver writer(options);
  (void)writer.run_stage("s", [] { return std::string("text"); },
                         encode_string, decode_string);

  StageDriver reader(options);
  const auto decoded = reader.run_stage(
      "s", [] { return 7L; },
      [](PayloadWriter& w, const long& v) { w.i64(v); },
      [](PayloadReader& r) { return static_cast<long>(r.i64()); });
  EXPECT_EQ(decoded, 7L);
  EXPECT_EQ(reader.stats().checkpoint_hits, 0u);
  EXPECT_EQ(reader.stats().invalid_checkpoints, 1u);
}

TEST(StageDriver, AStageErrorPropagatesOnceWithItsType) {
  // One attempt, checkpointing or not: the compute's own exception reaches
  // the caller unwrapped, and nothing is committed for the failed stage.
  for (const bool checkpointing : {false, true}) {
    StageDriver::Options options;
    if (checkpointing) options.checkpoint_dir = unique_dir("error");
    StageDriver driver(options);
    int calls = 0;
    EXPECT_THROW((void)driver.run_stage(
                     "doomed",
                     [&]() -> std::string {
                       ++calls;
                       throw common::InvalidArgument("boom");
                     },
                     encode_string, decode_string),
                 common::InvalidArgument)
        << "checkpointing=" << checkpointing;
    EXPECT_EQ(calls, 1) << "checkpointing=" << checkpointing;
    EXPECT_EQ(driver.stats().stages, 0u);
    if (checkpointing) {
      EXPECT_TRUE(std::filesystem::is_empty(options.checkpoint_dir));
    }
  }
}

TEST(StageDriver, ParkThrowsAndMarksTheStats) {
  StageDriver driver{StageDriver::Options{}};
  EXPECT_THROW(driver.park("no schedulable node"), DriverParked);
  EXPECT_TRUE(driver.stats().parked);
}

TEST(StageDriver, CrashHookFiresAfterTheCheckpointCommits) {
  const std::string dir = unique_dir("crash");
  StageDriver::Options options;
  options.checkpoint_dir = dir;
  options.crash_after = "s";

  StageDriver driver(options);
  EXPECT_THROW((void)driver.run_stage("s", [] { return std::string("v"); },
                                      encode_string, decode_string),
               InjectedDriverCrash);
  // The checkpoint survived the "crash": a resumed driver hits.
  StageDriver::Options resume;
  resume.checkpoint_dir = dir;
  StageDriver resumed(resume);
  EXPECT_EQ(resumed.run_stage("s", [] { return std::string("other"); },
                              encode_string, decode_string),
            "v");
  EXPECT_EQ(resumed.stats().checkpoint_hits, 1u);
}

}  // namespace
}  // namespace mrmc::mr::recovery
