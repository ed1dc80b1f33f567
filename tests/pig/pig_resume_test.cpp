// Resumable Algorithm 3: the Pig driver runs on the same mr::recovery
// StageDriver as core::run_pipeline, configured via MRMC_CHECKPOINT_DIR.
// A killed script resumes with completed steps served from checkpoint and
// byte-identical stored outputs.
#include "pig/pig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <optional>
#include <string>
#include <string_view>

#include "bio/fasta.hpp"
#include "mr/recovery.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::pig {
namespace {

/// The largest single operator-new request since the last reset (see the
/// replacements below): a decoder that sizes a container from a count its
/// payload cannot hold shows up here even when the allocation then fails.
std::atomic<std::size_t> largest_request{0};

void* counted_malloc(std::size_t size) noexcept {
  std::size_t seen = largest_request.load(std::memory_order_relaxed);
  while (size > seen && !largest_request.compare_exchange_weak(seen, size)) {
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_malloc(std::size_t size, std::align_val_t align) noexcept {
  std::size_t seen = largest_request.load(std::memory_order_relaxed);
  while (size > seen && !largest_request.compare_exchange_weak(seen, size)) {
  }
  void* block = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  return posix_memalign(&block, alignment, size == 0 ? 1 : size) == 0 ? block
                                                                      : nullptr;
}

}  // namespace
}  // namespace mrmc::pig

// Every form of new and delete, unaligned and aligned (core::LargeArray
// places arrays of 2 MiB and more on huge-page boundaries), is replaced, so
// each allocation of this binary pairs malloc or posix_memalign with free
// (sanitizers check the pairing).
void* operator new(std::size_t size) {
  if (void* block = mrmc::pig::counted_malloc(size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return mrmc::pig::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return mrmc::pig::counted_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* block = mrmc::pig::counted_aligned_malloc(size, align)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return mrmc::pig::counted_aligned_malloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return mrmc::pig::counted_aligned_malloc(size, align);
}
void operator delete(void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete[](void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace mrmc::pig {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::string& value)
      : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    ::setenv(name_.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

std::string fresh_dir(const std::string& tag) {
  static int serial = 0;
  const std::string dir = ::testing::TempDir() + "/mrmc_pig_resume_" + tag +
                          std::to_string(serial++);
  std::filesystem::remove_all(dir);
  return dir;
}

constexpr std::size_t kSteps = 8;  // 6 foreach + 2 group-all driver stages

struct Fixture {
  mr::SimDfs dfs;
  Algorithm3Params params;

  Fixture() : dfs({.nodes = 4, .block_size = 4096}) {
    const auto sample = simdata::build_whole_metagenome(
        simdata::whole_metagenome_spec("S8"), {.reads = 30, .seed = 5});
    dfs.write("/input.fa", bio::write_fasta_string(sample.reads));
    params.kmer = 5;
    params.num_hashes = 32;
    params.cutoff = 0.45;
  }

  Algorithm3Result run() {
    return run_algorithm3(dfs, "/input.fa", "/out/hier", "/out/greedy",
                          params, {.nodes = 4});
  }
};

TEST(PigResume, KilledScriptResumesWithByteIdenticalStores) {
  Fixture baseline_fixture;
  const Algorithm3Result baseline = baseline_fixture.run();
  const std::string hier_bytes = baseline_fixture.dfs.read("/out/hier");
  const std::string greedy_bytes = baseline_fixture.dfs.read("/out/greedy");
  EXPECT_EQ(baseline.jobs_run, kSteps);
  // Without MRMC_CHECKPOINT_DIR the driver still runs (and counts) every
  // stage — it just has nothing to hit or write.
  EXPECT_EQ(baseline.recovery.stages, kSteps);
  EXPECT_EQ(baseline.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(baseline.recovery.checkpoint_writes, 0u);

  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("kill"));
  {
    // Die right after the minwise-hash step (driver sequence 2) commits.
    ScopedEnv crash("MRMC_CRASH_AFTER_STAGE", "foreach-CalculateMinwiseHash");
    EXPECT_THROW(fixture.run(), mr::recovery::InjectedDriverCrash);
    EXPECT_FALSE(fixture.dfs.exists("/out/hier"));
  }

  const Algorithm3Result resumed = fixture.run();
  EXPECT_EQ(resumed.hierarchical, baseline.hierarchical);
  EXPECT_EQ(resumed.greedy, baseline.greedy);
  EXPECT_EQ(fixture.dfs.read("/out/hier"), hier_bytes);
  EXPECT_EQ(fixture.dfs.read("/out/greedy"), greedy_bytes);
  EXPECT_EQ(resumed.recovery.stages, kSteps);
  EXPECT_EQ(resumed.recovery.checkpoint_hits, 3u);
  EXPECT_EQ(resumed.recovery.checkpoint_misses, kSteps - 3);
  EXPECT_EQ(resumed.jobs_run, kSteps - 3);  // hit steps run no jobs
}

TEST(PigResume, FullyResumedScriptRunsNoJobsButStoresEverything) {
  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("full"));
  const Algorithm3Result first = fixture.run();
  EXPECT_EQ(first.recovery.checkpoint_writes, kSteps);
  EXPECT_GT(first.sim_time_s, 0.0);
  const std::string hier_bytes = fixture.dfs.read("/out/hier");

  // Same DFS, warm directory: the twice-run "group-all" step resolves by
  // sequence number, every step hits, and the stores still materialize.
  const Algorithm3Result second = fixture.run();
  EXPECT_EQ(second.recovery.checkpoint_hits, kSteps);
  EXPECT_EQ(second.jobs_run, 0u);
  EXPECT_EQ(second.sim_time_s, 0.0);
  EXPECT_EQ(second.hierarchical, first.hierarchical);
  EXPECT_EQ(second.greedy, first.greedy);
  EXPECT_EQ(fixture.dfs.read("/out/hier"), hier_bytes);
}

TEST(PigResume, ChangedParamsIgnoreTheWarmDirectory) {
  Fixture fixture;
  ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", fresh_dir("params"));
  (void)fixture.run();

  fixture.params.cutoff = 0.6;
  const Algorithm3Result rerun = fixture.run();
  EXPECT_EQ(rerun.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, kSteps);
  EXPECT_EQ(rerun.jobs_run, kSteps);
}

TEST(PigResume, MetricsAreWrittenOnSuccessAndWhenAStageThrows) {
  const std::string dir = fresh_dir("metrics");
  std::filesystem::create_directories(dir);
  {
    ScopedEnv metrics("MRMC_METRICS", dir + "/done.json");
    (void)Fixture().run();
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/done.json"));

  ScopedEnv metrics("MRMC_METRICS", dir + "/failed.json");
  ScopedEnv fail("MRMC_FAIL_STAGE", "foreach-CalculatePairwiseSimilarity:5");
  EXPECT_THROW((void)Fixture().run(), mr::recovery::RetryExhausted);
  EXPECT_TRUE(std::filesystem::exists(dir + "/failed.json"));
}

// A checkpoint file: magic, u32 version, u64 key, u64 payload size and u64
// payload checksum, then the payload.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The byte offset of the first count of `kind` in a relation payload:
/// 0 = the relation's tuple count, 1 = a tuple's field count, 3 / 4 / 5 =
/// the element count of the first long list, double list or bag.
class CountFinder {
 public:
  CountFinder(std::string_view payload, int kind)
      : payload_(payload), kind_(kind) {
    note(0);
    for (std::uint64_t n = u64(); n > 0; --n) tuple();
  }
  [[nodiscard]] const std::optional<std::size_t>& offset() const {
    return found_;
  }

 private:
  void note(int kind) {
    if (kind == kind_ && !found_) found_ = pos_;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    std::memcpy(&value, payload_.data() + pos_, 8);
    pos_ += 8;
    return value;
  }
  void tuple() {
    note(1);
    for (std::uint64_t n = u64(); n > 0; --n) value();
  }
  void value() {
    std::uint32_t tag = 0;
    std::memcpy(&tag, payload_.data() + pos_, 4);
    pos_ += 4;
    note(static_cast<int>(tag));
    switch (tag) {
      case 0: pos_ += u64(); break;              // string bytes
      case 3: case 4: pos_ += 8 * u64(); break;  // list elements
      case 5:
        for (std::uint64_t n = u64(); n > 0; --n) tuple();
        break;
      default: pos_ += 8;                        // long or double
    }
  }

  std::string_view payload_;
  int kind_;
  std::size_t pos_ = 0;
  std::optional<std::size_t> found_;
};

TEST(PigResume, OversizedCountsAreAMissThenARecompute) {
  // A count of 2^40 elements would be a multi-TiB allocation; every pig
  // decoder must refuse it against the bytes actually left, so the stage
  // is a counted miss and a recompute, and nothing of that size is asked
  // of the allocator.
  Fixture baseline_fixture;
  const Algorithm3Result baseline = baseline_fixture.run();
  for (const int kind : {0, 1, 3, 4, 5}) {
    Fixture fixture;
    const std::string dir = fresh_dir("oversized");
    ScopedEnv ckpt("MRMC_CHECKPOINT_DIR", dir);
    (void)fixture.run();

    // The first stage (in driver order) whose payload holds such a count.
    std::filesystem::path victim;
    std::string payload;
    std::size_t offset = 0;
    for (std::size_t sequence = 0; sequence < kSteps && victim.empty();
         ++sequence) {
      std::string needle = ".";  // "<label>.<sequence>-<stage>..."
      needle += std::to_string(sequence);
      needle += '-';
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().find(needle) ==
            std::string::npos) {
          continue;
        }
        payload = read_file(entry.path()).substr(kHeaderBytes);
        if (const auto found = CountFinder(payload, kind).offset()) {
          victim = entry.path();
          offset = *found;
        }
      }
    }
    ASSERT_FALSE(victim.empty()) << "no payload holds count kind " << kind;

    // Claim 2^40 elements, then re-seal the size and checksum so only the
    // decoder can reject the file.
    mr::recovery::PayloadWriter claim;
    claim.u64(std::uint64_t{1} << 40);
    std::string edited = payload;
    edited.replace(offset, 8, claim.bytes());
    const std::string blob = read_file(victim);
    mr::recovery::PayloadWriter sizes;
    sizes.u64(edited.size());
    sizes.u64(mr::recovery::fnv_checksum(edited));
    {
      std::ofstream out(victim, std::ios::binary | std::ios::trunc);
      out << blob.substr(0, kHeaderBytes - 16) << sizes.bytes() << edited;
    }

    largest_request = 0;
    const Algorithm3Result rerun = fixture.run();
    EXPECT_LT(largest_request.load(), std::size_t{1} << 30) << kind;
    EXPECT_EQ(rerun.hierarchical, baseline.hierarchical) << kind;
    EXPECT_EQ(rerun.greedy, baseline.greedy) << kind;
    EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u) << kind;
    EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u) << kind;
    EXPECT_EQ(rerun.recovery.checkpoint_hits, kSteps - 1) << kind;
    EXPECT_EQ(read_file(victim).substr(kHeaderBytes), payload) << kind;
  }
}

}  // namespace
}  // namespace mrmc::pig
