// Checkpoint invalidation at pipeline scope: a changed parameter or input,
// a truncated or corrupted file, and a stale directory must all fall back
// to recompute — never crash, never change the output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/candidates.hpp"
#include "core/minhash.hpp"
#include "core/pipeline.hpp"
#include "mr/recovery.hpp"
#include "simdata/datasets.hpp"

namespace mrmc::core {
namespace {

std::string fresh_dir(const std::string& tag) {
  static int serial = 0;
  const std::string dir = ::testing::TempDir() + "/mrmc_invalidate_" + tag +
                          std::to_string(serial++);
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<bio::FastaRecord> sample_reads(std::uint64_t seed = 5) {
  return simdata::build_whole_metagenome(simdata::whole_metagenome_spec("S8"),
                                         {.reads = 40, .seed = seed})
      .reads;
}

PipelineParams hier_params() {
  PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = 32, .canonical = true, .seed = 1};
  params.mode = Mode::kHierarchical;
  params.theta = 0.5;
  return params;
}

ExecutionOptions checkpointed(const std::string& dir) {
  ExecutionOptions exec;
  exec.threads = 2;
  exec.records_per_split = 16;
  exec.checkpoint_dir = dir;
  return exec;
}

/// The on-disk checkpoint of driver sequence `sequence` ("<label>.<seq>-…").
std::filesystem::path checkpoint_of(const std::string& dir,
                                    std::size_t sequence) {
  const std::string needle = "." + std::to_string(sequence) + "-";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(needle) != std::string::npos &&
        entry.path().extension() == ".ckpt") {
      return entry.path();
    }
  }
  ADD_FAILURE() << "no checkpoint with sequence " << sequence << " in " << dir;
  return {};
}

// The hierarchical pipeline drives 3 stages: sketch, similarity, cluster.
constexpr std::size_t kStages = 3;

// A checkpoint file: magic, u32 version, u64 key, u64 payload size and u64
// payload checksum, then the payload.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Replace a checkpoint's payload, keeping its key and re-sealing the size
/// and checksum, so only the decoder can reject it.
void reseal_payload(const std::filesystem::path& path, std::string_view payload) {
  const std::string blob = read_file(path);
  mr::recovery::PayloadWriter sizes;
  sizes.u64(payload.size());
  sizes.u64(mr::recovery::fnv_checksum(payload));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << blob.substr(0, kHeaderBytes - 16) << sizes.bytes() << payload;
}

TEST(Invalidation, UnchangedRerunServesEveryStageFromCheckpoint) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("rerun");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(first.recovery.checkpoint_misses, kStages);
  EXPECT_EQ(first.recovery.checkpoint_writes, kStages);
  EXPECT_GT(first.sim_total_s, 0.0);

  const PipelineResult second =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(second.labels, first.labels);
  EXPECT_EQ(second.recovery.checkpoint_hits, kStages);
  EXPECT_EQ(second.recovery.checkpoint_misses, 0u);
  // Hit stages never ran a job, so no simulated time accrues.
  EXPECT_EQ(second.sim_total_s, 0.0);
}

TEST(Invalidation, ParamChangeRecomputesEverything) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("params");
  (void)run_pipeline(reads, hier_params(), checkpointed(dir));

  PipelineParams changed = hier_params();
  changed.theta = 0.6;
  const PipelineResult rerun =
      run_pipeline(reads, changed, checkpointed(dir));
  EXPECT_EQ(rerun.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, kStages);
  // The changed-params run matches its own uncheckpointed twin.
  ExecutionOptions plain = checkpointed(dir);
  plain.checkpoint_dir.clear();
  const PipelineResult uncheckpointed = run_pipeline(reads, changed, plain);
  EXPECT_EQ(rerun.labels, uncheckpointed.labels);
}

TEST(Invalidation, InputChangeRecomputesEverything) {
  const std::string dir = fresh_dir("input");
  (void)run_pipeline(sample_reads(5), hier_params(), checkpointed(dir));

  const auto other_reads = sample_reads(6);
  const PipelineResult rerun =
      run_pipeline(other_reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, kStages);
}

TEST(Invalidation, TruncatedCheckpointRecomputesThatStageOnly) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("truncate");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // Tear the "sketch" (sequence 0) file as a crashed write would.
  const std::filesystem::path victim = checkpoint_of(dir, 0);
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim,
                               std::filesystem::file_size(victim) / 2);

  // The deterministic recompute reproduces the identical payload, so the
  // chain stays intact and every downstream stage still hits.
  const PipelineResult rerun =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels);
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_hits, kStages - 1);

  // The recompute rewrote the file: a third run hits everywhere again.
  const PipelineResult third =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(third.recovery.checkpoint_hits, kStages);
}

TEST(Invalidation, CorruptedCheckpointRecomputesThatStageOnly) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("corrupt");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // Flip one payload byte of the "similarity" (sequence 1) checkpoint:
  // right size, wrong checksum.
  const std::filesystem::path victim = checkpoint_of(dir, 1);
  ASSERT_FALSE(victim.empty());
  {
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-1, std::ios::end);
    file.put('\x5a');
  }

  const PipelineResult rerun =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels);
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_hits, kStages - 1);
}

/// The layout of a sketch stage's table of values for `reads` under
/// `params`: u64 rows, then per row its u64 length and values.  `edit` may
/// reshape row i first.
template <typename Edit>
std::string sketch_payload(const std::vector<bio::FastaRecord>& reads,
                           Edit&& edit, const PipelineParams& params = hier_params()) {
  const MinHasher hasher(params.minhash);
  mr::recovery::PayloadWriter writer;
  writer.u64(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    Sketch sketch = hasher.sketch(reads[i].seq);
    edit(i, sketch);
    writer.u64(sketch.size());
    for (const std::uint64_t value : sketch) writer.u64(value);
  }
  return writer.take();
}

TEST(Invalidation, SketchPayloadIsRowsThenLengthAndValuesPerRow) {
  // k = 7 is never tabulated: its table holds values.
  PipelineParams params = hier_params();
  params.minhash.kmer = 7;
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("layout");
  (void)run_pipeline(reads, params, checkpointed(dir));

  const std::string blob = read_file(checkpoint_of(dir, 0));
  ASSERT_GE(blob.size(), kHeaderBytes);
  EXPECT_EQ(blob.substr(kHeaderBytes),
            sketch_payload(reads, [](std::size_t, Sketch&) {}, params));
}

TEST(Invalidation, SketchPayloadOfCodesIsTagThenRowsThenLengthAndCodesPerRow) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("codes");
  (void)run_pipeline(reads, hier_params(), checkpointed(dir));

  const MinHasher hasher(hier_params().minhash);
  ASSERT_TRUE(hasher.writes_codes());
  mr::recovery::PayloadWriter writer;
  writer.u64(~std::uint64_t{0});
  writer.u64(reads.size());
  std::vector<std::uint16_t> codes(hasher.sketch_size());
  for (const auto& read : reads) {
    hasher.sketch_into(read.seq, codes);
    writer.u64(codes.size());
    for (const std::uint16_t code : codes) writer.u16(code);
  }
  EXPECT_EQ(read_file(checkpoint_of(dir, 0)).substr(kHeaderBytes), writer.bytes());
}

TEST(Invalidation, OldValueTableSketchCheckpointMissesOnceThenHits) {
  // An older build stored this k = 5 stage's table as values under the
  // same key.  The payload lacks the codes' leading tag, so it is a miss:
  // the stage recomputes the table of codes, rewrites the checkpoint, and
  // the runs after it hit everywhere.
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("old_values");
  const PipelineResult first = run_pipeline(reads, hier_params(), checkpointed(dir));
  const std::filesystem::path victim = checkpoint_of(dir, 0);
  ASSERT_FALSE(victim.empty());
  const std::string payload = read_file(victim).substr(kHeaderBytes);
  reseal_payload(victim, sketch_payload(reads, [](std::size_t, Sketch&) {}));

  const PipelineResult rerun = run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels);
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_hits, kStages - 1);
  EXPECT_EQ(read_file(victim).substr(kHeaderBytes), payload);

  const PipelineResult third = run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(third.labels, first.labels);
  EXPECT_EQ(third.recovery.checkpoint_hits, kStages);
}

TEST(Invalidation, RaggedSketchPayloadIsAMissThenARecompute) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("ragged");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // Row 1 one value short and row 2 one value long: the sizes add up and
  // the checksum is valid, but the table is ragged.
  const std::filesystem::path victim = checkpoint_of(dir, 0);
  ASSERT_FALSE(victim.empty());
  const std::string payload = read_file(victim).substr(kHeaderBytes);
  reseal_payload(victim, sketch_payload(reads, [](std::size_t i, Sketch& sketch) {
                   if (i == 1) sketch.pop_back();
                   if (i == 2) sketch.push_back(7);
                 }));

  const PipelineResult rerun =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels);
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u);
  EXPECT_EQ(rerun.recovery.checkpoint_hits, kStages - 1);
  // The recompute wrote the well-formed table back.
  EXPECT_EQ(read_file(victim).substr(kHeaderBytes), payload);
}

// The LSH greedy pipeline drives 3 stages: sketch, candidates,
// greedy-cluster.
constexpr std::size_t kLshStages = 3;

PipelineParams lsh_params() {
  PipelineParams params = hier_params();
  params.mode = Mode::kGreedy;
  params.candidates.backend = candidates::Backend::kLshBanded;
  return params;
}

// The LSH hierarchical pipeline drives 4: sketch, candidates, verify,
// hierarchical-cluster.
constexpr std::size_t kLshHierStages = 4;

PipelineParams lsh_hier_params() {
  PipelineParams params = hier_params();
  params.candidates.backend = candidates::Backend::kLshBanded;
  return params;
}

/// Run `params`' pipeline, let `edit` rewrite the payload of stage
/// `sequence`, re-seal it, and check the rerun rejects exactly that
/// checkpoint and recomputes it.
template <typename Edit>
void expect_payload_rejected(const std::string& tag, const PipelineParams& params,
                             std::size_t stages, std::size_t sequence,
                             Edit&& edit) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir(tag);
  const PipelineResult first = run_pipeline(reads, params, checkpointed(dir));

  const std::filesystem::path victim = checkpoint_of(dir, sequence);
  ASSERT_FALSE(victim.empty());
  const std::string payload = read_file(victim).substr(kHeaderBytes);
  std::string edited = payload;
  edit(edited);
  reseal_payload(victim, edited);

  const PipelineResult rerun = run_pipeline(reads, params, checkpointed(dir));
  EXPECT_EQ(rerun.labels, first.labels) << tag;
  EXPECT_EQ(rerun.recovery.invalid_checkpoints, 1u) << tag;
  EXPECT_EQ(rerun.recovery.checkpoint_misses, 1u) << tag;
  EXPECT_EQ(rerun.recovery.checkpoint_hits, stages - 1) << tag;
  EXPECT_EQ(read_file(victim).substr(kHeaderBytes), payload) << tag;
}

/// Overwrite the little-endian u64 at byte `offset` of a payload with 2^40.
auto claim_2_pow_40_at(std::size_t offset) {
  return [offset](std::string& payload) {
    mr::recovery::PayloadWriter writer;
    writer.u64(std::uint64_t{1} << 40);
    payload.replace(offset, 8, writer.bytes());
  };
}

TEST(Invalidation, OversizedCountsAreAMissThenARecompute) {
  // A count of 2^40 elements would be a multi-TiB allocation; each decoder
  // must refuse it against the bytes actually left.  Candidates: u64
  // bands, u64 rows, u64 buckets, u64 ids.  Graph: u64 vertices, u64
  // edges.  Labels and the similarity matrix start with their count.
  expect_payload_rejected("count_buckets", lsh_params(), kLshStages, 1,
                          claim_2_pow_40_at(16));
  expect_payload_rejected("count_ids", lsh_params(), kLshStages, 1,
                          claim_2_pow_40_at(24));
  expect_payload_rejected("count_edges", lsh_hier_params(), kLshHierStages, 2,
                          claim_2_pow_40_at(8));
  expect_payload_rejected("count_labels", lsh_params(), kLshStages, 2,
                          claim_2_pow_40_at(0));
  expect_payload_rejected("count_matrix", hier_params(), kStages, 1,
                          claim_2_pow_40_at(0));
}

TEST(Invalidation, UnorderedCandidatePairsAreAMissThenARecompute) {
  // The candidates payload is the bucket CSR whose mates are the candidate
  // pairs: u64 bands, u64 rows, u64 buckets, u64 ids, then each bucket's
  // u32 end offset and every u32 id; this input yields at least one
  // bucket.  Swap the last two ids: the last bucket no longer ascends, so
  // its pair would come out as (b, a).
  expect_payload_rejected("bucket_order", lsh_params(), kLshStages, 1,
                          [](std::string& payload) {
                            ASSERT_GE(payload.size(), 32u + 12u);
                            std::swap_ranges(payload.end() - 8,
                                             payload.end() - 4,
                                             payload.end() - 4);
                          });
  // End the first bucket after one id: a bucket without a pair.
  expect_payload_rejected("bucket_single", lsh_params(), kLshStages, 1,
                          [](std::string& payload) {
                            mr::recovery::PayloadWriter one;
                            one.u32(1);
                            payload.replace(32, 4, one.bytes());
                          });
}

TEST(Invalidation, PairListCandidatesCheckpointIsAMissThenARecompute) {
  // Earlier builds stored the candidates stage under the same key as a pair
  // list: u64 bands, u64 rows, u64 count, then u32 a, u32 b per pair.
  // Such a file must never be served as buckets.
  for (const auto& [params, stages] :
       {std::pair{lsh_params(), kLshStages},
        std::pair{lsh_hier_params(), kLshHierStages}}) {
    expect_payload_rejected(
        "pair_list", params, stages, 1, [](std::string& payload) {
          mr::recovery::PayloadReader reader(payload);
          const std::uint64_t bands = reader.u64();
          const std::uint64_t rows = reader.u64();
          candidates::BucketCsr buckets;
          buckets.offsets.resize(reader.u64() + 1);
          buckets.ids.resize(reader.u64());
          for (std::size_t g = 1; g < buckets.offsets.size(); ++g) {
            buckets.offsets[g] = reader.u32();
          }
          for (std::uint32_t& id : buckets.ids) id = reader.u32();
          const auto pairs = candidates::pairs_from_buckets(
              buckets, sample_reads().size());
          ASSERT_FALSE(pairs.empty());
          mr::recovery::PayloadWriter writer;
          writer.u64(bands);
          writer.u64(rows);
          writer.u64(pairs.size());
          for (const auto& [a, b] : pairs) {
            writer.u32(a);
            writer.u32(b);
          }
          payload = writer.take();
        });
  }
}

TEST(Invalidation, UnorderedOrOutOfRangeGraphEdgesAreAMissThenARecompute) {
  // The verify payload is u64 vertices, u64 count, then u32 a, u32 b,
  // f64 similarity per edge; this input yields at least two edges.
  // Swap the last edge's ids: b < a, though the list still ascends.
  expect_payload_rejected("edges_order", lsh_hier_params(), kLshHierStages, 2,
                          [](std::string& payload) {
                            ASSERT_GE(payload.size(), 16u + 32u);
                            std::swap_ranges(payload.end() - 16,
                                             payload.end() - 12,
                                             payload.end() - 12);
                          });
  // Swap the first two edges: the list no longer ascends.
  expect_payload_rejected("edges_sorted", lsh_hier_params(), kLshHierStages, 2,
                          [](std::string& payload) {
                            std::swap_ranges(payload.begin() + 16,
                                             payload.begin() + 32,
                                             payload.begin() + 32);
                          });
  // Point the last edge past the last vertex.
  expect_payload_rejected("edges_range", lsh_hier_params(), kLshHierStages, 2,
                          [](std::string& payload) {
                            payload.replace(payload.size() - 12, 4,
                                            std::string(4, '\xff'));
                          });
}

TEST(Invalidation, StaleDirectoryFromOtherRunsIsHarmless) {
  const auto reads = sample_reads();
  const std::string dir = fresh_dir("stale");
  const PipelineResult first =
      run_pipeline(reads, hier_params(), checkpointed(dir));

  // A different configuration reuses the same directory: its keys differ,
  // so it recomputes everything and files from both runs coexist.
  PipelineParams other = hier_params();
  other.minhash.num_hashes = 48;
  const PipelineResult second =
      run_pipeline(reads, other, checkpointed(dir));
  EXPECT_EQ(second.recovery.checkpoint_hits, 0u);
  EXPECT_EQ(second.recovery.checkpoint_writes, kStages);

  // Both configurations now resume fully from the shared directory.
  const PipelineResult first_again =
      run_pipeline(reads, hier_params(), checkpointed(dir));
  EXPECT_EQ(first_again.labels, first.labels);
  EXPECT_EQ(first_again.recovery.checkpoint_hits, kStages);
  const PipelineResult second_again =
      run_pipeline(reads, other, checkpointed(dir));
  EXPECT_EQ(second_again.labels, second.labels);
  EXPECT_EQ(second_again.recovery.checkpoint_hits, kStages);
}

}  // namespace
}  // namespace mrmc::core
