// mr::recovery — durable stage checkpoints and a restartable stage driver.
//
// PR 4 made *task*-level failure survivable (kill-and-requeue, lost-output
// re-execution); this layer does the same for the *driver*.  A pipeline
// driver (core::run_pipeline, pig::run_script, or a future iterative
// connected-components driver) wraps each stage in
// StageDriver::run_stage(stage, compute, encode, decode):
//
//   * Checkpointing.  With a checkpoint directory configured
//     (ExecutionOptions::checkpoint_dir or MRMC_CHECKPOINT_DIR), each
//     completed stage's result is serialized and committed via
//     write-temp-then-atomic-rename, keyed by an FNV-1a fingerprint chained
//     over (pipeline params fingerprint, input fingerprint, every upstream
//     payload checksum, stage name, stage sequence).  A resumed driver
//     re-derives the same chain, finds the completed stages' files, and
//     serves them as hits — skipping the MapReduce jobs entirely — while any
//     param change, input change, or truncated/corrupt/stale file breaks the
//     key or the checksum and falls back to recompute.  Because every stage
//     is deterministic, recompute regenerates byte-identical payloads, so
//     downstream checkpoints remain valid after an upstream invalidation.
//
//   * One attempt.  Each stage's compute runs exactly once.  Task-level
//     failures are retried inside the job (JobConfig::max_task_attempts,
//     lost-output re-execution under a FaultPlan), and every stage is
//     deterministic, so a second driver-level attempt could only repeat the
//     first.  A stage's exception reaches the caller with its own type.
//
//   * Parking.  park() aborts a driver whose cluster degraded below one
//     schedulable node with DriverParked — the checkpoint directory holds
//     every completed stage, so a later run resumes where it parked.
//
// Everything is observable: checkpoint hits/misses/writes land on the trace
// as "stage_checkpoint" instants and bump recovery.* metrics; the pipeline
// doctor renders them in a "recovery" section from the trace's events
// (MRMC_PIPELINE renders the tracer's in-memory events the same way).
//
// Deterministic test hook: MRMC_CRASH_AFTER_STAGE=<stage> throws
// InjectedDriverCrash after <stage>'s checkpoint commits (the chaos tests'
// kill point).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace mrmc::mr::recovery {

// ------------------------------------------------------------ driver errors

/// Thrown by the MRMC_CRASH_AFTER_STAGE kill hook, after the named stage's
/// checkpoint was committed.
class InjectedDriverCrash : public common::Error {
 public:
  using Error::Error;
};

/// Thrown by StageDriver::park(): the cluster degraded below one
/// schedulable node and the driver chose to stop where its checkpoints can
/// resume it rather than fail the whole run.
class DriverParked : public common::Error {
 public:
  using Error::Error;
};

// ------------------------------------------------------- payload encoding

/// Byte-order-independent little-endian encoder for checkpoint payloads.
class PayloadWriter {
 public:
  /// The low `bytes` bytes of `value`, least significant first.
  void put(std::uint64_t value, std::size_t bytes);
  void u16(std::uint16_t value) { put(value, 2); }
  void u32(std::uint32_t value) { put(value, 4); }
  void u64(std::uint64_t value) { put(value, 8); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value);
  void f32(float value);
  void str(std::string_view value);

  [[nodiscard]] const std::string& bytes() const noexcept { return buffer_; }
  [[nodiscard]] std::string take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked decoder; any overrun throws common::Error, which the
/// driver treats as a corrupt checkpoint (miss + recompute), never a crash.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  [[nodiscard]] std::uint64_t u64() { return take(8); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] float f32();
  [[nodiscard]] std::string str();

  /// True when every payload byte has been consumed — the driver requires
  /// this after decode, so a payload/decoder mismatch reads as corruption.
  [[nodiscard]] bool done() const noexcept { return pos_ == bytes_.size(); }
  /// Bytes not yet consumed; lets a decoder bound a size field before it
  /// allocates.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  void need(std::size_t count);
  /// The next `bytes` bytes as a little-endian integer.
  [[nodiscard]] std::uint64_t take(std::size_t bytes);

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------- checkpoint store

/// FNV-1a over a byte string; the checkpoint-payload checksum.
[[nodiscard]] std::uint64_t fnv_checksum(std::string_view bytes) noexcept;

/// 16-hex-digit rendering of a checkpoint key.
[[nodiscard]] std::string key_hex(std::uint64_t key);

/// The on-disk name of one stage checkpoint:
/// "<label>.<sequence>-<stage>.<key_hex>.ckpt" ('/' sanitized to '_').
[[nodiscard]] std::string checkpoint_file_name(const std::string& label,
                                               const std::string& stage,
                                               std::size_t sequence,
                                               std::uint64_t key);

/// Content-addressed stage checkpoint files in one directory.  File format:
/// "MRCK" magic + u32 version + u64 key + u64 payload size + u64 FNV-1a
/// payload checksum + payload, all little-endian.  load() validates every
/// field and treats ANY mismatch — wrong magic/version/key, truncation,
/// checksum failure — as a miss (counted in invalid_checkpoints()), so a
/// stale or torn file can only ever cost a recompute.
class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if needed; throws common::IoError when the
  /// directory cannot be created.
  explicit CheckpointStore(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// The validated payload of `file_name` when present and intact.
  [[nodiscard]] std::optional<std::string> load(const std::string& file_name,
                                                std::uint64_t key);

  /// Commit `payload` under `file_name` (temp + atomic rename).  False on
  /// I/O failure — the driver then proceeds uncheckpointed ("miss").
  [[nodiscard]] bool store(const std::string& file_name, std::uint64_t key,
                           std::string_view payload);

  /// Files that existed but failed validation (truncated/corrupt/stale).
  [[nodiscard]] std::size_t invalid_checkpoints() const noexcept {
    return invalid_;
  }

 private:
  std::string dir_;
  std::size_t invalid_ = 0;
};

// ---------------------------------------------------------- stage driver

/// What one driver run did, surfaced on core::PipelineResult::recovery.
struct RecoveryStats {
  std::size_t stages = 0;             ///< stages driven (hit or computed)
  std::size_t checkpoint_hits = 0;    ///< stages served from checkpoint
  std::size_t checkpoint_misses = 0;  ///< stages computed
  std::size_t checkpoint_writes = 0;  ///< checkpoints committed
  std::size_t invalid_checkpoints = 0;///< files rejected by validation
  bool parked = false;                ///< driver parked for resume
};

class StageDriver {
 public:
  struct Options {
    std::string label = "pipeline";      ///< checkpoint file-name prefix
    std::uint64_t params_fingerprint = 0;
    std::uint64_t input_fingerprint = 0;
    std::string checkpoint_dir;          ///< "" = checkpointing disabled
    std::string crash_after;             ///< MRMC_CRASH_AFTER_STAGE hook

    /// Fill unset hooks from the environment: MRMC_CHECKPOINT_DIR (only
    /// when checkpoint_dir is empty) and MRMC_CRASH_AFTER_STAGE.
    [[nodiscard]] static Options from_env(Options base);
  };

  explicit StageDriver(Options options);

  [[nodiscard]] bool checkpointing() const noexcept { return store_ != nullptr; }
  [[nodiscard]] const RecoveryStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Drive one stage: serve it from checkpoint, or call `compute` once and
  /// commit the result.  An exception from `compute` propagates unchanged.
  /// `compute` returns the stage value; `encode(PayloadWriter&, const T&)`
  /// and `decode(PayloadReader&) -> T` define its checkpoint payload.  A
  /// name may repeat within one run (a pig script runs "group-all" once
  /// per GROUP ALL): the stage sequence number is part of the key and the
  /// file name, so the repeats never share a checkpoint.  The hook matches
  /// by name alone: MRMC_CRASH_AFTER_STAGE fires after the first
  /// occurrence that computes (a hit never fires it), so a resume under
  /// the same hook dies at the next computed occurrence.  On a checkpoint
  /// hit the driver claims the stage's lineage slot (the slot its skipped
  /// MapReduce job would have claimed), so downstream stages keep the
  /// sequence numbers of an uninterrupted run.
  template <typename Compute, typename Encode, typename Decode>
  auto run_stage(const std::string& stage, Compute&& compute, Encode&& encode,
                 Decode&& decode)
      -> std::decay_t<decltype(compute())> {
    using T = std::decay_t<decltype(compute())>;
    const std::size_t sequence = sequence_++;
    if (!store_) {
      T value = compute();
      ++stats_.stages;
      maybe_crash(stage);
      return value;
    }
    const std::uint64_t key = stage_key(stage, sequence);
    const std::string file_name =
        checkpoint_file_name(options_.label, stage, sequence, key);
    if (std::optional<std::string> payload = store_->load(file_name, key)) {
      std::optional<T> value;
      try {
        PayloadReader reader(*payload);
        value.emplace(decode(reader));
        if (!reader.done()) value.reset();
      } catch (const std::exception&) {
        // Includes bad_alloc from a wild size field: a checkpoint that
        // cannot be decoded is a corrupt checkpoint, never a crash.
        value.reset();
      }
      if (value) {
        finish_stage(stage, sequence, key, "hit", fnv_checksum(*payload));
        return std::move(*value);
      }
      // Checksum-valid but undecodable (payload/decoder mismatch): count
      // it with the store's invalid files and recompute.
      ++undecodable_;
    }
    T value = compute();
    PayloadWriter writer;
    encode(writer, value);
    const std::string payload = writer.take();
    const std::uint64_t checksum = fnv_checksum(payload);
    const bool wrote = store_->store(file_name, key, payload);
    finish_stage(stage, sequence, key, wrote ? "miss+write" : "miss", checksum);
    maybe_crash(stage);
    return value;
  }

  /// Stop a driver whose cluster can no longer schedule work, leaving the
  /// checkpoint directory positioned for resume.
  [[noreturn]] void park(const std::string& reason);

 private:
  [[nodiscard]] std::uint64_t stage_key(const std::string& stage,
                                        std::size_t sequence) const;
  void finish_stage(const std::string& stage, std::size_t sequence,
                    std::uint64_t key, const char* outcome,
                    std::uint64_t payload_checksum);
  void maybe_crash(const std::string& stage);

  Options options_;
  std::unique_ptr<CheckpointStore> store_;
  std::uint64_t chain_ = 0;      ///< fingerprint chain; see file comment
  std::size_t sequence_ = 0;     ///< next stage sequence
  std::size_t undecodable_ = 0;  ///< checksum-valid but undecodable payloads
  RecoveryStats stats_;
};

}  // namespace mrmc::mr::recovery
