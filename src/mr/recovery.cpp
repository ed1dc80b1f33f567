#include "mr/recovery.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/fsio.hpp"
#include "mr/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

namespace mrmc::mr::recovery {

namespace {

constexpr char kMagic[4] = {'M', 'R', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;
// magic + version + key + payload size + payload checksum.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;

std::string exhausted_message(const std::string& stage,
                              const std::vector<AttemptRecord>& history) {
  std::ostringstream out;
  out << "stage '" << stage << "' failed after " << history.size()
      << " attempt(s)";
  if (!history.empty()) {
    out << "; last " << history.back().outcome << ": " << history.back().error;
  }
  return out.str();
}

double elapsed_s(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// ----------------------------------------------------------- retry policy

RetryExhausted::RetryExhausted(std::string stage,
                               std::vector<AttemptRecord> history)
    : common::Error(exhausted_message(stage, history)),
      stage_(std::move(stage)),
      history_(std::move(history)) {}

void validate(const RetryPolicy& policy) {
  MRMC_REQUIRE(policy.max_job_attempts >= 1, "max_job_attempts must be >= 1");
  MRMC_REQUIRE(policy.job_timeout_s >= 0.0, "job_timeout_s must be >= 0");
  MRMC_REQUIRE(policy.backoff_base_s > 0.0, "backoff_base_s must be > 0");
  MRMC_REQUIRE(policy.backoff_cap_s >= policy.backoff_base_s,
               "backoff_cap_s must be >= backoff_base_s");
}

double backoff_delay_s(const RetryPolicy& policy, int attempt) {
  MRMC_REQUIRE(attempt >= 1, "attempt must be >= 1");
  double raw = policy.backoff_base_s * std::ldexp(1.0, attempt - 1);
  if (!(raw < policy.backoff_cap_s)) raw = policy.backoff_cap_s;
  StableHasher hasher;
  stable_hash_append(hasher, policy.seed);
  stable_hash_append(hasher, attempt);
  // 53 high-quality bits -> [0, 1), then mapped onto [0.5, 1.0).
  const double unit =
      static_cast<double>(hasher.finish() >> 11) * 0x1.0p-53;
  return raw * (0.5 + 0.5 * unit);
}

// ------------------------------------------------------- payload encoding

void PayloadWriter::put(std::uint64_t value, std::size_t bytes) {
  char out[8];
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xffU);
  }
  buffer_.append(out, bytes);
}

void PayloadWriter::f64(double value) {
  u64(std::bit_cast<std::uint64_t>(value));
}

void PayloadWriter::f32(float value) {
  u32(std::bit_cast<std::uint32_t>(value));
}

void PayloadWriter::str(std::string_view value) {
  u64(value.size());
  buffer_.append(value.data(), value.size());
}

void PayloadReader::need(std::size_t count) {
  if (bytes_.size() - pos_ < count) {
    throw common::Error("checkpoint payload truncated");
  }
}

std::uint64_t PayloadReader::take(std::size_t bytes) {
  need(bytes);
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
  }
  pos_ += bytes;
  return value;
}

double PayloadReader::f64() { return std::bit_cast<double>(u64()); }

float PayloadReader::f32() { return std::bit_cast<float>(u32()); }

std::string PayloadReader::str() {
  const std::uint64_t size = u64();
  need(size);
  std::string value(bytes_.substr(pos_, size));
  pos_ += size;
  return value;
}

// ------------------------------------------------------- checkpoint store

std::uint64_t fnv_checksum(std::string_view bytes) noexcept {
  StableHasher hasher;
  hasher.write(bytes.data(), bytes.size());
  return hasher.finish();
}

std::string key_hex(std::uint64_t key) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[key & 0xfU];
    key >>= 4;
  }
  return out;
}

std::string checkpoint_file_name(const std::string& label,
                                 const std::string& stage,
                                 std::size_t sequence, std::uint64_t key) {
  std::string name = label + "." + std::to_string(sequence) + "-" + stage +
                     "." + key_hex(key) + ".ckpt";
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return name;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw common::IoError("recovery: cannot create checkpoint dir '" + dir_ +
                          "': " + ec.message());
  }
}

std::optional<std::string> CheckpointStore::load(const std::string& file_name,
                                                 std::uint64_t key) {
  const std::string path = dir_ + "/" + file_name;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;  // never written: plain miss
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string blob = buffer.str();
  const auto invalid = [&]() -> std::optional<std::string> {
    ++invalid_;
    return std::nullopt;
  };
  if (blob.size() < kHeaderBytes) return invalid();
  if (blob.compare(0, 4, kMagic, 4) != 0) return invalid();
  PayloadReader header(std::string_view(blob).substr(4, kHeaderBytes - 4));
  if (header.u32() != kVersion) return invalid();
  if (header.u64() != key) return invalid();
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (blob.size() - kHeaderBytes != payload_size) return invalid();
  std::string payload = blob.substr(kHeaderBytes);
  if (fnv_checksum(payload) != checksum) return invalid();
  return payload;
}

bool CheckpointStore::store(const std::string& file_name, std::uint64_t key,
                            std::string_view payload) {
  PayloadWriter header;
  header.u32(kVersion);
  header.u64(key);
  header.u64(payload.size());
  header.u64(fnv_checksum(payload));
  std::string blob;
  blob.reserve(kHeaderBytes + payload.size());
  blob.append(kMagic, 4);
  blob.append(header.bytes());
  blob.append(payload.data(), payload.size());
  return common::write_file_atomic(dir_ + "/" + file_name, blob);
}

// ---------------------------------------------------------- stage driver

StageDriver::Options StageDriver::Options::from_env(Options base) {
  if (base.checkpoint_dir.empty()) {
    if (const char* dir = std::getenv("MRMC_CHECKPOINT_DIR");
        dir != nullptr && *dir != '\0') {
      base.checkpoint_dir = dir;
    }
  }
  if (const char* crash = std::getenv("MRMC_CRASH_AFTER_STAGE");
      crash != nullptr && *crash != '\0') {
    base.crash_after = crash;
  }
  if (const char* fail = std::getenv("MRMC_FAIL_STAGE");
      fail != nullptr && *fail != '\0') {
    const std::string spec = fail;
    const std::size_t colon = spec.rfind(':');
    base.fail_stage = spec.substr(0, colon == std::string::npos ? spec.size()
                                                                : colon);
    base.fail_count = 1;
    if (colon != std::string::npos) {
      base.fail_count = std::atoi(spec.c_str() + colon + 1);
    }
  }
  return base;
}

StageDriver::StageDriver(Options options) : options_(std::move(options)) {
  validate(options_.retry);
  if (!options_.checkpoint_dir.empty()) {
    store_ = std::make_unique<CheckpointStore>(options_.checkpoint_dir);
  }
  StableHasher hasher;
  stable_hash_append(hasher, options_.params_fingerprint);
  stable_hash_append(hasher, options_.input_fingerprint);
  chain_ = hasher.finish();
}

std::uint64_t StageDriver::stage_key(const std::string& stage,
                                     std::size_t sequence) const {
  StableHasher hasher;
  stable_hash_append(hasher, chain_);
  stable_hash_append(hasher, stage);
  stable_hash_append(hasher, static_cast<std::uint64_t>(sequence));
  return hasher.finish();
}

int StageDriver::run_attempts(const std::string& stage,
                              const std::function<void()>& invoke,
                              const std::function<void()>& discard) {
  const RetryPolicy& policy = options_.retry;
  std::vector<AttemptRecord> history;
  for (int attempt = 1;; ++attempt) {
    std::string outcome;
    std::string error;
    const auto start = std::chrono::steady_clock::now();
    bool ok = false;
    try {
      maybe_inject_failure(stage);
      invoke();
      ok = true;
    } catch (const InjectedDriverCrash&) {
      throw;  // the kill hook is a crash, not a stage failure
    } catch (const DriverParked&) {
      throw;
    } catch (const std::exception& e) {
      outcome = "failed";
      error = e.what();
    }
    const double wall_s = elapsed_s(start);
    if (ok && policy.job_timeout_s > 0.0 && wall_s > policy.job_timeout_s) {
      // The compute returned, but past its deadline: the driver treats it
      // exactly as a job tracker would a job it already declared dead.
      ok = false;
      outcome = "timeout";
      error = "attempt exceeded job_timeout_s=" +
              std::to_string(policy.job_timeout_s);
      discard();
    }
    if (ok) return attempt;
    const bool last = attempt >= policy.max_job_attempts;
    const double backoff_s = last ? 0.0 : backoff_delay_s(policy, attempt);
    history.push_back({attempt, outcome, error, wall_s, backoff_s});
    if (last) throw RetryExhausted(stage, std::move(history));
    ++stats_.retries;
    obs::Registry::global().counter("recovery.retries").add();
    if (backoff_s > 0.0) sleep_for(backoff_s);
  }
}

void StageDriver::finish_stage(const std::string& stage, std::size_t sequence,
                               std::uint64_t key, const char* outcome,
                               int attempts, std::uint64_t payload_checksum) {
  // Absorb the payload into the fingerprint chain: downstream stage keys
  // depend on every upstream result, so any upstream change invalidates
  // everything after it — while a deterministic recompute (which reproduces
  // the identical payload) leaves downstream checkpoints valid.
  StableHasher hasher;
  stable_hash_append(hasher, chain_);
  stable_hash_append(hasher, payload_checksum);
  chain_ = hasher.finish();

  ++stats_.stages;
  auto& registry = obs::Registry::global();
  const bool hit = std::string_view(outcome) == "hit";
  if (hit) {
    ++stats_.checkpoint_hits;
    registry.counter("recovery.checkpoint_hits").add();
    // Consume the lineage slot the skipped job would have claimed, so
    // downstream jobs keep the sequence numbers of an uninterrupted run.
    obs::pipeline::StageScope scope(stage);
    (void)obs::pipeline::claim();
  } else {
    ++stats_.checkpoint_misses;
    registry.counter("recovery.checkpoint_misses").add();
    if (std::string_view(outcome) == "miss+write") {
      ++stats_.checkpoint_writes;
      registry.counter("recovery.checkpoint_writes").add();
    }
  }
  if (store_) {
    const std::size_t invalid = store_->invalid_checkpoints() + undecodable_;
    if (invalid > stats_.invalid_checkpoints) {
      registry.counter("recovery.invalid_checkpoints")
          .add(static_cast<long>(invalid - stats_.invalid_checkpoints));
      stats_.invalid_checkpoints = invalid;
    }
  }

  const std::string pipeline = obs::pipeline::current_id();
  auto& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.instant("stage_checkpoint",
                   {{"pipeline", pipeline},
                    {"stage", stage},
                    {"sequence", std::to_string(sequence)},
                    {"outcome", outcome},
                    {"key", key_hex(key)},
                    {"attempts", std::to_string(attempts)}});
  }
}

void StageDriver::note_undecodable(const std::string& file_name) {
  // Checksum-valid but undecodable (payload/decoder mismatch): count it
  // with the store's invalid files and fall through to recompute.
  (void)file_name;
  ++undecodable_;
}

void StageDriver::park(const std::string& reason) {
  stats_.parked = true;
  obs::Registry::global().counter("recovery.parked").add();
  throw DriverParked("driver parked for resume: " + reason);
}

void StageDriver::maybe_crash(const std::string& stage) {
  if (options_.crash_after.empty() || options_.crash_after != stage) return;
  obs::Registry::global().counter("recovery.injected_crashes").add();
  throw InjectedDriverCrash("injected driver crash after stage '" + stage +
                            "'");
}

void StageDriver::maybe_inject_failure(const std::string& stage) {
  if (options_.fail_count <= 0 || options_.fail_stage != stage) return;
  --options_.fail_count;
  throw common::Error("injected stage failure for '" + stage + "'");
}

void StageDriver::sleep_for(double seconds) const {
  if (options_.retry.sleeper) {
    options_.retry.sleeper(seconds);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace mrmc::mr::recovery
