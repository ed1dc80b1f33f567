#include "mr/recovery.hpp"

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

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

}  // namespace

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
  return base;
}

StageDriver::StageDriver(Options options) : options_(std::move(options)) {
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

void StageDriver::finish_stage(const std::string& stage, std::size_t sequence,
                               std::uint64_t key, const char* outcome,
                               std::uint64_t payload_checksum) {
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
                    {"key", key_hex(key)}});
  }
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

}  // namespace mrmc::mr::recovery
