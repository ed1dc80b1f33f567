#include "bio/kmer.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.hpp"

namespace mrmc::bio {

std::uint64_t revcomp_kmer(std::uint64_t kmer, int k) noexcept {
  std::uint64_t out = 0;
  for (int i = 0; i < k; ++i) {
    out = (out << 2) | (3 - (kmer & 3));
    kmer >>= 2;
  }
  return out;
}

namespace {

void require_k(int k) {
  MRMC_REQUIRE(k >= 1 && k <= kMaxKmerK, "k must be in [1, 31]");
}

/// Visits the k-mer of every window, canonicalized when asked.
template <typename Emit>
void for_each_feature(std::string_view seq, const KmerParams& params,
                      Emit&& emit) {
  if (params.canonical) {
    for_each_kmer(seq, params.k, [&](std::uint64_t forward, std::uint64_t reverse) {
      emit(std::min(forward, reverse));
    });
  } else {
    for_each_kmer(seq, params.k,
                  [&](std::uint64_t forward, std::uint64_t) { emit(forward); });
  }
}

/// Direct-mapped exact-tag filter: 4096 slots, each holding the last k-mer
/// that mapped to it.  Slot = top 12 bits of x·φ (Fibonacci hashing), so
/// neighbouring packed k-mers spread over the table.  Every slot is empty
/// between reads.
class KmerTagFilter {
 public:
  KmerTagFilter() { slots_.fill(kEmpty); }

  [[nodiscard]] std::uint64_t& slot(std::uint64_t kmer) noexcept {
    return slots_[(kmer * 0x9E3779B97F4A7C15ULL) >> (64 - kSlotBits)];
  }

  /// Empties the slots of `admitted`.  Every value a read stored was
  /// admitted (a slot is only ever overwritten with a k-mer the filter let
  /// through or with the value it already held), so this resets exactly
  /// the slots the read touched.
  void clear(std::span<const std::uint64_t> admitted) noexcept {
    for (const std::uint64_t kmer : admitted) slot(kmer) = kEmpty;
  }

 private:
  static constexpr int kSlotBits = 12;
  /// Packed k-mers are < 4^31, so no k-mer equals this.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::array<std::uint64_t, std::size_t{1} << kSlotBits> slots_;
};

}  // namespace

std::vector<std::uint64_t> extract_kmers(std::string_view seq,
                                         const KmerParams& params) {
  require_k(params.k);
  std::vector<std::uint64_t> out;
  if (seq.size() >= static_cast<std::size_t>(params.k)) {
    out.reserve(seq.size() - static_cast<std::size_t>(params.k) + 1);
  }
  for_each_feature(seq, params, [&](std::uint64_t kmer) { out.push_back(kmer); });
  return out;
}

std::vector<std::uint64_t> kmer_set(std::string_view seq, const KmerParams& params) {
  std::vector<std::uint64_t> kmers = extract_kmers(seq, params);
  std::sort(kmers.begin(), kmers.end());
  kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());
  return kmers;
}

void kmer_stream_into(std::string_view seq, const KmerParams& params,
                      std::vector<std::uint64_t>& out) {
  require_k(params.k);
  thread_local KmerTagFilter filter;
  const auto k = static_cast<std::size_t>(params.k);
  // Room for every window; each one is written at the cursor, which only
  // advances past a k-mer that is not already its slot's value.
  out.resize(seq.size() >= k ? seq.size() - k + 1 : 0);
  std::uint64_t* const first = out.data();
  std::size_t kept = 0;
  for_each_feature(seq, params, [&](std::uint64_t kmer) {
    std::uint64_t& slot = filter.slot(kmer);
    first[kept] = kmer;
    kept += slot != kmer;
    slot = kmer;
  });
  out.resize(kept);
  filter.clear(out);
}

std::size_t intersection_size(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) noexcept {
  // Branch-free merge step: both cursors advance on a match.  The data-
  // dependent three-way branch mispredicts on about half the steps of two
  // random sorted sets.
  std::size_t inter = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t x = a[i];
    const std::uint64_t y = b[j];
    inter += x == y;
    i += x <= y;
    j += y <= x;
  }
  return inter;
}

double exact_jaccard(std::span<const std::uint64_t> a,
                     std::span<const std::uint64_t> b) noexcept {
  const std::size_t inter = intersection_size(a, b);
  const std::size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

std::string decode_kmer(std::uint64_t kmer, int k) {
  require_k(k);
  std::string out(static_cast<std::size_t>(k), 'A');
  for (int i = k - 1; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = decode_base(static_cast<int>(kmer & 3));
    kmer >>= 2;
  }
  return out;
}

}  // namespace mrmc::bio
