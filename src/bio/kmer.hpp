// k-mer extraction: each sequence is decomposed into its set of contiguous
// length-k subwords, packed 2 bits/base into a uint64 (k <= 31).  This is
// the paper's `TranslateToKmer` UDF and the feature-set construction
// I_s of Section III-A.
//
// Every function here walks the sequence with the one rolling encoder,
// for_each_kmer.  Two views of a read's k-mers come out of it:
//  * kmer_set — the sorted unique set I_s, the exact-Jaccard oracle's input;
//  * kmer_stream_into — what the sketcher hashes for k >= 7: the same set as
//    a multiset with some repeats left in, produced without sorting.  A
//    minimum over a multiset equals the minimum over its set, so a sketch of
//    the stream is byte-identical to a sketch of kmer_set.  (For k <= 6 the
//    sketcher marks for_each_kmer's words in a bitmap instead.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bio/dna.hpp"

namespace mrmc::bio {

inline constexpr int kMaxKmerK = 31;

/// Feature-space size m = 4^k used as the outer modulus of the paper's
/// universal hash (Equation 5).
constexpr std::uint64_t kmer_space_size(int k) noexcept {
  return std::uint64_t{1} << (2 * k);
}

struct KmerParams {
  int k = 5;              ///< word length (paper: 5 for shotgun, 15 for 16S)
  bool canonical = false; ///< if true, emit min(kmer, revcomp(kmer))
};

/// The rolling encoder: calls visit(forward, reverse_complement) for every
/// window of k consecutive ACGT bases of `seq`, in order.  A non-ACGT
/// character restarts the window after it.  Both words roll in O(1) per
/// base; the reverse complement takes the new base's complement at the top:
///   rc = (rc >> 2) | ((3 - code) << 2(k-1)).
/// `k` must be in [1, 31]; the public functions below check it.
template <typename Visit>
void for_each_kmer(std::string_view seq, int k, Visit&& visit) {
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  const int top = 2 * (k - 1);
  const auto width = static_cast<std::size_t>(k);
  std::uint64_t forward = 0;
  std::uint64_t reverse = 0;
  std::size_t filled = 0;  // valid bases currently in the window
  for (const char c : seq) {
    const int code = encode_base(c);
    if (code < 0) {
      filled = 0;  // stale bits shift out before the next full window
      continue;
    }
    forward = ((forward << 2) | static_cast<std::uint64_t>(code)) & mask;
    reverse = (reverse >> 2) | (static_cast<std::uint64_t>(3 - code) << top);
    if (++filled >= width) visit(forward, reverse);
  }
}

/// All k-mers of `seq` in order of occurrence, duplicates included.
/// Throws InvalidArgument for k out of [1, 31].
std::vector<std::uint64_t> extract_kmers(std::string_view seq, const KmerParams& params);

/// Sorted, deduplicated k-mer set — the feature set I_s of Equation 1, kept
/// for the exact-Jaccard oracle.
std::vector<std::uint64_t> kmer_set(std::string_view seq, const KmerParams& params);

/// The sketcher's feature stream, written into `out` (resized, capacity
/// reused).  Contract: every distinct k-mer of `seq` appears at least once,
/// nothing that is not a k-mer of `seq` appears, and the order is
/// unspecified — sort+unique of `out` equals kmer_set(seq, params).
/// Repeats are dropped by a per-thread direct-mapped filter of 4096 slots
/// that skips a k-mer only when its own value already sits in its slot; two
/// k-mers sharing a slot just let a repeat through.  Throws InvalidArgument
/// for k out of [1, 31].
void kmer_stream_into(std::string_view seq, const KmerParams& params,
                      std::vector<std::uint64_t>& out);

/// |A ∩ B| of two *sorted unique* sets.
std::size_t intersection_size(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) noexcept;

/// Exact Jaccard similarity |A ∩ B| / |A ∪ B| of two *sorted unique* sets.
/// Returns 1.0 when both sets are empty (two empty reads are identical).
double exact_jaccard(std::span<const std::uint64_t> a,
                     std::span<const std::uint64_t> b) noexcept;

/// Decode a packed k-mer back to its string (for debugging / tests).
std::string decode_kmer(std::uint64_t kmer, int k);

/// Reverse complement of a packed k-mer, O(k) — the reference the rolling
/// encoder's reverse word is tested against.
std::uint64_t revcomp_kmer(std::uint64_t kmer, int k) noexcept;

}  // namespace mrmc::bio
