// Ablation — C-MinHash sketch compute, b-bit packed sketches, and the
// binary-columnar shuffle (scheme × b × K on a Table III-style S8 sample).
//
//  * sketch-compute throughput per scheme at several K; C-MinHash's shared
//    premultiply pass should beat the per-component universal family by
//    >= 1.5x at equal K,
//  * estimator quality: RMSE of the (corrected) b-bit match estimate
//    against exact k-mer-set Jaccard, per scheme x b,
//  * end-to-end pipeline rows per scheme x b: shuffle bytes actually
//    shuffled by the sketch / similarity / verify jobs under the
//    BinaryBlock format vs the legacy per-record wire model, LSH candidate
//    recall on the truncated sketches, and label fidelity (ARI) against the
//    same scheme at full width plus the exact-Jaccard baseline.
//
// The legacy wire model reproduces the pre-block accounting exactly
// (mr::approx_bytes over the old emitted shapes): sketches as
// (u32, vector<u64>) per read, similarity rows as (u32, vector<float>),
// verify pairs as (u64 key, double).
//
//   ./ablation_cminhash [--reads=200] [--pairs=1500] [--seed=42]
//                       [--hashes=100] [--repeats=5]
//                       [--bench-json[=path]]  write BENCH_cminhash.json
//                       [--compare-json]       also write the before/after
//                                              pair for `mrmc_doctor compare`
#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "bio/kmer.hpp"
#include "core/hierarchical.hpp"
#include "core/kernels.hpp"
#include "eval/candidate_recall.hpp"
#include "eval/external_indices.hpp"

using namespace mrmc;

namespace {

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Time the minwise-hashing kernel over precomputed feature sets, median
/// of `repeats`.  K-mer extraction is deliberately excluded: it is
/// byte-for-byte identical under both schemes, so including it only
/// dilutes the quantity this ablation isolates (the per-(feature × hash)
/// hashing cost the C-MinHash premultiply amortizes).  The extraction cost
/// is timed once, separately, so the table still shows the end-to-end
/// context.
double sketch_seconds(const core::MinHasher& hasher,
                      const std::vector<std::vector<std::uint64_t>>& features,
                      int repeats) {
  std::vector<std::uint64_t> out(hasher.sketch_size());
  std::vector<double> runs;
  for (int r = 0; r < repeats; ++r) {
    common::Stopwatch watch;
    for (const auto& f : features) {
      hasher.sketch_features_into(f, out);
      if (out[0] == 0 && out.back() == 1) std::abort();  // un-elidable
    }
    runs.push_back(watch.seconds());
  }
  return median(std::move(runs));
}

/// One pass of the extractor MinHasher runs before hashing, the filtered
/// k-mer stream (scheme-independent context for the hash-only numbers
/// above).
double extraction_seconds(const simdata::LabeledReads& sample, int repeats) {
  std::vector<std::uint64_t> scratch;
  std::vector<double> runs;
  for (int r = 0; r < repeats; ++r) {
    common::Stopwatch watch;
    for (const auto& read : sample.reads) {
      bio::kmer_stream_into(read.seq, {.k = 5, .canonical = true}, scratch);
      if (scratch.empty()) std::abort();
    }
    runs.push_back(watch.seconds());
  }
  return median(std::move(runs));
}

struct PipelineCell {
  core::PipelineResult exact;  ///< similarity-job (all-pairs) path
  core::PipelineResult lsh;    ///< candidates + verify path
};

PipelineCell run_cell(const simdata::LabeledReads& sample,
                      core::SketchScheme scheme, std::size_t bits,
                      std::size_t hashes, std::uint64_t seed) {
  core::PipelineParams params;
  params.minhash = {.kmer = 5, .num_hashes = hashes, .canonical = true,
                    .seed = seed, .scheme = scheme};
  params.mode = core::Mode::kHierarchical;
  params.theta = 0.5;
  params.sketch_bits = bits;
  core::ExecutionOptions exec;
  exec.cluster.nodes = 8;

  PipelineCell cell;
  cell.exact = core::run_pipeline(sample.reads, params, exec);
  params.candidates.backend = core::candidates::Backend::kLshBanded;
  cell.lsh = core::run_pipeline(sample.reads, params, exec);
  return cell;
}

/// Pre-block shuffle accounting for the same exchange: per-read
/// (u32, vector<u64>) sketches, per-row (u32, vector<float>) similarities,
/// per-pair (u64, double) verify scores.
double legacy_sketch_bytes(std::size_t reads, std::size_t hashes) {
  return static_cast<double>(reads) *
         (4.0 + mr::kContainerHeaderBytes + 8.0 * static_cast<double>(hashes));
}
double legacy_similarity_bytes(std::size_t reads) {
  const double n = static_cast<double>(reads);
  const double pairs = n * (n - 1.0) / 2.0;
  return n * (4.0 + mr::kContainerHeaderBytes) + 4.0 * pairs;
}
double legacy_verify_bytes(double pairs_scored) { return 16.0 * pairs_scored; }

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  bench::apply_obs_flags(flags);
  const std::size_t reads = flags.num("reads", 200);
  const std::size_t pairs = flags.num("pairs", 1500);
  const std::uint64_t seed = flags.num("seed", 42);
  const std::size_t hashes = flags.num("hashes", 100);
  const int repeats = static_cast<int>(flags.num("repeats", 5));

  const auto sample = simdata::build_whole_metagenome(
      simdata::whole_metagenome_spec("S8"), {.reads = reads, .seed = seed});

  bench::BenchRecord record("cminhash", {"section", "scheme", "bits", "hashes"});

  // ------------------------------------------------ sketch-compute timing
  std::vector<std::vector<std::uint64_t>> feature_sets;
  feature_sets.reserve(sample.size());
  for (const auto& read : sample.reads) {
    feature_sets.push_back(bio::kmer_set(read.seq, {.k = 5, .canonical = true}));
  }
  const double extract_us = extraction_seconds(sample, repeats) * 1e6 /
                            static_cast<double>(sample.size());
  common::TextTable sketch_table(
      {"K", "universal us/read", "cminhash us/read", "speedup"});
  for (const std::size_t k : {64u, 100u, 200u}) {
    double per_scheme[2] = {0.0, 0.0};
    for (const auto scheme :
         {core::SketchScheme::kUniversal, core::SketchScheme::kCMinHash}) {
      const core::MinHasher hasher({.kmer = 5, .num_hashes = k,
                                    .canonical = true, .seed = seed,
                                    .scheme = scheme});
      per_scheme[scheme == core::SketchScheme::kCMinHash] =
          sketch_seconds(hasher, feature_sets, repeats);
    }
    const double us = 1e6 / static_cast<double>(sample.size());
    const double speedup = per_scheme[0] / per_scheme[1];
    sketch_table.add_row({std::to_string(k),
                          common::fmt_f(per_scheme[0] * us, 1),
                          common::fmt_f(per_scheme[1] * us, 1),
                          common::fmt_f(speedup, 2)});
    record.row()
        .str("section", "sketch")
        .str("scheme", "universal")
        .num("bits", 64L)
        .num("hashes", static_cast<long>(k))
        .num("sketch_us_per_read", per_scheme[0] * us)
        .num("kmer_extract_us_per_read", extract_us);
    record.row()
        .str("section", "sketch")
        .str("scheme", "cminhash")
        .num("bits", 64L)
        .num("hashes", static_cast<long>(k))
        .num("sketch_us_per_read", per_scheme[1] * us)
        .num("sketch_speedup", speedup);
  }

  // ------------------------------------------------------ estimator RMSE
  // Averaged over a few hash-draw seeds (same pair sample each time): a
  // single draw is noisy at this pair count, and C-MinHash rides one
  // permutation, so one seed can misrepresent the scheme either way.
  constexpr std::size_t kRmseSeeds = 3;
  common::TextTable rmse_table({"scheme", "b", "RMSE vs exact J"});
  for (const auto scheme :
       {core::SketchScheme::kUniversal, core::SketchScheme::kCMinHash}) {
    std::vector<std::vector<core::Sketch>> seeded_sketches;
    for (std::size_t si = 0; si < kRmseSeeds; ++si) {
      const core::MinHasher hasher({.kmer = 5, .num_hashes = hashes,
                                    .canonical = true, .seed = seed + si,
                                    .scheme = scheme});
      auto& sketches = seeded_sketches.emplace_back();
      sketches.reserve(sample.size());
      for (const auto& read : sample.reads) {
        sketches.push_back(hasher.sketch(read.seq));
      }
    }
    for (const std::size_t bits : {64u, 16u, 8u}) {
      const std::uint64_t mask = core::sketch_bits_mask(bits);
      common::Xoshiro256 rng(seed ^ bits);
      double sq = 0.0;
      for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t i = rng.bounded(sample.size());
        const std::size_t j = rng.bounded(sample.size());
        const double exact = bio::exact_jaccard(feature_sets[i], feature_sets[j]);
        for (const auto& sketches : seeded_sketches) {
          std::size_t matches = 0;
          for (std::size_t c = 0; c < hashes; ++c) {
            matches += (sketches[i][c] & mask) == (sketches[j][c] & mask);
          }
          const double estimate =
              core::corrected_match_similarity(matches, hashes, bits);
          sq += (estimate - exact) * (estimate - exact);
        }
      }
      const double rmse = std::sqrt(sq / static_cast<double>(pairs * kRmseSeeds));
      rmse_table.add_row({core::sketch_scheme_name(scheme),
                          std::to_string(bits), common::fmt_f(rmse, 4)});
      record.row()
          .str("section", "estimate")
          .str("scheme", core::sketch_scheme_name(scheme))
          .num("bits", static_cast<long>(bits))
          .num("hashes", static_cast<long>(hashes))
          .num("estimate_rmse", rmse);
    }
  }

  // ------------------------------------------- pipeline rows: scheme × b
  // Exact-Jaccard hierarchical labels: the sketch-free reference.
  std::vector<int> exact_labels;
  {
    core::SimilarityMatrix matrix(sample.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      matrix.set(i, i, 1.0F);
      for (std::size_t j = i + 1; j < sample.size(); ++j) {
        matrix.set(i, j, static_cast<float>(bio::exact_jaccard(
                             feature_sets[i], feature_sets[j])));
      }
    }
    exact_labels = core::cut_dendrogram(
        core::agglomerate(std::move(matrix), core::Linkage::kAverage), 0.5);
  }

  common::TextTable pipe_table({"scheme", "b", "ARI vs b=64", "ARI vs exact",
                                "recall", "sketch KB", "sim KB", "verify KB",
                                "sim x", "verify x"});
  struct CompareRow {
    double sketch_bytes, similarity_bytes, verify_bytes;
  };
  CompareRow before{}, after{};
  std::vector<std::string_view> seqs;
  for (const auto& read : sample.reads) seqs.emplace_back(read.seq);
  constexpr std::size_t kBitGrid[3] = {64, 16, 8};
  // Quality metrics (ARI, recall) are averaged over a few sketch seeds:
  // both schemes share one hash draw per seed, and C-MinHash in particular
  // rides a single permutation — one globally lucky or unlucky draw can
  // swing ARI-vs-exact by ±0.2 on a boundary-dense sample, which a single
  // seed would misreport as a scheme difference.  Shuffle-byte metrics are
  // seed-independent shapes, so they come from the base seed only.
  constexpr std::size_t kQualitySeeds = 3;
  for (const auto scheme :
       {core::SketchScheme::kUniversal, core::SketchScheme::kCMinHash}) {
    const bool cmin = scheme == core::SketchScheme::kCMinHash;
    struct Cell {
      double ari_full = 0.0, ari_exact = 0.0, recall = 0.0;
      double sketch_b = 0.0, sim_b = 0.0, verify_b = 0.0, legacy_verify = 0.0;
    };
    Cell cells[3];
    for (std::size_t si = 0; si < kQualitySeeds; ++si) {
      const std::uint64_t qseed = seed + si;
      std::vector<int> fw_labels;
      for (std::size_t bi = 0; bi < 3; ++bi) {
        const std::size_t bits = kBitGrid[bi];
        const PipelineCell cell = run_cell(sample, scheme, bits, hashes, qseed);
        if (bits == 64) fw_labels = cell.exact.labels;
        cells[bi].ari_full +=
            eval::adjusted_rand_index(cell.exact.labels, fw_labels) /
            kQualitySeeds;
        cells[bi].ari_exact +=
            eval::adjusted_rand_index(cell.exact.labels, exact_labels) /
            kQualitySeeds;

        // LSH recall on the truncated sketches, at the pipeline's effective
        // component-match threshold for this b.
        const core::MinHasher hasher({.kmer = 5, .num_hashes = hashes,
                                      .canonical = true, .seed = qseed,
                                      .scheme = scheme});
        core::kernels::SketchMatrix matrix = hasher.sketch_matrix(seqs);
        if (bits < 64) {
          matrix = hasher.widen(matrix);
          core::kernels::mask_components(matrix, core::sketch_bits_mask(bits));
        }
        core::candidates::Params lsh_params;
        lsh_params.backend = core::candidates::Backend::kLshBanded;
        const auto recall_report = eval::candidate_recall(
            matrix, core::bbit_adjusted_threshold(0.5, bits), lsh_params,
            core::SketchEstimator::kComponentMatch);
        cells[bi].recall += recall_report.recall / kQualitySeeds;

        if (si == 0) {
          cells[bi].sketch_b = cell.exact.sketch_stats.shuffle_bytes;
          cells[bi].sim_b = cell.exact.similarity_stats.shuffle_bytes;
          cells[bi].verify_b = cell.lsh.verify_stats.shuffle_bytes;
          cells[bi].legacy_verify = legacy_verify_bytes(
              cell.lsh.verify_stats.counters.at("verify.pairs_scored"));
        }
      }
    }
    for (std::size_t bi = 0; bi < 3; ++bi) {
      const std::size_t bits = kBitGrid[bi];
      const Cell& c = cells[bi];
      const double legacy_sketch = legacy_sketch_bytes(sample.size(), hashes);
      const double legacy_sim = legacy_similarity_bytes(sample.size());
      const double sim_reduction = legacy_sim / c.sim_b;
      const double verify_reduction = c.legacy_verify / c.verify_b;

      if (!cmin && bits == 64) {
        before = {legacy_sketch, legacy_sim, c.legacy_verify};
      }
      if (cmin && bits == 8) after = {c.sketch_b, c.sim_b, c.verify_b};

      pipe_table.add_row(
          {core::sketch_scheme_name(scheme), std::to_string(bits),
           common::fmt_f(c.ari_full, 4), common::fmt_f(c.ari_exact, 4),
           common::fmt_f(c.recall, 4), common::fmt_f(c.sketch_b / 1024.0, 1),
           common::fmt_f(c.sim_b / 1024.0, 1),
           common::fmt_f(c.verify_b / 1024.0, 1),
           common::fmt_f(sim_reduction, 1), common::fmt_f(verify_reduction, 1)});
      record.row()
          .str("section", "pipeline")
          .str("scheme", core::sketch_scheme_name(scheme))
          .num("bits", static_cast<long>(bits))
          .num("hashes", static_cast<long>(hashes))
          .num("ari_accuracy", c.ari_full)
          .num("ari_vs_exact_accuracy", c.ari_exact)
          .num("candidate_recall_accuracy", c.recall)
          .num("sketch_shuffle_bytes", c.sketch_b)
          .num("similarity_shuffle_bytes", c.sim_b)
          .num("verify_shuffle_bytes", c.verify_b)
          .num("legacy_similarity_model_bytes", legacy_sim)
          .num("legacy_verify_model_bytes", c.legacy_verify)
          .num("similarity_bytes_reduction", sim_reduction)
          .num("verify_bytes_reduction", verify_reduction)
          .str("backend", core::kernels::backend_name(
                              core::kernels::active_backend()));
    }
  }

  std::cout << "Ablation — C-MinHash + b-bit packed shuffle (S8, " << reads
            << " reads, K=" << hashes << ")\n\nSketch compute (median of "
            << repeats << "; hash kernel only — k-mer extraction is "
            << "scheme-independent, " << common::fmt_f(extract_us, 1)
            << " us/read on top of either column)\n";
  sketch_table.print(std::cout);
  std::cout << "\nEstimate quality\n";
  rmse_table.print(std::cout);
  std::cout << "\nPipeline (hierarchical θ=0.5; bytes are per-job shuffle "
               "totals; x = legacy wire model / BinaryBlock)\n";
  pipe_table.print(std::cout);

  if (flags.flag("bench-json")) {
    const std::string json = flags.str("bench-json", "");
    const std::string path =
        json.empty() || json == "1" ? record.default_path() : json;
    if (!record.write(path)) {
      std::cerr << "failed to write " << path << "\n";
      return 1;
    }
    std::cout << "wrote " << path << "\n";
  }
  if (flags.flag("compare-json")) {
    // Before/after pair for `mrmc_doctor compare`: the legacy wire model at
    // (universal, b=64) vs the packed blocks at (cminhash, b=8).
    const auto write_side = [&](const std::string& path, const char* scheme,
                                long bits, const CompareRow& side) {
      bench::BenchRecord one("cminhash", {"section", "scheme", "bits", "hashes"});
      one.row()
          .str("section", "shuffle")
          .str("scheme", scheme)
          .num("bits", bits)
          .num("hashes", static_cast<long>(hashes))
          .num("sketch_shuffle_bytes", side.sketch_bytes)
          .num("similarity_shuffle_bytes", side.similarity_bytes)
          .num("verify_shuffle_bytes", side.verify_bytes);
      return one.write(path);
    };
    // Both sides use the same key values so compare matches them row-to-row.
    if (!write_side("BENCH_cminhash_before.json", "any", 0, before) ||
        !write_side("BENCH_cminhash_after.json", "any", 0, after)) {
      std::cerr << "failed to write compare pair\n";
      return 1;
    }
    std::cout << "wrote BENCH_cminhash_before.json / BENCH_cminhash_after.json\n";
  }
  bench::finish_obs(flags);
  return 0;
}
