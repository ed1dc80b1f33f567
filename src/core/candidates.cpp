#include "core/candidates.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/kernels.hpp"

namespace mrmc::core::candidates {

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kExactAllPairs: return "exact";
    case Backend::kLshBanded: return "lsh";
  }
  return "?";
}

double lsh_collision_probability(double jaccard, std::size_t bands,
                                 std::size_t rows) noexcept {
  return 1.0 - std::pow(1.0 - std::pow(jaccard, static_cast<double>(rows)),
                        static_cast<double>(bands));
}

double lsh_threshold(std::size_t bands, std::size_t rows) noexcept {
  return std::pow(1.0 / static_cast<double>(bands),
                  1.0 / static_cast<double>(rows));
}

BandShape validated_band_shape(std::size_t sketch_size, std::size_t bands) {
  MRMC_REQUIRE(bands >= 1, "need at least one band");
  MRMC_REQUIRE(sketch_size >= 1, "need a nonempty sketch");
  MRMC_REQUIRE(sketch_size % bands == 0, "bands must divide the sketch length");
  return {bands, sketch_size / bands};
}

BandShape select_band_shape(std::size_t sketch_size, double theta,
                            double target_recall) {
  MRMC_REQUIRE(sketch_size >= 1, "need a nonempty sketch");
  MRMC_REQUIRE(theta >= 0.0 && theta <= 1.0, "theta in [0, 1]");
  MRMC_REQUIRE(target_recall > 0.0 && target_recall <= 1.0,
               "target_recall in (0, 1]");
  // At fixed J the collision probability rises monotonically with the band
  // count (shorter bands match more easily and there are more of them), so
  // scanning bands upward finds the unique cheapest shape that meets the
  // target.
  for (std::size_t bands = 1; bands <= sketch_size; ++bands) {
    if (sketch_size % bands != 0) continue;
    const std::size_t rows = sketch_size / bands;
    if (lsh_collision_probability(theta, bands, rows) >= target_recall) {
      return {bands, rows};
    }
  }
  return {sketch_size, 1};  // most sensitive shape; target unreachable
}

BandShape resolve_band_shape(const Params& params, std::size_t sketch_size,
                             double theta) {
  return params.bands != 0
             ? validated_band_shape(sketch_size, params.bands)
             : select_band_shape(sketch_size, theta, params.target_recall);
}

namespace {

/// Read ids and bucket positions are 32-bit.
constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();

std::vector<Pair> all_pairs(std::size_t n) {
  std::vector<Pair> pairs;
  if (n < 2) return pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

}  // namespace

std::vector<BucketEntry> part_entries(const kernels::SketchMatrix& sketches,
                                      const BandShape& shape,
                                      std::uint64_t seed, std::size_t begin,
                                      std::size_t end,
                                      std::vector<std::size_t>& part_start,
                                      common::ThreadPool* pool) {
  MRMC_REQUIRE(shape.bands >= 1 && shape.bands * shape.rows == sketches.cols(),
               "band shape must tile the sketch length");
  const std::size_t rows = end - begin;
  const std::size_t row_blocks =
      pool == nullptr ? 1 : std::min(rows, pool->size() * 4);
  auto for_each_key = [&](std::size_t row_block, auto&& fn) {
    sketches.with_cell([&]<typename Cell>(Cell) {
      for (std::size_t i = begin + rows * row_block / row_blocks;
           i < begin + rows * (row_block + 1) / row_blocks; ++i) {
        const auto sketch = sketches.row<Cell>(i);
        for (std::size_t band = 0; band < shape.bands; ++band) {
          const std::uint64_t key = band_bucket_key(sketch, band, shape, seed);
          fn(key >> (64 - kPartBits), key, static_cast<std::uint32_t>(i));
        }
      }
    });
  };

  // cursor[r * kParts + p]: row block r's entries in part p, then (after
  // the prefix pass) where it writes the first of them.  Parts are laid out
  // in order and row blocks in order within a part, so the fill is
  // deterministic.
  std::vector<std::size_t> cursor(row_blocks * kParts, 0);
  common::parallel_for(pool, row_blocks, [&](std::size_t r) {
    for_each_key(r, [&](std::size_t part, std::uint64_t, std::uint32_t) {
      ++cursor[r * kParts + part];
    });
  });
  part_start.assign(kParts + 1, 0);
  for (std::size_t p = 0; p < kParts; ++p) {
    part_start[p + 1] = part_start[p];
    for (std::size_t r = 0; r < row_blocks; ++r) {
      const std::size_t count = cursor[r * kParts + p];
      cursor[r * kParts + p] = part_start[p + 1];
      part_start[p + 1] += count;
    }
  }
  std::vector<BucketEntry> entries(part_start[kParts]);
  common::parallel_for(pool, row_blocks, [&](std::size_t r) {
    for_each_key(r, [&](std::size_t part, std::uint64_t key, std::uint32_t id) {
      entries[cursor[r * kParts + part]++] = {key, id};
    });
  });
  return entries;
}

BucketCsr sort_and_compact(std::span<BucketEntry> entries,
                           std::span<const std::size_t> part_start,
                           common::ThreadPool* pool) {
  const std::size_t parts = part_start.size() - 1;
  // Compact a part's runs of equal keys in two walks: one to size its share
  // of the slice, one to fill it.  ids ascend within a run (the sort's
  // tiebreak).
  auto for_each_bucket = [&](std::size_t p, auto&& fn) {
    const BucketEntry* const last = entries.data() + part_start[p + 1];
    for (const BucketEntry* lo = entries.data() + part_start[p]; lo != last;) {
      const BucketEntry* hi = lo + 1;
      std::size_t distinct = 1;
      for (; hi != last && hi->first == lo->first; ++hi) {
        distinct += hi->second != hi[-1].second ? 1 : 0;
      }
      if (distinct >= 2) fn(lo, hi, distinct);
      lo = hi;
    }
  };
  // part_ids[p + 1] / part_buckets[p + 1] count part p's ids and buckets;
  // after the prefix pass, part_ids[p] / part_buckets[p] are where part p's
  // begin in the slice.
  std::vector<std::size_t> part_ids(parts + 1, 0);
  std::vector<std::size_t> part_buckets(parts + 1, 0);
  common::parallel_for(pool, parts, [&](std::size_t p) {
    std::sort(entries.begin() + static_cast<std::ptrdiff_t>(part_start[p]),
              entries.begin() + static_cast<std::ptrdiff_t>(part_start[p + 1]));
    for_each_bucket(p, [&](const BucketEntry*, const BucketEntry*,
                           std::size_t distinct) {
      part_ids[p + 1] += distinct;
      ++part_buckets[p + 1];
    });
  });
  std::partial_sum(part_ids.begin(), part_ids.end(), part_ids.begin());
  std::partial_sum(part_buckets.begin(), part_buckets.end(),
                   part_buckets.begin());
  BucketCsr slice;
  slice.ids.resize(part_ids[parts]);
  slice.offsets.resize(part_buckets[parts] + 1, 0);
  common::parallel_for(pool, parts, [&](std::size_t p) {
    std::size_t id = part_ids[p];
    std::size_t bucket = part_buckets[p];
    for_each_bucket(p, [&](const BucketEntry* lo, const BucketEntry* hi,
                           std::size_t) {
      for (const BucketEntry* e = lo; e != hi; ++e) {
        if (e == lo || e->second != e[-1].second) slice.ids[id++] = e->second;
      }
      slice.offsets[++bucket] = static_cast<std::uint32_t>(id);
    });
  });
  return slice;
}

void validate_buckets(const BucketCsr& buckets, std::size_t rows) {
  const std::vector<std::uint32_t>& offsets = buckets.offsets;
  const std::vector<std::uint32_t>& ids = buckets.ids;
  MRMC_REQUIRE(!offsets.empty() && offsets.front() == 0 &&
                   offsets.back() == ids.size(),
               "offsets must frame the ids");
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    MRMC_REQUIRE(offsets[g] < offsets[g + 1] &&
                     offsets[g + 1] - offsets[g] >= 2,
                 "every bucket needs two ids");
    MRMC_REQUIRE(ids[offsets[g + 1] - 1] < rows, "bucket id out of range");
    for (std::uint32_t p = offsets[g] + 1; p < offsets[g + 1]; ++p) {
      MRMC_REQUIRE(ids[p - 1] < ids[p], "bucket ids must ascend");
    }
  }
}

std::vector<Pair> pairs_from_buckets(const BucketCsr& buckets,
                                     std::size_t rows,
                                     common::ThreadPool* pool) {
  const std::vector<std::uint32_t>& offsets = buckets.offsets;
  const std::vector<std::uint32_t>& ids = buckets.ids;
  MRMC_REQUIRE(rows <= kMaxIndex, "read ids must fit 32 bits");
  MRMC_REQUIRE(ids.size() <= kMaxIndex, "bucket entries must fit 32 bits");
  validate_buckets(buckets, rows);

  // Row index: slot s of row a is one bucket holding a, as the range of
  // a's mates b > a in it — the ids after a in that ascending bucket.
  // work[a] counts the mates rows before a gather, duplicates included.
  struct Mates {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  std::vector<std::uint32_t> row_start(rows + 1, 0);
  std::vector<std::uint64_t> work(rows + 1, 0);
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    for (std::uint32_t p = offsets[g]; p + 1 < offsets[g + 1]; ++p) {
      ++row_start[ids[p] + 1];
      work[ids[p] + 1] += offsets[g + 1] - p - 1;
    }
  }
  std::partial_sum(row_start.begin(), row_start.end(), row_start.begin());
  std::partial_sum(work.begin(), work.end(), work.begin());
  std::vector<Mates> slots(row_start[rows]);
  {
    std::vector<std::uint32_t> cursor(row_start.begin(), row_start.end() - 1);
    for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
      for (std::uint32_t p = offsets[g]; p + 1 < offsets[g + 1]; ++p) {
        slots[cursor[ids[p]]++] = {p + 1, offsets[g + 1]};
      }
    }
  }

  // Cut the rows into contiguous blocks of about equal work, so one dense
  // bucket cannot serialise the pass.
  const std::size_t blocks = pool == nullptr ? 1 : pool->size() * 8;
  std::vector<std::size_t> cut(blocks + 1, rows);
  cut[0] = 0;
  for (std::size_t k = 1; k < blocks; ++k) {
    cut[k] = static_cast<std::size_t>(
        std::lower_bound(work.begin(), work.end(), work[rows] * k / blocks) -
        work.begin());
  }

  // Worker w stamps seen[w][b] = a + 1 when it writes the pair (a, b), so a
  // mate reached through several buckets is kept once.  Every block is
  // expanded twice, first to count its pairs and then to write them at its
  // prefix offset, so the output is the only pair-sized buffer.
  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  std::vector<std::vector<std::uint32_t>> seen(workers,
                                               std::vector<std::uint32_t>(rows));
  std::vector<std::size_t> start(blocks + 1, 0);
  std::vector<Pair> pairs;
  auto expand = [&](bool write) {
    std::atomic<std::size_t> next_block{0};
    common::parallel_for(pool, workers, [&](std::size_t w) {
      std::vector<std::uint32_t>& last = seen[w];
      std::fill(last.begin(), last.end(), 0);
      for (std::size_t k; (k = next_block.fetch_add(1)) < blocks;) {
        std::size_t out = write ? start[k] : 0;
        for (std::size_t a = cut[k]; a < cut[k + 1]; ++a) {
          const auto stamp = static_cast<std::uint32_t>(a + 1);
          const std::size_t row_begin = out;
          for (std::uint32_t s = row_start[a]; s < row_start[a + 1]; ++s) {
            for (std::uint32_t p = slots[s].begin; p < slots[s].end; ++p) {
              if (last[ids[p]] == stamp) continue;
              last[ids[p]] = stamp;
              if (write) pairs[out] = {stamp - 1, ids[p]};
              ++out;
            }
          }
          // Each bucket's mates ascend, so a row in one bucket, or whose
          // other buckets add nothing new (copies of one read), needs no
          // sort.
          if (write) {
            Pair* const row = pairs.data() + row_begin;
            if (!std::is_sorted(row, pairs.data() + out)) {
              std::sort(row, pairs.data() + out);
            }
          }
        }
        if (!write) start[k + 1] = out;
      }
    });
  };
  expand(false);
  for (std::size_t k = 0; k < blocks; ++k) start[k + 1] += start[k];
  pairs.resize(start[blocks]);
  expand(true);
  return pairs;
}

BucketCsr lsh_buckets(const kernels::SketchMatrix& sketches,
                      const BandShape& shape, std::uint64_t seed,
                      common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  MRMC_REQUIRE(n <= kMaxIndex && n * shape.bands <= kMaxIndex,
               "read ids and bucket entries must fit 32 bits");
  std::vector<std::size_t> part_start;
  std::vector<BucketEntry> entries =
      part_entries(sketches, shape, seed, 0, n, part_start, pool);
  return sort_and_compact(entries, part_start, pool);
}

std::vector<Pair> enumerate_pairs(const kernels::SketchMatrix& sketches,
                                  const Params& params, double theta,
                                  common::ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  MRMC_REQUIRE(n <= kMaxIndex, "read ids must fit 32 bits");
  if (n < 2) return {};
  if (params.backend == Backend::kExactAllPairs) return all_pairs(n);
  const BandShape shape = resolve_band_shape(params, sketches.cols(), theta);
  return pairs_from_buckets(lsh_buckets(sketches, shape, params.seed, pool), n,
                            pool);
}

void verify_rows(const SketchPairSimilarity& scorer, std::span<const Pair> pairs,
                 std::span<Edge> edges, std::size_t first, std::size_t last) {
  const kernels::SketchMatrix& sketches = scorer.sketches();
  sketches.with_cell([&]<typename Cell>(Cell) {
    for (std::size_t p = first; p < last; ++p) {
      const auto [a, b] = pairs[p];
      MRMC_REQUIRE(a < b && b < sketches.rows(), "candidate pair out of range");
      edges[p] = Edge{a, b, scorer.at<Cell>(a, b)};
    }
  });
}

SparseSimilarityGraph verify_pairs(const kernels::SketchMatrix& sketches,
                                   std::span<const Pair> pairs,
                                   SketchEstimator estimator,
                                   common::ThreadPool* pool) {
  SparseSimilarityGraph graph{sketches.rows(), std::vector<Edge>(pairs.size())};
  const SketchPairSimilarity scorer(sketches, estimator, pool);
  kernels::for_each_block(pool, pairs.size(), 1,
                          [&](std::size_t first, std::size_t last) {
                            verify_rows(scorer, pairs, graph.edges, first, last);
                          });
  return graph;
}

SparseSimilarityGraph build_graph(const kernels::SketchMatrix& sketches,
                                  const Params& params, double theta,
                                  SketchEstimator estimator,
                                  common::ThreadPool* pool) {
  const std::vector<Pair> pairs =
      enumerate_pairs(sketches, params, theta, pool);
  return verify_pairs(sketches, pairs, estimator, pool);
}

}  // namespace mrmc::core::candidates
