// Parameterized property tests for the MapReduce engine: for any
// (reducers, split size, node count) configuration, a word-count job must
// produce identical, complete, deterministic results — the engine's
// correctness must never depend on its performance knobs.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/prng.hpp"
#include "mr/job.hpp"

namespace mrmc::mr {
namespace {

using CountJob = Job<long, long, long, std::pair<long, long>>;

std::vector<long> make_input(std::size_t records, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<long> input(records);
  for (auto& value : input) value = static_cast<long>(rng.bounded(37));
  return input;
}

using Hist = std::map<long, long>;

Hist expected_histogram(const std::vector<long>& input) {
  Hist histogram;
  for (const long value : input) ++histogram[value];
  return histogram;
}

CountJob::Mapper histogram_mapper() {
  return [](const long& record, Emitter<long, long>& emit) {
    emit.emit(record, 1);
  };
}

CountJob::Reducer sum_reducer() {
  return [](const long& key, std::vector<long>& values,
            std::vector<std::pair<long, long>>& out) {
    long total = 0;
    for (const long v : values) total += v;
    out.emplace_back(key, total);
  };
}

// (num_reducers, records_per_split, nodes)
using EngineShape = std::tuple<std::size_t, std::size_t, std::size_t>;

class EngineShapeSweep : public ::testing::TestWithParam<EngineShape> {};

TEST_P(EngineShapeSweep, HistogramIsExactUnderAnyShape) {
  const auto [reducers, split, nodes] = GetParam();
  const auto input = make_input(500, 11);

  static common::ThreadPool pool(2);
  JobConfig config;
  config.num_reducers = reducers;
  config.records_per_split = split;
  config.cluster.nodes = nodes;
  config.pool = &pool;
  CountJob job(config, histogram_mapper(), sum_reducer());
  const auto result = job.run(input);

  const Hist histogram(result.output.begin(), result.output.end());
  EXPECT_EQ(histogram, expected_histogram(input));
  EXPECT_EQ(result.stats.input_records, 500u);
  EXPECT_EQ(result.stats.reduce_groups, histogram.size());
}

TEST_P(EngineShapeSweep, CombinerNeverChangesTheAnswer) {
  const auto [reducers, split, nodes] = GetParam();
  const auto input = make_input(300, 13);

  JobConfig config;
  config.num_reducers = reducers;
  config.records_per_split = split;
  config.cluster.nodes = nodes;

  CountJob plain(config, histogram_mapper(), sum_reducer());
  CountJob combined(config, histogram_mapper(), sum_reducer());
  combined.with_combiner([](const long& key, std::vector<long>& values,
                            Emitter<long, long>& emit) {
    long total = 0;
    for (const long v : values) total += v;
    emit.emit(key, total);
  });

  const auto a = plain.run(input);
  const auto b = combined.run(input);
  EXPECT_EQ(Hist(a.output.begin(), a.output.end()),
            Hist(b.output.begin(), b.output.end()));
  EXPECT_LE(b.stats.shuffle_bytes, a.stats.shuffle_bytes);
}

TEST_P(EngineShapeSweep, SimulatedTimeIsDeterministic) {
  const auto [reducers, split, nodes] = GetParam();
  const auto input = make_input(200, 17);

  JobConfig config;
  config.num_reducers = reducers;
  config.records_per_split = split;
  config.cluster.nodes = nodes;
  CountJob job1(config, histogram_mapper(), sum_reducer());
  CountJob job2(config, histogram_mapper(), sum_reducer());
  EXPECT_DOUBLE_EQ(job1.run(input).stats.timeline.total_s,
                   job2.run(input).stats.timeline.total_s);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineShapeSweep,
    ::testing::Values(EngineShape{1, 1, 1}, EngineShape{1, 1000, 1},
                      EngineShape{2, 7, 2}, EngineShape{4, 32, 4},
                      EngineShape{8, 64, 8}, EngineShape{16, 500, 12},
                      EngineShape{3, 501, 5}));

class FailureSweep : public ::testing::TestWithParam<double> {};

TEST_P(FailureSweep, OutputSurvivesAnyFailureRate) {
  const auto input = make_input(200, 19);
  JobConfig config;
  config.records_per_split = 10;
  config.map_failure_rate = GetParam();
  config.seed = 23;
  CountJob job(config, histogram_mapper(), sum_reducer());
  const auto result = job.run(input);
  EXPECT_EQ(Hist(result.output.begin(), result.output.end()),
            expected_histogram(input));
}

INSTANTIATE_TEST_SUITE_P(Rates, FailureSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace mrmc::mr
