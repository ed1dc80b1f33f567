#include "mr/job.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mr/bytes.hpp"

namespace mrmc::mr {
namespace {

using WordCountJob = Job<std::string, std::string, long, std::pair<std::string, long>>;

JobConfig test_config(std::size_t reducers = 3, std::size_t split = 2) {
  static common::ThreadPool pool(2);
  JobConfig config;
  config.name = "test";
  config.num_reducers = reducers;
  config.records_per_split = split;
  config.pool = &pool;
  config.cluster.nodes = 4;
  return config;
}

WordCountJob::Mapper word_mapper() {
  return [](const std::string& line, Emitter<std::string, long>& emit) {
    std::istringstream stream(line);
    std::string word;
    while (stream >> word) emit.emit(word, 1);
  };
}

WordCountJob::Reducer sum_reducer() {
  return [](const std::string& word, std::vector<long>& counts,
            std::vector<std::pair<std::string, long>>& out) {
    long total = 0;
    for (const long c : counts) total += c;
    out.emplace_back(word, total);
  };
}

std::map<std::string, long> to_map(
    const std::vector<std::pair<std::string, long>>& pairs) {
  return {pairs.begin(), pairs.end()};
}

const std::vector<std::string> kLines = {
    "the quick brown fox", "the lazy dog",      "the fox jumps",
    "lazy lazy dog",       "quick brown brown", "fox"};

TEST(Job, WordCountEndToEnd) {
  WordCountJob job(test_config(), word_mapper(), sum_reducer());
  const auto result = job.run(kLines);
  const auto counts = to_map(result.output);
  EXPECT_EQ(counts.at("the"), 3);
  EXPECT_EQ(counts.at("lazy"), 3);
  EXPECT_EQ(counts.at("brown"), 3);
  EXPECT_EQ(counts.at("fox"), 3);
  EXPECT_EQ(counts.at("quick"), 2);
  EXPECT_EQ(counts.at("dog"), 2);
  EXPECT_EQ(counts.at("jumps"), 1);
}

TEST(Job, StatsCountRecords) {
  WordCountJob job(test_config(3, 2), word_mapper(), sum_reducer());
  const auto result = job.run(kLines);
  const JobStats& stats = result.stats;
  EXPECT_EQ(stats.input_records, 6u);
  EXPECT_EQ(stats.map_tasks, 3u);  // 6 lines / 2 per split
  EXPECT_EQ(stats.reduce_tasks, 3u);
  EXPECT_EQ(stats.map_output_records, 17u);  // total words
  EXPECT_EQ(stats.reduce_groups, 7u);        // distinct words
  EXPECT_EQ(stats.output_records, 7u);
  EXPECT_GT(stats.shuffle_bytes, 0.0);
  EXPECT_GT(stats.timeline.total_s, 0.0);
}

TEST(Job, CombinerShrinksShuffleWithoutChangingOutput) {
  WordCountJob plain(test_config(2, 3), word_mapper(), sum_reducer());
  const auto baseline = plain.run(kLines);

  WordCountJob combined(test_config(2, 3), word_mapper(), sum_reducer());
  combined.with_combiner([](const std::string& word, std::vector<long>& counts,
                            Emitter<std::string, long>& emit) {
    long total = 0;
    for (const long c : counts) total += c;
    emit.emit(word, total);
  });
  const auto result = combined.run(kLines);

  EXPECT_EQ(to_map(result.output), to_map(baseline.output));
  EXPECT_LT(result.stats.map_output_records, baseline.stats.map_output_records);
  EXPECT_LT(result.stats.shuffle_bytes, baseline.stats.shuffle_bytes);
  EXPECT_EQ(result.stats.pre_combine_records,
            baseline.stats.map_output_records);
}

TEST(Job, CustomPartitionerRoutesKeys) {
  // All keys to partition 0: reducer 0 sees every group.
  WordCountJob job(test_config(4, 2), word_mapper(), sum_reducer());
  job.with_partitioner([](const std::string&) { return std::size_t{0}; });
  const auto result = job.run(kLines);
  EXPECT_EQ(result.stats.reduce_groups, 7u);
  EXPECT_EQ(to_map(result.output).size(), 7u);
}

TEST(Job, DeterministicOutputAcrossRuns) {
  WordCountJob job1(test_config(3, 2), word_mapper(), sum_reducer());
  WordCountJob job2(test_config(3, 2), word_mapper(), sum_reducer());
  const auto a = job1.run(kLines);
  const auto b = job2.run(kLines);
  EXPECT_EQ(a.output, b.output);  // identical ordering, not just same set
  EXPECT_DOUBLE_EQ(a.stats.timeline.total_s, b.stats.timeline.total_s);
}

TEST(Job, EmptyInputProducesEmptyOutput) {
  WordCountJob job(test_config(), word_mapper(), sum_reducer());
  const auto result = job.run({});
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.stats.input_records, 0u);
}

TEST(Job, SingleRecordSingleReducer) {
  WordCountJob job(test_config(1, 10), word_mapper(), sum_reducer());
  const auto result = job.run(std::vector<std::string>{"hello hello"});
  ASSERT_EQ(result.output.size(), 1u);
  EXPECT_EQ(result.output[0], (std::pair<std::string, long>{"hello", 2}));
}

TEST(Job, CountersAggregateAcrossTasks) {
  WordCountJob job(test_config(2, 2),
                   [](const std::string& line, Emitter<std::string, long>& emit) {
                     emit.count("lines.seen");
                     emit.emit(line.substr(0, 1), 1);
                   },
                   sum_reducer());
  const auto result = job.run(kLines);
  EXPECT_EQ(result.stats.counters.at("lines.seen"), 6);
}

TEST(Job, ValuesArriveGroupedAndComplete) {
  using GroupJob = Job<int, int, int, std::pair<int, std::vector<int>>>;
  GroupJob job(test_config(2, 3),
               [](const int& record, Emitter<int, int>& emit) {
                 emit.emit(record % 3, record);
               },
               [](const int& key, std::vector<int>& values,
                  std::vector<std::pair<int, std::vector<int>>>& out) {
                 std::sort(values.begin(), values.end());
                 out.emplace_back(key, values);
               });
  std::vector<int> input(12);
  for (int i = 0; i < 12; ++i) input[i] = i;
  const auto result = job.run(input);
  ASSERT_EQ(result.output.size(), 3u);
  for (const auto& [key, values] : result.output) {
    ASSERT_EQ(values.size(), 4u);
    for (const int v : values) EXPECT_EQ(v % 3, key);
  }
}

TEST(Job, FailureInjectionCountsRetriesAndPreservesOutput) {
  auto config = test_config(2, 1);   // 6 map tasks
  config.map_failure_rate = 1.0;     // every task fails...
  config.max_task_attempts = 2;      // ...exactly once (cap leaves 1 retry)
  WordCountJob job(config, word_mapper(), sum_reducer());
  const auto result = job.run(kLines);
  EXPECT_EQ(result.stats.map_retries, 6u);
  EXPECT_EQ(result.stats.max_task_attempts, 2u);
  EXPECT_EQ(to_map(result.output).at("the"), 3);

  auto clean_config = test_config(2, 1);
  WordCountJob clean(clean_config, word_mapper(), sum_reducer());
  const auto baseline = clean.run(kLines);
  // Retried tasks cost more simulated time.
  EXPECT_GT(result.stats.timeline.total_s, baseline.stats.timeline.total_s);
}

TEST(Job, WorkModelsDriveSimulatedTime) {
  auto slow_config = test_config(2, 2);
  WordCountJob slow(slow_config, word_mapper(), sum_reducer());
  slow.with_map_work([](const std::string&) { return 100.0; });
  WordCountJob fast(test_config(2, 2), word_mapper(), sum_reducer());
  fast.with_map_work([](const std::string&) { return 0.001; });
  EXPECT_GT(slow.run(kLines).stats.timeline.total_s,
            fast.run(kLines).stats.timeline.total_s);
}

TEST(Job, MoreNodesReduceSimulatedTime) {
  auto small = test_config(4, 1);
  small.cluster.nodes = 2;
  auto large = test_config(4, 1);
  large.cluster.nodes = 12;
  WordCountJob job_small(small, word_mapper(), sum_reducer());
  WordCountJob job_large(large, word_mapper(), sum_reducer());
  job_small.with_map_work([](const std::string&) { return 50.0; });
  job_large.with_map_work([](const std::string&) { return 50.0; });
  EXPECT_GT(job_small.run(kLines).stats.timeline.total_s,
            job_large.run(kLines).stats.timeline.total_s);
}

TEST(Job, RunSplitsHonorsExplicitLocality) {
  WordCountJob job(test_config(2, 2), word_mapper(), sum_reducer());
  const std::vector<std::vector<std::string>> splits = {{"a b"}, {"c d"}};
  const auto result = job.run_splits(splits, {1, 3});
  EXPECT_EQ(result.stats.map_tasks, 2u);
  EXPECT_EQ(to_map(result.output).size(), 4u);
  EXPECT_THROW(job.run_splits(splits, {1}), common::InvalidArgument);
}

TEST(Job, SplitMapperReadsTheCallersRecords) {
  // Map tasks get views, not copies: each split's span points into the
  // vector handed to run() (or into the caller's split vectors).
  using ViewJob = Job<int, std::size_t, long, std::pair<std::size_t, long>>;
  const std::vector<int> input = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto offset_of = [](const std::vector<int>& records, const int* data) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (&records[i] == data) return static_cast<long>(i);
    }
    return -1L;  // a copy
  };
  const auto reducer = [](const std::size_t& key, std::vector<long>& values,
                          std::vector<std::pair<std::size_t, long>>& out) {
    out.emplace_back(key, values.front());
  };
  ViewJob job(test_config(2, 3),
              [&](std::span<const int> split, std::size_t index,
                  Emitter<std::size_t, long>& emit) {
                emit.emit(index, offset_of(input, split.data()));
              },
              reducer);
  auto result = job.run(input);
  std::sort(result.output.begin(), result.output.end());
  const std::vector<std::pair<std::size_t, long>> expected = {
      {0, 0}, {1, 3}, {2, 6}, {3, 9}};
  EXPECT_EQ(result.output, expected);

  const std::vector<std::vector<int>> splits = {{1, 2}, {3}};
  ViewJob split_job(test_config(2, 3),
                    [&](std::span<const int> split, std::size_t index,
                        Emitter<std::size_t, long>& emit) {
                      emit.emit(index, split.data() == splits[index].data()
                                           ? 1L
                                           : 0L);
                    },
                    reducer);
  auto split_result = split_job.run_splits(splits, {0, 1});
  std::sort(split_result.output.begin(), split_result.output.end());
  const std::vector<std::pair<std::size_t, long>> both = {{0, 1}, {1, 1}};
  EXPECT_EQ(split_result.output, both);
}

TEST(Job, RejectsInvalidConfig) {
  auto config = test_config();
  config.num_reducers = 0;
  EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
               common::InvalidArgument);
  config = test_config();
  config.records_per_split = 0;
  EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
               common::InvalidArgument);
}

TEST(Job, RejectsAClusterWithNoNodeOrSlotBeforeAnyTaskRuns) {
  // A 0-node cluster once reached the split-locality modulo in run() and
  // died of SIGFPE; every ClusterConfig check now runs at construction.
  int mapped = 0;
  const WordCountJob::Mapper counting = [&](const std::string&,
                                            Emitter<std::string, long>&) {
    ++mapped;
  };
  for (int field = 0; field < 6; ++field) {
    auto config = test_config();
    switch (field) {
      case 0: config.cluster.nodes = 0; break;
      case 1: config.cluster.map_slots_per_node = 0; break;
      case 2: config.cluster.reduce_slots_per_node = 0; break;
      case 3: config.cluster.node.cpu_rate = 0.0; break;
      case 4: config.cluster.node.net_bw = 0.0; break;
      default: config.cluster.task_startup_s = -1.0; break;
    }
    EXPECT_THROW(WordCountJob(config, counting, sum_reducer()).run(kLines),
                 common::InvalidArgument)
        << "field " << field;
    EXPECT_THROW(SimScheduler{config.cluster}, common::InvalidArgument)
        << "field " << field;
  }
  EXPECT_EQ(mapped, 0);
}

TEST(Job, RejectsZeroAttemptBudget) {
  auto config = test_config();
  config.max_task_attempts = 0;  // would mean no attempt ever runs
  EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
               common::InvalidArgument);
}

TEST(Job, RejectsOutOfRangeInjectionRates) {
  for (const double bad : {-0.1, 1.5}) {
    auto config = test_config();
    config.map_failure_rate = bad;
    EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
                 common::InvalidArgument)
        << "map_failure_rate=" << bad;
    config = test_config();
    config.reduce_failure_rate = bad;
    EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
                 common::InvalidArgument)
        << "reduce_failure_rate=" << bad;
    config = test_config();
    config.straggler_rate = bad;
    EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
                 common::InvalidArgument)
        << "straggler_rate=" << bad;
  }
  auto config = test_config();
  config.straggler_slowdown = 0.0;
  EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
               common::InvalidArgument);
}

TEST(Job, RejectsAFaultPlanTheClusterCannotSurvive) {
  auto config = test_config();  // 4 nodes
  // Names a node outside the cluster.
  config.fault_plan = faults::FaultPlan({{7, 10.0, faults::kNever}});
  EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
               common::InvalidArgument);
  // Permanently kills every node: no job could ever finish.
  config = test_config();
  config.cluster.nodes = 2;
  config.fault_plan = faults::FaultPlan(
      {{0, 10.0, faults::kNever}, {1, 20.0, faults::kNever}});
  EXPECT_THROW(WordCountJob(config, word_mapper(), sum_reducer()),
               common::InvalidArgument);
  // A survivable plan passes construction.
  config = test_config();
  config.fault_plan = faults::FaultPlan({{1, 10.0, faults::kNever}});
  EXPECT_NO_THROW(WordCountJob(config, word_mapper(), sum_reducer()));
}

TEST(Job, EmptyInputStillSimulatesAValidTimeline) {
  WordCountJob job(test_config(), word_mapper(), sum_reducer());
  const auto result = job.run({});
  // run() synthesizes one empty split so the job still flows through every
  // phase: one (trivial) map task, the configured reducers, startup cost.
  EXPECT_EQ(result.stats.map_tasks, 1u);
  EXPECT_EQ(result.stats.reduce_tasks, 3u);
  EXPECT_EQ(result.stats.reduce_groups, 0u);
  EXPECT_DOUBLE_EQ(result.stats.shuffle_bytes, 0.0);
  EXPECT_GT(result.stats.timeline.total_s, 0.0);
  EXPECT_DOUBLE_EQ(result.stats.timeline.shuffle_s, 0.0);
  EXPECT_EQ(result.stats.timeline.map_phase.tasks.size(), 1u);
  const std::string summary = result.stats.timeline.summary();
  EXPECT_NE(summary.find("total="), std::string::npos);
}

TEST(Job, ContextReducerCountersMergeIntoStats) {
  WordCountJob job(
      test_config(3, 2), word_mapper(),
      [](const std::string& word, std::vector<long>& counts,
         std::vector<std::pair<std::string, long>>& out, ReduceContext& ctx) {
        long total = 0;
        for (const long c : counts) total += c;
        out.emplace_back(word, total);
        ctx.count("groups.reduced");
        if (total >= 3) ctx.count("groups.heavy");
      });
  const auto result = job.run(kLines);
  // Counters from all 3 reduce tasks merge; map-side counters still work too.
  EXPECT_EQ(result.stats.counters.at("groups.reduced"), 7);
  EXPECT_EQ(result.stats.counters.at("groups.heavy"), 4);  // the/lazy/brown/fox
  EXPECT_EQ(to_map(result.output).at("the"), 3);
}

TEST(Job, ContextReducerMatchesPlainReducerOutput) {
  WordCountJob plain(test_config(2, 2), word_mapper(), sum_reducer());
  WordCountJob with_context(
      test_config(2, 2), word_mapper(),
      [](const std::string& word, std::vector<long>& counts,
         std::vector<std::pair<std::string, long>>& out, ReduceContext&) {
        long total = 0;
        for (const long c : counts) total += c;
        out.emplace_back(word, total);
      });
  EXPECT_EQ(plain.run(kLines).output, with_context.run(kLines).output);
}

TEST(Job, InjectedStragglersTriggerSpeculation) {
  // Straggler injection is a per-task seeded coin flip; scan a few seeds for
  // one where a minority of the 6 map tasks straggles (so the phase median
  // stays normal and speculation kicks in).  The scan is deterministic.
  auto config = test_config(2, 1);  // 6 map tasks
  config.straggler_rate = 0.3;
  config.straggler_slowdown = 50.0;
  config.cluster.speculative_execution = true;
  JobStats speculated_stats;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    config.seed = seed;
    WordCountJob job(config, word_mapper(), sum_reducer());
    job.with_map_work([](const std::string&) { return 5.0; });
    const auto result = job.run(kLines);
    if (result.stats.timeline.map_phase.speculated_tasks > 0) {
      speculated_stats = result.stats;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..32 produced a rescued straggler";

  // The same stragglers without backup copies finish strictly later.
  config.cluster.speculative_execution = false;
  WordCountJob no_backup(config, word_mapper(), sum_reducer());
  no_backup.with_map_work([](const std::string&) { return 5.0; });
  const auto slow = no_backup.run(kLines);
  EXPECT_EQ(slow.stats.timeline.map_phase.speculated_tasks, 0u);
  EXPECT_LT(speculated_stats.timeline.map_phase.makespan_s,
            slow.stats.timeline.map_phase.makespan_s);
}

// ------------------------------------------------------------- approx_bytes

TEST(ApproxBytes, ScalarsAndStrings) {
  EXPECT_DOUBLE_EQ(approx_bytes(42), 4.0);
  EXPECT_DOUBLE_EQ(approx_bytes(42L), 8.0);
  EXPECT_DOUBLE_EQ(approx_bytes(std::string("abcd")), 12.0);
}

TEST(ApproxBytes, PairsAndVectorsRecurse) {
  EXPECT_DOUBLE_EQ(approx_bytes(std::pair<int, long>{1, 2}), 12.0);
  EXPECT_DOUBLE_EQ(approx_bytes(std::vector<long>{1, 2, 3}), 8.0 + 24.0);
  const std::vector<std::string> words{"ab", "c"};
  EXPECT_DOUBLE_EQ(approx_bytes(words), 8.0 + 10.0 + 9.0);
}

TEST(StragglerInjection, SlowsSimulatedTimeOnly) {
  using IdJob = Job<int, int, int, std::pair<int, int>>;
  std::vector<int> input(64);
  std::iota(input.begin(), input.end(), 0);

  auto make_config = [](double rate) {
    JobConfig config;
    config.records_per_split = 4;
    config.straggler_rate = rate;
    config.seed = 9;
    return config;
  };
  auto mapper = [](const int& record, Emitter<int, int>& emit) {
    emit.emit(record % 4, record);
  };
  auto reducer = [](const int& key, std::vector<int>& values,
                    std::vector<std::pair<int, int>>& out) {
    out.emplace_back(key, static_cast<int>(values.size()));
  };

  IdJob fast(make_config(0.0), mapper, reducer);
  fast.with_map_work([](const int&) { return 0.5; });
  IdJob slow(make_config(0.5), mapper, reducer);
  slow.with_map_work([](const int&) { return 0.5; });

  const auto fast_result = fast.run(input);
  const auto slow_result = slow.run(input);
  EXPECT_EQ(fast_result.output, slow_result.output);  // results unchanged
  EXPECT_GT(slow_result.stats.timeline.total_s,
            fast_result.stats.timeline.total_s);
}

}  // namespace
}  // namespace mrmc::mr
