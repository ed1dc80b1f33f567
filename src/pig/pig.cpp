#include "pig/pig.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <sstream>

#include "bio/fasta.hpp"
#include "common/error.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"
#include "pig/script.hpp"

namespace mrmc::pig {

namespace {

/// Room for FLATTEN fan-out per input tuple in the composite ordering key.
constexpr long kFlattenStride = 1L << 20;

struct IndexedTuple {
  long index = 0;
  Tuple tuple;
};

/// A GROUP reducer's (input index, tuple) values as a bag in input order.
Bag bag_in_input_order(std::vector<std::pair<long, Tuple>>& values) {
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Bag bag;
  bag.reserve(values.size());
  for (auto& [index, tuple] : values) bag.push_back(std::move(tuple));
  return bag;
}

}  // namespace

bool value_less(const Value& a, const Value& b) {
  if (a.index() != b.index()) return a.index() < b.index();
  if (const auto* s = std::get_if<std::string>(&a)) {
    return *s < std::get<std::string>(b);
  }
  if (const auto* l = std::get_if<long>(&a)) return *l < std::get<long>(b);
  if (const auto* d = std::get_if<double>(&a)) {
    const double e = std::get<double>(b);
    return !std::isnan(*d) && (std::isnan(e) || *d < e);
  }
  return false;  // lists and bags keep their order
}

std::string to_text(const Tuple& tuple) {
  std::ostringstream out;
  for (std::size_t f = 0; f < tuple.fields.size(); ++f) {
    if (f > 0) out << '\t';
    std::visit(
        [&out](const auto& field) {
          using T = std::decay_t<decltype(field)>;
          if constexpr (std::is_same_v<T, Bag>) {
            out << "{bag:" << field.size() << "}";
          } else if constexpr (std::is_same_v<T, std::vector<long>> ||
                               std::is_same_v<T, std::vector<double>>) {
            for (std::size_t i = 0; i < field.size(); ++i) {
              out << (i > 0 ? "," : "") << field[i];
            }
          } else {
            out << field;
          }
        },
        tuple.fields[f]);
  }
  return out.str();
}

PigContext::PigContext(mr::SimDfs* dfs, mr::ClusterConfig cluster,
                       std::size_t threads)
    : dfs_(dfs), cluster_(cluster), lease_(threads, false) {
  MRMC_REQUIRE(dfs != nullptr, "PigContext needs a DFS");
}

template <typename Job, typename Map, typename Reduce>
auto PigContext::run_job(const std::string& name, std::size_t reducers,
                         Map map, Reduce reduce, const Relation& input) {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers = reducers;
  config.records_per_split = 512;
  config.pool = &lease_.pool();
  config.cluster = cluster_;
  Job job(std::move(config), std::move(map), std::move(reduce));
  std::vector<IndexedTuple> indexed;
  indexed.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    indexed.push_back({static_cast<long>(i), input[i]});
  }
  auto result = job.run(indexed);
  sim_time_s_ += result.stats.timeline.total_s;
  jobs_.push_back(std::move(result.stats));
  return std::move(result.output);
}

Relation PigContext::load_fasta(const std::string& path) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig LOAD", {{"path", path}});
  const auto records = bio::read_fasta_string(dfs_->read(path));
  Relation relation;
  relation.reserve(records.size());
  for (const auto& record : records) {
    relation.push_back(Tuple({record.seq, record.id}));
  }
  return relation;
}

Relation PigContext::foreach_generate(const Relation& input, const Udf& udf) {
  obs::Tracer::Span span(obs::Tracer::global(),
                         std::string("pig FOREACH..GENERATE ") + udf.name(),
                         {{"tuples", std::to_string(input.size())}});
  obs::pipeline::StageScope stage(std::string("foreach-") + udf.name());
  using ForeachJob = mr::Job<IndexedTuple, long, Tuple, std::pair<long, Tuple>>;

  const Udf* udf_ptr = &udf;
  auto output = run_job<ForeachJob>(
      std::string("foreach-") + udf.name(),
      std::max<std::size_t>(1, cluster_.reduce_slots()),
      [udf_ptr](const IndexedTuple& record, mr::Emitter<long, Tuple>& emit) {
        Bag outputs = udf_ptr->exec(record.tuple);
        MRMC_CHECK(outputs.size() < static_cast<std::size_t>(kFlattenStride),
                   "FLATTEN fan-out exceeds ordering key stride");
        long sub = 0;
        for (Tuple& out : outputs) {
          emit.emit(record.index * kFlattenStride + sub++, std::move(out));
        }
      },
      [](const long& key, std::vector<Tuple>& values,
         std::vector<std::pair<long, Tuple>>& out) {
        MRMC_CHECK(values.size() == 1, "ordering keys are unique");
        out.emplace_back(key, std::move(values.front()));
      },
      input);
  std::sort(output.begin(), output.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Relation relation;
  relation.reserve(output.size());
  for (auto& [key, tuple] : output) relation.push_back(std::move(tuple));
  return relation;
}

Relation PigContext::group_all(const Relation& input) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig GROUP ALL",
                         {{"tuples", std::to_string(input.size())}});
  obs::pipeline::StageScope stage("group-all");
  using GroupJob =
      mr::Job<IndexedTuple, int, std::pair<long, Tuple>, Tuple>;

  return run_job<GroupJob>(
      "group-all", 1,
      [](const IndexedTuple& record, mr::Emitter<int, std::pair<long, Tuple>>& emit) {
        emit.emit(0, {record.index, record.tuple});
      },
      [](const int&, std::vector<std::pair<long, Tuple>>& values,
         std::vector<Tuple>& out) {
        out.push_back(Tuple({bag_in_input_order(values)}));
      },
      input);
}

namespace {

/// Shuffle key for GROUP BY: string and long fields grouped by value,
/// doubles by exact value (their bits; -0 + 0.0 is +0, and every NaN is
/// one group); other field types are rejected.
std::string group_key(const Tuple& tuple, std::size_t field) {
  MRMC_REQUIRE(field < tuple.fields.size(), "group field out of range");
  const Value& value = tuple.fields[field];
  if (const auto* s = std::get_if<std::string>(&value)) return "s:" + *s;
  if (const auto* l = std::get_if<long>(&value)) {
    return "l:" + std::to_string(*l);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    if (std::isnan(*d)) return "d:nan";
    return "d:" + std::to_string(std::bit_cast<std::uint64_t>(*d + 0.0));
  }
  throw common::InvalidArgument("GROUP BY supports atom fields only");
}

}  // namespace

Relation PigContext::group_by(const Relation& input, std::size_t field) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig GROUP BY",
                         {{"tuples", std::to_string(input.size())},
                          {"field", std::to_string(field)}});
  obs::pipeline::StageScope stage("group-by");
  using GroupByJob =
      mr::Job<IndexedTuple, std::string, std::pair<long, Tuple>, Tuple>;

  Relation grouped = run_job<GroupByJob>(
      "group-by", std::max<std::size_t>(1, cluster_.reduce_slots()),
      [field](const IndexedTuple& record,
              mr::Emitter<std::string, std::pair<long, Tuple>>& emit) {
        emit.emit(group_key(record.tuple, field), {record.index, record.tuple});
      },
      [field](const std::string&, std::vector<std::pair<long, Tuple>>& values,
              std::vector<Tuple>& out) {
        Bag bag = bag_in_input_order(values);
        Value key = bag.front().fields.at(field);
        out.push_back(Tuple({std::move(key), std::move(bag)}));
      },
      input);
  // Reducer partitions emit in partition order; normalize by key for
  // deterministic output.
  std::sort(grouped.begin(), grouped.end(), [](const Tuple& a, const Tuple& b) {
    return value_less(a.fields[0], b.fields[0]);
  });
  return grouped;
}

void PigContext::store(const Relation& relation, const std::string& path) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig STORE", {{"path", path}});
  std::ostringstream out;
  for (const Tuple& tuple : relation) out << to_text(tuple) << '\n';
  dfs_->write(path, out.str());
}

Algorithm3Result run_algorithm3(mr::SimDfs& dfs, const std::string& input_path,
                                const std::string& out_hier,
                                const std::string& out_greedy,
                                const Algorithm3Params& params,
                                const mr::ClusterConfig& cluster,
                                std::size_t threads) {
  // Shortest round-trip form: the script's number parser reads back the
  // same double.
  char cutoff[32];
  const auto cutoff_end =
      std::to_chars(cutoff, cutoff + sizeof(cutoff), params.cutoff).ptr;
  PigContext context(&dfs, cluster, threads);
  const ScriptResult script = run_script(
      context, algorithm3_script(),
      {{"INPUT", input_path},
       {"KMER", std::to_string(params.kmer)},
       {"NUMHASH", std::to_string(params.num_hashes)},
       {"DIV", "0"},
       {"LINK", core::linkage_name(params.linkage)},
       {"CUTOFF", std::string(cutoff, cutoff_end)},
       {"OUTPUT1", out_hier},
       {"OUTPUT2", out_greedy}},
      params.seed);

  const auto labels = [&script](const char* alias) {
    std::vector<std::pair<std::string, int>> labeled;
    for (const Tuple& tuple : script.relations.at(alias)) {
      labeled.emplace_back(tuple.get<std::string>(0),
                           static_cast<int>(tuple.get<long>(1)));
    }
    return labeled;
  };
  Algorithm3Result result;
  result.hierarchical = labels("K");
  result.greedy = labels("L");
  result.sim_time_s = script.sim_time_s;
  result.jobs_run = script.jobs_run;
  result.recovery = script.recovery;
  return result;
}

}  // namespace mrmc::pig
