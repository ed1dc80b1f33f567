#include "pig/pig.hpp"

#include <algorithm>
#include <sstream>

#include "bio/fasta.hpp"
#include "common/error.hpp"
#include "mr/bytes.hpp"
#include "mr/recovery.hpp"
#include "obs/log.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

namespace mrmc::pig {

namespace {

/// Room for FLATTEN fan-out per input tuple in the composite ordering key.
constexpr long kFlattenStride = 1L << 20;

struct IndexedTuple {
  long index = 0;
  Tuple tuple;
};

}  // namespace

std::string to_text(const Tuple& tuple) {
  std::ostringstream out;
  for (std::size_t f = 0; f < tuple.fields.size(); ++f) {
    if (f > 0) out << '\t';
    const Value& value = tuple.fields[f];
    if (const auto* s = std::get_if<std::string>(&value)) {
      out << *s;
    } else if (const auto* l = std::get_if<long>(&value)) {
      out << *l;
    } else if (const auto* d = std::get_if<double>(&value)) {
      out << *d;
    } else if (const auto* ll = std::get_if<std::vector<long>>(&value)) {
      for (std::size_t i = 0; i < ll->size(); ++i) {
        if (i > 0) out << ',';
        out << (*ll)[i];
      }
    } else if (const auto* dl = std::get_if<std::vector<double>>(&value)) {
      for (std::size_t i = 0; i < dl->size(); ++i) {
        if (i > 0) out << ',';
        out << (*dl)[i];
      }
    } else if (const auto* bag = std::get_if<Bag>(&value)) {
      out << "{bag:" << bag->size() << "}";
    }
  }
  return out.str();
}

PigContext::PigContext(mr::SimDfs* dfs, mr::ClusterConfig cluster,
                       std::size_t threads)
    : dfs_(dfs), cluster_(cluster), lease_(threads, false) {
  MRMC_REQUIRE(dfs != nullptr, "PigContext needs a DFS");
}

mr::JobConfig PigContext::make_config(const std::string& name,
                                      std::size_t reducers) {
  mr::JobConfig config;
  config.name = name;
  config.num_reducers = reducers;
  config.records_per_split = 512;
  config.pool = &lease_.pool();
  config.cluster = cluster_;
  return config;
}

Relation PigContext::load_fasta(const std::string& path) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig LOAD", {{"path", path}});
  const auto records = bio::read_fasta_string(dfs_->read(path));
  Relation relation;
  relation.reserve(records.size());
  for (const auto& record : records) {
    Tuple tuple;
    tuple.fields.emplace_back(record.seq);
    tuple.fields.emplace_back(record.id);
    relation.push_back(std::move(tuple));
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
  ForeachJob job(
      make_config(std::string("foreach-") + udf.name(),
                  std::max<std::size_t>(1, cluster_.reduce_slots())),
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
      });

  std::vector<IndexedTuple> indexed;
  indexed.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    indexed.push_back({static_cast<long>(i), input[i]});
  }
  auto result = job.run(indexed);
  sim_time_s_ += result.stats.timeline.total_s;
  jobs_.push_back(std::move(result.stats));

  std::sort(result.output.begin(), result.output.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Relation relation;
  relation.reserve(result.output.size());
  for (auto& [key, tuple] : result.output) relation.push_back(std::move(tuple));
  return relation;
}

Relation PigContext::group_all(const Relation& input) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig GROUP ALL",
                         {{"tuples", std::to_string(input.size())}});
  obs::pipeline::StageScope stage("group-all");
  using GroupJob =
      mr::Job<IndexedTuple, int, std::pair<long, Tuple>, Tuple>;

  GroupJob job(
      make_config("group-all", 1),
      [](const IndexedTuple& record, mr::Emitter<int, std::pair<long, Tuple>>& emit) {
        emit.emit(0, {record.index, record.tuple});
      },
      [](const int&, std::vector<std::pair<long, Tuple>>& values,
         std::vector<Tuple>& out) {
        std::sort(values.begin(), values.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        Bag bag;
        bag.reserve(values.size());
        for (auto& [index, tuple] : values) bag.push_back(std::move(tuple));
        Tuple group;
        group.fields.emplace_back(std::move(bag));
        out.push_back(std::move(group));
      });

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

namespace {

/// Grouping key for GROUP BY: string and long fields grouped by value,
/// doubles by exact value; other field types are rejected.
std::string group_key(const Tuple& tuple, std::size_t field) {
  MRMC_REQUIRE(field < tuple.fields.size(), "group field out of range");
  const Value& value = tuple.fields[field];
  if (const auto* s = std::get_if<std::string>(&value)) return "s:" + *s;
  if (const auto* l = std::get_if<long>(&value)) {
    return "l:" + std::to_string(*l);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return "d:" + std::to_string(*d);
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

  GroupByJob job(
      make_config("group-by", std::max<std::size_t>(1, cluster_.reduce_slots())),
      [field](const IndexedTuple& record,
              mr::Emitter<std::string, std::pair<long, Tuple>>& emit) {
        emit.emit(group_key(record.tuple, field), {record.index, record.tuple});
      },
      [field](const std::string&, std::vector<std::pair<long, Tuple>>& values,
              std::vector<Tuple>& out) {
        std::sort(values.begin(), values.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        Tuple group;
        group.fields.push_back(values.front().second.fields.at(field));
        Bag bag;
        bag.reserve(values.size());
        for (auto& [index, tuple] : values) bag.push_back(std::move(tuple));
        group.fields.emplace_back(std::move(bag));
        out.push_back(std::move(group));
      });

  std::vector<IndexedTuple> indexed;
  indexed.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    indexed.push_back({static_cast<long>(i), input[i]});
  }
  auto result = job.run(indexed);
  sim_time_s_ += result.stats.timeline.total_s;
  jobs_.push_back(std::move(result.stats));

  // Reducer partitions emit in partition order; normalize by key for
  // deterministic output.
  std::sort(result.output.begin(), result.output.end(),
            [field](const Tuple& a, const Tuple& b) {
              return group_key(a, 0) < group_key(b, 0);
            });
  return std::move(result.output);
}

void PigContext::store(const Relation& relation, const std::string& path) {
  obs::Tracer::Span span(obs::Tracer::global(), "pig STORE", {{"path", path}});
  std::ostringstream out;
  for (const Tuple& tuple : relation) out << to_text(tuple) << '\n';
  dfs_->write(path, out.str());
}

namespace {

// -------------------------------------------- checkpoint (de)serialization
// Relations as mr::recovery checkpoint payloads.  Values round-trip through
// their variant index, recursively for bags, so a decoded relation is
// field-for-field identical to the encoded one (doubles as raw IEEE bits).

void encode_value(mr::recovery::PayloadWriter& writer, const Value& value);
Value decode_value(mr::recovery::PayloadReader& reader);

/// A claimed element count whose elements take at least `min_bytes` each:
/// one the rest of the payload cannot hold is a corrupt checkpoint (a miss
/// and a recompute), never an allocation of the claimed size.
std::size_t decode_count(mr::recovery::PayloadReader& reader,
                         std::size_t min_bytes) {
  const std::uint64_t count = reader.u64();
  MRMC_CHECK(count <= reader.remaining() / min_bytes,
             "pig checkpoint count larger than its payload");
  return count;
}

void encode_tuple(mr::recovery::PayloadWriter& writer, const Tuple& tuple) {
  writer.u64(tuple.fields.size());
  for (const Value& value : tuple.fields) encode_value(writer, value);
}

Tuple decode_tuple(mr::recovery::PayloadReader& reader) {
  Tuple tuple;
  tuple.fields.resize(decode_count(reader, 12));  // u32 tag + 8 bytes each
  for (Value& value : tuple.fields) value = decode_value(reader);
  return tuple;
}

void encode_value(mr::recovery::PayloadWriter& writer, const Value& value) {
  writer.u32(static_cast<std::uint32_t>(value.index()));
  std::visit(
      [&writer](const auto& field) {
        using T = std::decay_t<decltype(field)>;
        if constexpr (std::is_same_v<T, std::string>) {
          writer.str(field);
        } else if constexpr (std::is_same_v<T, long>) {
          writer.i64(field);
        } else if constexpr (std::is_same_v<T, double>) {
          writer.f64(field);
        } else if constexpr (std::is_same_v<T, std::vector<long>>) {
          writer.u64(field.size());
          for (const long element : field) writer.i64(element);
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          writer.u64(field.size());
          for (const double element : field) writer.f64(element);
        } else {  // Bag
          writer.u64(field.size());
          for (const Tuple& element : field) encode_tuple(writer, element);
        }
      },
      value);
}

Value decode_value(mr::recovery::PayloadReader& reader) {
  switch (reader.u32()) {
    case 0: return Value(reader.str());
    case 1: return Value(static_cast<long>(reader.i64()));
    case 2: return Value(reader.f64());
    case 3: {
      std::vector<long> list(decode_count(reader, 8));
      for (long& element : list) element = static_cast<long>(reader.i64());
      return Value(std::move(list));
    }
    case 4: {
      std::vector<double> list(decode_count(reader, 8));
      for (double& element : list) element = reader.f64();
      return Value(std::move(list));
    }
    case 5: {
      Bag bag(decode_count(reader, 8));  // a tuple is at least its count
      for (Tuple& element : bag) element = decode_tuple(reader);
      return Value(std::move(bag));
    }
    default:
      throw common::Error("pig checkpoint: unknown value tag");
  }
}

void encode_relation(mr::recovery::PayloadWriter& writer,
                     const Relation& relation) {
  writer.u64(relation.size());
  for (const Tuple& tuple : relation) encode_tuple(writer, tuple);
}

Relation decode_relation(mr::recovery::PayloadReader& reader) {
  Relation relation(decode_count(reader, 8));
  for (Tuple& tuple : relation) tuple = decode_tuple(reader);
  return relation;
}

std::uint64_t algorithm3_params_fingerprint(const Algorithm3Params& params) {
  mr::StableHasher hasher;
  mr::stable_hash_append(hasher, params.kmer);
  mr::stable_hash_append(hasher, params.num_hashes);
  mr::stable_hash_append(hasher, params.seed);
  mr::stable_hash_append(hasher, params.cutoff);
  mr::stable_hash_append(hasher, static_cast<int>(params.linkage));
  mr::stable_hash_append(hasher, static_cast<int>(params.estimator));
  mr::stable_hash_append(hasher, static_cast<int>(params.greedy_estimator));
  return hasher.finish();
}

std::uint64_t relation_fingerprint(const Relation& relation) {
  mr::StableHasher hasher;
  mr::stable_hash_append(hasher, static_cast<std::uint64_t>(relation.size()));
  for (const Tuple& tuple : relation) {
    mr::stable_hash_append(hasher, to_text(tuple));
  }
  return hasher.finish();
}

}  // namespace

Algorithm3Result run_algorithm3(mr::SimDfs& dfs, const std::string& input_path,
                                const std::string& out_hier,
                                const std::string& out_greedy,
                                const Algorithm3Params& params,
                                const mr::ClusterConfig& cluster,
                                std::size_t threads) {
  obs::Tracer::Span script_span(obs::Tracer::global(), "pig script algorithm3",
                                {{"input", input_path}});
  obs::pipeline::PipelineScope lineage("algorithm3");
  PigContext ctx(&dfs, cluster, threads);

  // Step 1: A = LOAD '$INPUT' USING FastaStorage ...  Never checkpointed:
  // LOAD is a local parse (no MR job) and its bytes feed the input
  // fingerprint, so a changed input invalidates every downstream stage.
  const Relation a = ctx.load_fasta(input_path);

  // Recovery driver, configured purely from the environment so the signature
  // stays stable: MRMC_CHECKPOINT_DIR arms checkpointing, and the chaos
  // hooks (MRMC_CRASH_AFTER_STAGE / MRMC_FAIL_STAGE) work here exactly as in
  // core::run_pipeline.  Stage names mirror the lineage stage each operator
  // claims, so a checkpoint hit re-claims the identical (stage, sequence)
  // slot an uninterrupted run would; with sequence numbers in both the key
  // chain and the file name, the twice-run "group-all" cannot collide.
  mr::recovery::StageDriver::Options driver_options;
  driver_options.label = "algorithm3";
  driver_options =
      mr::recovery::StageDriver::Options::from_env(driver_options);
  if (!driver_options.checkpoint_dir.empty()) {
    driver_options.params_fingerprint = algorithm3_params_fingerprint(params);
    driver_options.input_fingerprint = relation_fingerprint(a);
  }
  mr::recovery::StageDriver driver(driver_options);

  // Steps 2-9 run inside the try: a throwing stage still leaves this run's
  // trace, metrics and reports behind, as core::run_pipeline does.
  Relation k;
  Relation l;
  try {
    const auto stage = [&driver](const char* name, auto compute) {
      return driver.run_stage(name, std::move(compute), encode_relation,
                              decode_relation);
    };

    // Step 2: B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid))
    const Relation b = stage("foreach-StringGenerator", [&] {
      return ctx.foreach_generate(a, StringGenerator{});
    });
    // Step 3: C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, id, $KMER))
    const Relation c = stage("foreach-TranslateToKmer", [&] {
      return ctx.foreach_generate(b, TranslateToKmer{params.kmer});
    });
    // Step 4: E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(...))
    const Relation e = stage("foreach-CalculateMinwiseHash", [&] {
      return ctx.foreach_generate(
          c, CalculateMinwiseHash{params.num_hashes, params.kmer, params.seed});
    });
    // Step 6: I = GROUP E ALL
    const Relation grouped =
        stage("group-all", [&] { return ctx.group_all(e); });
    // Step 7: J = FOREACH I GENERATE FLATTEN(CalculatePairwiseSimilarity(...))
    const Relation j = stage("foreach-CalculatePairwiseSimilarity", [&] {
      return ctx.foreach_generate(grouped,
                                  CalculatePairwiseSimilarity{params.estimator});
    });
    // Step 8: K = FOREACH (GROUP J ALL) GENERATE
    //             FLATTEN(AgglomerativeHierarchicalClustering(...))
    // Two driver stages (the script runs two jobs) so a resumed run claims
    // the same number of lineage slots as an uninterrupted one.
    const Relation grouped_j =
        stage("group-all", [&] { return ctx.group_all(j); });
    k = stage("foreach-AgglomerativeHierarchicalClustering", [&] {
      return ctx.foreach_generate(
          grouped_j,
          AgglomerativeHierarchicalClustering{params.linkage, params.cutoff});
    });
    // Step 9: L = FOREACH I GENERATE FLATTEN(GreedyClustering(...))
    l = stage("foreach-GreedyClustering", [&] {
      return ctx.foreach_generate(
          grouped, GreedyClustering{params.cutoff, params.greedy_estimator});
    });
  } catch (...) {
    obs::pipeline::write_configured_artifacts();
    throw;
  }
  // Steps 10-11: STORE K INTO '$OUTPUT1'; STORE L INTO '$OUTPUT2'.  Stores
  // always run — re-materializing output from checkpoints is the point of a
  // resume.
  ctx.store(k, out_hier);
  ctx.store(l, out_greedy);

  Algorithm3Result result;
  result.sim_time_s = ctx.sim_time_s();
  result.jobs_run = ctx.job_history().size();
  result.recovery = driver.stats();
  for (const Tuple& tuple : k) {
    result.hierarchical.emplace_back(tuple.get<std::string>(0),
                                     static_cast<int>(tuple.get<long>(1)));
  }
  for (const Tuple& tuple : l) {
    result.greedy.emplace_back(tuple.get<std::string>(0),
                               static_cast<int>(tuple.get<long>(1)));
  }

  static const obs::Logger logger("pig");
  logger.info("algorithm3 finished", {{"jobs", result.jobs_run},
                                      {"sim_time_s", result.sim_time_s},
                                      {"hier_tuples", result.hierarchical.size()},
                                      {"greedy_tuples", result.greedy.size()}});
  obs::pipeline::write_configured_artifacts();
  return result;
}

}  // namespace mrmc::pig
