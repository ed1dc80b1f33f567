#include "pig/script.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <sstream>

#include "bio/kmer.hpp"
#include "common/error.hpp"
#include "mr/bytes.hpp"
#include "mr/recovery.hpp"
#include "obs/log.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

namespace mrmc::pig {

namespace {

[[noreturn]] void syntax_error(std::size_t line, const std::string& message) {
  throw common::InvalidArgument("pig script line " + std::to_string(line) +
                                ": " + message);
}

std::string trim(std::string_view text) {
  std::size_t begin = 0, end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::string upper(std::string text) {
  for (char& c : text) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return text;
}

/// `token` as a number when all of it is one (std::from_chars grammar).
std::optional<double> to_number(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// Whether `value` is a whole number in [lo, hi).
bool whole_in(double value, double lo, double hi) {
  return value >= lo && value < hi && value == std::floor(value);
}

double number_token(const std::string& token, std::size_t line,
                    const char* what) {
  if (const auto value = to_number(token)) return *value;
  syntax_error(line,
               std::string(what) + " needs a number, got '" + token + "'");
}

/// The field index of a "$<digits>" token.
std::size_t field_token(const std::string& token, std::size_t line) {
  std::size_t field = 0;
  const char* end = token.data() + token.size();
  if (token.size() < 2 || token[0] != '$' ||
      std::from_chars(token.data() + 1, end, field) !=
          std::from_chars_result{end, std::errc()}) {
    syntax_error(line, "expected a field reference $<n>, got '" + token + "'");
  }
  return field;
}

/// A UDF argument that configures the UDF rather than naming a field.
bool numeric_arg(const std::string& arg) {
  return std::isdigit(static_cast<unsigned char>(arg.front())) ||
         arg.front() == '.' || arg.front() == '-';
}

/// Split a statement into whitespace tokens, keeping quoted strings and
/// parenthesized argument lists intact.
std::vector<std::string> tokenize(const std::string& text, std::size_t line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '\'') {
      const auto end = text.find('\'', i + 1);
      if (end == std::string::npos) syntax_error(line, "unterminated string");
      tokens.push_back(text.substr(i, end - i + 1));
      i = end + 1;
      continue;
    }
    if (c == '(') {
      int depth = 0;
      std::size_t j = i;
      for (; j < text.size(); ++j) {
        if (text[j] == '(') ++depth;
        if (text[j] == ')' && --depth == 0) break;
      }
      if (depth != 0) syntax_error(line, "unbalanced parentheses");
      tokens.push_back(text.substr(i, j - i + 1));
      i = j + 1;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && !std::isspace(static_cast<unsigned char>(text[j])) &&
           text[j] != '(' && text[j] != '\'') {
      ++j;
    }
    tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

std::string unquote(const std::string& token, std::size_t line) {
  if (token.size() < 2 || token.front() != '\'' || token.back() != '\'') {
    syntax_error(line, "expected quoted path, got '" + token + "'");
  }
  return token.substr(1, token.size() - 2);
}

/// Parse "FLATTEN(Udf(a, b, c))" or "Udf(a, b, c)".
void parse_udf_call(std::string call, Statement& statement, std::size_t line) {
  call = trim(call);
  if (upper(call).rfind("FLATTEN", 0) == 0) {
    const auto open = call.find('(');
    const auto close = call.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      syntax_error(line, "malformed FLATTEN");
    }
    call = trim(call.substr(open + 1, close - open - 1));
  }
  const auto open = call.find('(');
  const auto close = call.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    syntax_error(line, "expected Udf(args)");
  }
  statement.udf_name = trim(call.substr(0, open));
  std::istringstream args(call.substr(open + 1, close - open - 1));
  std::string arg;
  while (std::getline(args, arg, ',')) {
    statement.udf_args.push_back(trim(arg));
    const std::string& added = statement.udf_args.back();
    if (!added.empty() && numeric_arg(added)) {
      (void)number_token(added, line, statement.udf_name.c_str());
    }
  }
}

Statement parse_statement(const std::string& text, std::size_t line) {
  Statement statement;
  const auto tokens = tokenize(text, line);
  MRMC_CHECK(!tokens.empty(), "tokenizer returned nothing");

  if (upper(tokens[0]) == "STORE") {
    // STORE <rel> INTO '<path>'
    if (tokens.size() < 4 || upper(tokens[2]) != "INTO") {
      syntax_error(line, "expected STORE <rel> INTO '<path>'");
    }
    statement.kind = Statement::Kind::kStore;
    statement.source = tokens[1];
    statement.udf_name = unquote(tokens[3], line);  // reuse: path
    return statement;
  }

  // <alias> = <OP> ...
  if (tokens.size() < 3 || tokens[1] != "=") {
    syntax_error(line, "expected '<alias> = <operator> ...'");
  }
  statement.target = tokens[0];
  const std::string op = upper(tokens[2]);

  if (op == "LOAD") {
    statement.kind = Statement::Kind::kLoad;
    if (tokens.size() < 4) syntax_error(line, "LOAD needs a path");
    statement.source = unquote(tokens[3], line);
    return statement;
  }
  if (op == "GROUP") {
    if (tokens.size() >= 6 && upper(tokens[4]) == "BY") {
      statement.kind = Statement::Kind::kGroupBy;
      statement.source = tokens[3];
      statement.field = field_token(tokens[5], line);
      return statement;
    }
    if (tokens.size() < 5 || upper(tokens[4]) != "ALL") {
      syntax_error(line, "expected GROUP <rel> ALL or GROUP <rel> BY $<field>");
    }
    statement.kind = Statement::Kind::kGroupAll;
    statement.source = tokens[3];
    return statement;
  }
  if (op == "DISTINCT") {
    statement.kind = Statement::Kind::kDistinct;
    if (tokens.size() < 4) syntax_error(line, "DISTINCT needs a relation");
    statement.source = tokens[3];
    return statement;
  }
  if (op == "LIMIT") {
    statement.kind = Statement::Kind::kLimit;
    if (tokens.size() < 5) syntax_error(line, "LIMIT needs <rel> <count>");
    statement.source = tokens[3];
    statement.literal = number_token(tokens[4], line, "LIMIT");
    // 2^64: the first whole double past every std::size_t count.
    if (!whole_in(statement.literal, 0.0, 0x1p64)) {
      syntax_error(line, "LIMIT needs a non-negative whole count, got '" +
                             tokens[4] + "'");
    }
    return statement;
  }
  if (op == "ORDER") {
    // X = ORDER <rel> BY $<field> [DESC]
    if (tokens.size() < 6 || upper(tokens[4]) != "BY") {
      syntax_error(line, "expected ORDER <rel> BY $<field> [DESC]");
    }
    statement.kind = Statement::Kind::kOrderBy;
    statement.source = tokens[3];
    statement.field = field_token(tokens[5], line);
    statement.descending = tokens.size() > 6 && upper(tokens[6]) == "DESC";
    return statement;
  }
  if (op == "FILTER") {
    // X = FILTER <rel> BY $<field> <op> <literal>
    constexpr std::string_view kComparisons[] = {">", "<", ">=", "<=", "==",
                                                 "!="};
    if (tokens.size() < 8 || upper(tokens[4]) != "BY" ||
        std::count(kComparisons, std::end(kComparisons), tokens[6]) == 0) {
      syntax_error(line, "expected FILTER <rel> BY $<field> <op> <value>");
    }
    statement.kind = Statement::Kind::kFilter;
    statement.source = tokens[3];
    statement.field = field_token(tokens[5], line);
    statement.comparison = tokens[6];
    statement.literal = number_token(tokens[7], line, "FILTER");
    return statement;
  }
  if (op == "FOREACH") {
    // X = FOREACH <rel | (GROUP rel ALL)> GENERATE FLATTEN(Udf(args))
    statement.kind = Statement::Kind::kForeach;
    if (tokens.size() < 5) syntax_error(line, "malformed FOREACH");
    std::size_t generate_index = 4;
    if (tokens[3].front() == '(') {
      // (GROUP rel ALL)
      const auto inner = tokenize(tokens[3].substr(1, tokens[3].size() - 2), line);
      if (inner.size() != 3 || upper(inner[0]) != "GROUP" ||
          upper(inner[2]) != "ALL") {
        syntax_error(line, "only (GROUP <rel> ALL) subexpressions are supported");
      }
      statement.source = inner[1];
      statement.inner_group_all = true;
    } else {
      statement.source = tokens[3];
    }
    if (tokens.size() <= generate_index ||
        upper(tokens[generate_index]) != "GENERATE") {
      syntax_error(line, "FOREACH needs GENERATE");
    }
    std::string call;
    for (std::size_t t = generate_index + 1; t < tokens.size(); ++t) {
      call += tokens[t];
    }
    parse_udf_call(call, statement, line);
    return statement;
  }
  syntax_error(line, "unknown operator '" + op + "'");
}

}  // namespace

std::vector<Statement> parse_script(std::string_view text) {
  std::vector<Statement> statements;
  std::istringstream stream{std::string(text)};
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // "--" starts a comment unless it sits inside a quoted path.
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '\'') quoted = !quoted;
      if (!quoted && line.compare(i, 2, "--") == 0) {
        line.resize(i);
        break;
      }
    }
    // Strip a trailing semicolon.
    std::string body = trim(line);
    if (!body.empty() && body.back() == ';') body.pop_back();
    body = trim(body);
    if (body.empty()) continue;
    statements.push_back(parse_statement(body, line_number));
    statements.back().line = line_number;
  }
  return statements;
}

std::string substitute_parameters(std::string_view text,
                                  const std::map<std::string, std::string>& params) {
  for (const auto& [name, value] : params) {
    if (value.find_first_of("'\n") != std::string::npos) {
      throw common::InvalidArgument("pig script: parameter $" + name +
                                    " holds a quote or a newline");
    }
  }
  std::string out;
  std::size_t at = 0;
  for (std::size_t dollar = text.find('$'); dollar != text.npos;
       dollar = text.find('$', at)) {
    out += text.substr(at, dollar - at);
    const std::string_view rest = text.substr(dollar + 1);
    // Longest name first so $OUTPUT1 is not read as $OUTPUT and a "1".
    const std::pair<const std::string, std::string>* match = nullptr;
    for (const auto& param : params) {
      if (rest.starts_with(param.first) &&
          (match == nullptr || param.first.size() > match->first.size())) {
        match = &param;
      }
    }
    if (match != nullptr) {
      out += match->second;
      at = dollar + 1 + match->first.size();
      continue;
    }
    // Field references like $0 inside ORDER/FILTER are legitimate.
    if (rest.empty() || !std::isdigit(static_cast<unsigned char>(rest[0]))) {
      throw common::InvalidArgument("pig script: unresolved parameter near '" +
                                    std::string(text.substr(dollar, 16)) + "'");
    }
    out += '$';
    at = dollar + 1;
  }
  out += text.substr(at);
  return out;
}

namespace {

/// The largest $NUMHASH CalculateMinwiseHash takes: far above the paper's
/// 50 and 100, so a count past it is a typo rather than a sketch length.
constexpr std::size_t kMaxNumHashes = std::size_t{1} << 16;

/// Instantiate one of the paper's UDFs from its script call.  Numeric
/// arguments configure the UDF; field-name arguments are ignored (the UDFs
/// read positional fields, as in the paper's Java implementations).  A
/// missing or out-of-range number names the UDF and the statement's line.
std::unique_ptr<Udf> make_udf(const Statement& statement, std::uint64_t seed,
                              int* last_kmer) {
  const std::string& name = statement.udf_name;
  std::vector<double> numeric;
  std::vector<std::string> words;
  for (const auto& arg : statement.udf_args) {
    if (arg.empty()) continue;
    if (numeric_arg(arg)) {
      numeric.push_back(to_number(arg).value());  // checked by the parser
    } else {
      words.push_back(arg);
    }
  }
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) syntax_error(statement.line, name + " needs " + what);
  };
  // The last number, a similarity threshold or cutoff in [0, 1].
  const auto fraction = [&](const char* what) {
    require(!numeric.empty() && numeric.back() >= 0.0 && numeric.back() <= 1.0,
            std::string(what) + " in [0, 1]");
    return numeric.back();
  };

  if (name == "StringGenerator") return std::make_unique<StringGenerator>();
  if (name == "TranslateToKmer") {
    require(!numeric.empty() && whole_in(numeric[0], 1.0, bio::kMaxKmerK + 1.0),
            "$KMER as a whole number in [1, 31]");
    *last_kmer = static_cast<int>(numeric[0]);
    return std::make_unique<TranslateToKmer>(*last_kmer);
  }
  if (name == "CalculateMinwiseHash") {
    require(!numeric.empty() && whole_in(numeric[0], 1.0, kMaxNumHashes + 1.0),
            "$NUMHASH as a whole number in [1, " +
                std::to_string(kMaxNumHashes) + "]");
    // The paper's $DIV (a prime > feature-set size) parameterizes the hash
    // family; we fold it into the seed of our fixed-prime family.  An
    // optional `cminhash` word swaps in the C-MinHash affine-composition
    // scheme (same dialect extension style as `lsh` below).
    require(numeric.size() < 2 || whole_in(numeric[1], 0.0, 0x1p64),
            "$DIV as a whole number in [0, 2^64)");
    const auto div_seed =
        numeric.size() > 1 ? static_cast<std::uint64_t>(numeric[1]) : 0;
    auto scheme = core::SketchScheme::kUniversal;
    for (const auto& word : words) {
      if (word == "cminhash") scheme = core::SketchScheme::kCMinHash;
    }
    return std::make_unique<CalculateMinwiseHash>(
        static_cast<std::size_t>(numeric[0]), *last_kmer, seed ^ div_seed,
        scheme);
  }
  if (name == "CalculatePairwiseSimilarity") {
    // Optional extension args beyond the paper's script: an `lsh` word
    // switches pair enumeration to the banded candidate backend, with the
    // last numeric arg (if any) as the θ the band shape is chosen from.
    core::candidates::Params candidates;
    for (const auto& word : words) {
      if (word == "lsh") candidates.backend = core::candidates::Backend::kLshBanded;
    }
    const double theta = numeric.empty() ? 0.9 : fraction("theta");
    return std::make_unique<CalculatePairwiseSimilarity>(
        core::SketchEstimator::kComponentMatch, candidates, theta);
  }
  if (name == "AgglomerativeHierarchicalClustering") {
    core::Linkage linkage = core::Linkage::kAverage;
    for (const auto& word : words) {
      for (const auto named : {core::Linkage::kSingle, core::Linkage::kAverage,
                               core::Linkage::kComplete}) {
        if (word == core::linkage_name(named)) linkage = named;
      }
    }
    return std::make_unique<AgglomerativeHierarchicalClustering>(
        linkage, fraction("$CUTOFF"));
  }
  if (name == "GreedyClustering") {
    return std::make_unique<GreedyClustering>(fraction("$CUTOFF"),
                                              core::SketchEstimator::kSetBased);
  }
  throw common::InvalidArgument("pig script: unknown UDF '" + name + "'");
}

double numeric_field(const Tuple& tuple, std::size_t field) {
  MRMC_REQUIRE(field < tuple.fields.size(), "field index out of range");
  const Value& value = tuple.fields[field];
  if (const auto* l = std::get_if<long>(&value)) return static_cast<double>(*l);
  if (const auto* d = std::get_if<double>(&value)) return *d;
  throw common::InvalidArgument("pig script: field is not numeric");
}

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

/// Hash of the DFS bytes of every LOAD path that exists before the script
/// runs.  A path the script writes first is derived from hashed inputs.
std::uint64_t load_fingerprint(const mr::SimDfs& dfs,
                               const std::vector<Statement>& statements) {
  mr::StableHasher hasher;
  for (const Statement& statement : statements) {
    if (statement.kind == Statement::Kind::kLoad &&
        dfs.exists(statement.source)) {
      mr::stable_hash_append(
          hasher, std::pair{statement.source, dfs.read(statement.source)});
    }
  }
  return hasher.finish();
}

}  // namespace

ScriptResult run_script(PigContext& context, std::string_view text,
                        const std::map<std::string, std::string>& params,
                        std::uint64_t udf_seed) {
  const std::string resolved = substitute_parameters(text, params);
  const auto statements = parse_script(resolved);

  obs::Tracer::Span script_span(obs::Tracer::global(), "pig script");
  obs::pipeline::PipelineScope lineage("pig");
  // Recovery driver, configured from the environment alone:
  // MRMC_CHECKPOINT_DIR arms checkpointing, and MRMC_CRASH_AFTER_STAGE /
  // MRMC_FAIL_STAGE work here as in core::run_pipeline.  Stage names are
  // the lineage stages the operators claim, so a checkpoint hit claims the
  // (stage, sequence) slot an uninterrupted run would.
  mr::recovery::StageDriver::Options options;
  options.label = "pig";
  options = mr::recovery::StageDriver::Options::from_env(options);
  if (!options.checkpoint_dir.empty()) {
    options.params_fingerprint = mr::stable_hash(std::pair{resolved, udf_seed});
    options.input_fingerprint = load_fingerprint(context.dfs(), statements);
  }
  mr::recovery::StageDriver driver(options);
  // The driver makes one attempt per stage, so a statement's own error
  // keeps its type rather than arriving wrapped in RetryExhausted; an
  // injected MRMC_FAIL_STAGE failure fires before compute and still does.
  const auto stage = [&driver](const std::string& name, auto compute) {
    std::exception_ptr error;
    const auto keep_error = [&] {
      try {
        return compute();
      } catch (...) {
        error = std::current_exception();
        throw;
      }
    };
    try {
      return driver.run_stage(name, keep_error, encode_relation,
                              decode_relation);
    } catch (const mr::recovery::RetryExhausted&) {
      if (error) std::rethrow_exception(error);
      throw;
    }
  };

  ScriptResult result;
  int last_kmer = 5;  // TranslateToKmer updates this for CalculateMinwiseHash

  auto relation_of = [&](const std::string& alias) -> const Relation& {
    const auto it = result.relations.find(alias);
    if (it == result.relations.end()) {
      throw common::InvalidArgument("pig script: unknown alias '" + alias + "'");
    }
    return it->second;
  };

  // A throwing statement still leaves the run's trace, metrics and reports
  // behind, as core::run_pipeline does.
  try {
    for (const auto& statement : statements) {
      switch (statement.kind) {
        case Statement::Kind::kLoad:
          result.relations[statement.target] =
              context.load_fasta(statement.source);
          break;
        case Statement::Kind::kForeach: {
          // FOREACH (GROUP x ALL) runs two jobs, so it is two stages.
          const Relation* input = &relation_of(statement.source);
          Relation grouped;
          if (statement.inner_group_all) {
            grouped =
                stage("group-all", [&] { return context.group_all(*input); });
            input = &grouped;
          }
          // Built outside the stage: TranslateToKmer sets last_kmer even when
          // its stage is a checkpoint hit.
          const auto udf = make_udf(statement, udf_seed, &last_kmer);
          result.relations[statement.target] =
              stage(std::string("foreach-") + udf->name(),
                    [&] { return context.foreach_generate(*input, *udf); });
          break;
        }
        case Statement::Kind::kGroupAll:
          result.relations[statement.target] = stage("group-all", [&] {
            return context.group_all(relation_of(statement.source));
          });
          break;
        case Statement::Kind::kGroupBy:
          result.relations[statement.target] = stage("group-by", [&] {
            return context.group_by(relation_of(statement.source),
                                    statement.field);
          });
          break;
        case Statement::Kind::kDistinct: {
          const Relation& input = relation_of(statement.source);
          Relation output;
          for (const Tuple& tuple : input) {
            if (std::find(output.begin(), output.end(), tuple) ==
                output.end()) {
              output.push_back(tuple);
            }
          }
          result.relations[statement.target] = std::move(output);
          break;
        }
        case Statement::Kind::kOrderBy: {
          Relation output = relation_of(statement.source);
          std::stable_sort(output.begin(), output.end(),
                           [&](const Tuple& a, const Tuple& b) {
                             const Value& x = a.fields.at(statement.field);
                             const Value& y = b.fields.at(statement.field);
                             return statement.descending ? value_less(y, x)
                                                         : value_less(x, y);
                           });
          result.relations[statement.target] = std::move(output);
          break;
        }
        case Statement::Kind::kLimit: {
          Relation output = relation_of(statement.source);
          const auto count = static_cast<std::size_t>(statement.literal);
          if (output.size() > count) output.resize(count);
          result.relations[statement.target] = std::move(output);
          break;
        }
        case Statement::Kind::kFilter: {
          Relation output;
          for (const Tuple& tuple : relation_of(statement.source)) {
            const double value = numeric_field(tuple, statement.field);
            const double rhs = statement.literal;
            bool keep = false;  // the parser admits these six comparisons
            if (statement.comparison == ">") keep = value > rhs;
            else if (statement.comparison == "<") keep = value < rhs;
            else if (statement.comparison == ">=") keep = value >= rhs;
            else if (statement.comparison == "<=") keep = value <= rhs;
            else if (statement.comparison == "==") keep = value == rhs;
            else if (statement.comparison == "!=") keep = value != rhs;
            if (keep) output.push_back(tuple);
          }
          result.relations[statement.target] = std::move(output);
          break;
        }
        case Statement::Kind::kStore:
          context.store(relation_of(statement.source), statement.udf_name);
          result.stored_paths.push_back(statement.udf_name);
          break;
      }
    }
  } catch (...) {
    obs::pipeline::write_configured_artifacts();
    throw;
  }
  result.sim_time_s = context.sim_time_s();
  result.jobs_run = context.job_history().size();
  result.recovery = driver.stats();

  static const obs::Logger logger("pig");
  logger.info("script finished", {{"jobs", result.jobs_run},
                                  {"sim_time_s", result.sim_time_s},
                                  {"checkpoint_hits",
                                   result.recovery.checkpoint_hits}});
  obs::pipeline::write_configured_artifacts();
  return result;
}

std::string_view algorithm3_script() {
  return R"(-- MrMC-MinH, Algorithm 3 (Rasheed & Rangwala 2013)
A = LOAD '$INPUT' USING FastaStorage;
B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, $KMER));
E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, $NUMHASH, $DIV));
I = GROUP E ALL;
J = FOREACH I GENERATE FLATTEN(CalculatePairwiseSimilarity(minwise, F));
K = FOREACH (GROUP J ALL) GENERATE FLATTEN(AgglomerativeHierarchicalClustering(similaritymatrix, $LINK, $NUMHASH, $CUTOFF));
L = FOREACH I GENERATE FLATTEN(GreedyClustering(F, $NUMHASH, $CUTOFF));
STORE K INTO '$OUTPUT1';
STORE L INTO '$OUTPUT2';
)";
}

}  // namespace mrmc::pig
