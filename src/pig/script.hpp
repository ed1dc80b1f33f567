// A Pig Latin interpreter for the dialect the paper's Algorithm 3 uses,
// plus the common relational operators (FILTER / DISTINCT / ORDER / LIMIT).
// Scripts are parsed into statements and executed on a PigContext, so the
// paper's published script runs verbatim (modulo $PARAMETER substitution):
//
//   A = LOAD '$INPUT' USING FastaStorage;
//   B = FOREACH A GENERATE FLATTEN(StringGenerator(seq, readid));
//   C = FOREACH B GENERATE FLATTEN(TranslateToKmer(seq, seqid, $KMER));
//   E = FOREACH C GENERATE FLATTEN(CalculateMinwiseHash(seqkmer, seqid2, $NUMHASH, $DIV));
//   I = GROUP E ALL;
//   J = FOREACH I GENERATE FLATTEN(CalculatePairwiseSimilarity(minwise, I.F));
//   K = FOREACH (GROUP J ALL) GENERATE FLATTEN(AgglomerativeHierarchicalClustering(sim, $LINK, $NUMHASH, $CUTOFF));
//   L = FOREACH I GENERATE FLATTEN(GreedyClustering(I.F, $NUMHASH, $CUTOFF));
//   STORE K INTO '$OUTPUT1';
//   STORE L INTO '$OUTPUT2';
//
// Comments start with "--" (outside quoted paths).  UDF argument lists may
// reference fields by name (ignored — the paper's UDFs read positional
// fields) while numeric / $-parameters configure the UDF.
//
// Every script is resumable.  run_script drives each statement that runs a
// MapReduce job — FOREACH ("foreach-<Udf>"), GROUP ALL ("group-all"; a
// FOREACH over (GROUP x ALL) is two stages) and GROUP BY ("group-by") —
// through one mr::recovery::StageDriver configured from the environment
// alone: with MRMC_CHECKPOINT_DIR set, completed stages are served from
// checkpoint, keyed by the resolved script text, the UDF seed and the DFS
// bytes of the LOAD paths.  LOAD, STORE, DISTINCT, ORDER, LIMIT and FILTER
// run in the driver and always re-run, so a resumed script stores
// byte-identical files.  MRMC_CRASH_AFTER_STAGE works as in
// core::run_pipeline.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pig/pig.hpp"

namespace mrmc::pig {

/// One parsed statement.
struct Statement {
  enum class Kind {
    kLoad,      ///< X = LOAD '<path>' [USING FastaStorage]
    kForeach,   ///< X = FOREACH <rel|(GROUP rel ALL)> GENERATE FLATTEN(Udf(args))
    kGroupAll,  ///< X = GROUP <rel> ALL
    kGroupBy,   ///< X = GROUP <rel> BY $<field>
    kDistinct,  ///< X = DISTINCT <rel>
    kOrderBy,   ///< X = ORDER <rel> BY $<field> [DESC]
    kLimit,     ///< X = LIMIT <rel> <n>
    kFilter,    ///< X = FILTER <rel> BY $<field> <op> <literal>
    kStore,     ///< STORE <rel> INTO '<path>'
  };

  Kind kind = Kind::kLoad;
  std::string target;            ///< assigned alias ("" for STORE)
  std::string source;            ///< input alias / quoted path
  std::string udf_name;          ///< kForeach
  std::vector<std::string> udf_args;
  bool inner_group_all = false;  ///< kForeach over (GROUP src ALL)
  std::size_t field = 0;         ///< kOrderBy / kFilter field index
  bool descending = false;       ///< kOrderBy
  std::string comparison;        ///< kFilter: one of > < >= <= == !=
  double literal = 0.0;          ///< kFilter numeric literal / kLimit count
  std::size_t line = 0;          ///< 1-based script line, for errors
};

/// Parse a script; throws InvalidArgument with a line number on bad syntax.
/// A UDF's numeric arguments are checked against its ranges when the
/// statement runs, with the same kind of error.
std::vector<Statement> parse_script(std::string_view text);

/// Substitute $NAME occurrences from `params` in one left-to-right pass,
/// longest name first; a substituted value is never rescanned, so it may
/// hold '$'.  $<digit> field references stay.  An unknown $NAME, or a
/// value holding a quote or a newline (it would end the script's quoted
/// string), is an InvalidArgument.
std::string substitute_parameters(std::string_view text,
                                  const std::map<std::string, std::string>& params);

struct ScriptResult {
  std::map<std::string, Relation> relations;  ///< every named alias
  std::vector<std::string> stored_paths;      ///< STORE targets, in order
  double sim_time_s = 0.0;                ///< of the context's jobs so far
  std::size_t jobs_run = 0;
  mr::recovery::RecoveryStats recovery;   ///< checkpoint hits/misses/writes
};

/// Execute a script (after parameter substitution) on a context.  The UDF
/// registry covers the paper's six functions; `udf_seed` seeds
/// CalculateMinwiseHash's hash family (the $DIV argument of the paper is
/// folded into it).  A statement's error keeps its type.  The run's
/// MRMC_TRACE / MRMC_METRICS / report artifacts are written on success and
/// on a throw.
ScriptResult run_script(PigContext& context, std::string_view text,
                        const std::map<std::string, std::string>& params = {},
                        std::uint64_t udf_seed = 1);

/// The paper's Algorithm 3 script, verbatim (with $-parameters).
std::string_view algorithm3_script();

}  // namespace mrmc::pig
