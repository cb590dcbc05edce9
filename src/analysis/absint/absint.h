// Fixpoint abstract interpretation over the post-rewrite program.
//
// One bottom-up Kleene fixpoint over the rules drives four analyses on
// the shared lattices of lattice.h:
//
//   * type inference         — per-predicate argument signatures (which
//     Value kinds each column can hold), solved by propagating column
//     sets through rule bodies into heads; conflicting uses raise GD300
//     and arithmetic over non-ints raises GD301.
//   * interval analysis      — int ranges propagated through arithmetic
//     and comparisons; an arithmetic site whose result range cannot
//     intersect [Value::kMinInt, Value::kMaxInt] is a *guaranteed*
//     overflow (GD013), and a comparison whose operand ranges cannot
//     overlap proves the rule body unsatisfiable (GD012).
//   * cardinality analysis   — [lo, hi] row-count bounds per predicate:
//     exact for EDB relations (scanned from the catalog, where the
//     engine puts a program's inline facts at load), derived for IDB
//     predicates as the saturating product of body bounds, widened to
//     +inf on recursion.
//   * choice determinism     — a determined-variable closure over each
//     surface rule's equalities detects choice goals whose witness set
//     is provably a singleton (GD310) and choice rules whose
//     admissibility test reduces to the FD memo (GD311).
//
// Soundness: every abstract object over-approximates the concrete values
// that can occur in *any* run given the EDB visible at analysis time,
// so error-class diagnostics only fire when the conflict is provable.
// The engine computes the analysis only when asked, never for a run
// (Engine::StaticAnalysis); its verdicts surface through Engine::Lint(),
// --lint-json, RunReport, EXPLAIN ANALYZE and the .types shell command.
#ifndef GDLOG_ANALYSIS_ABSINT_ABSINT_H_
#define GDLOG_ANALYSIS_ABSINT_ABSINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/absint/lattice.h"
#include "analysis/diagnostics.h"
#include "ast/ast.h"

namespace gdlog {

class Catalog;  // storage/catalog.h
class JsonWriter;  // obs/json.h

namespace absint {

/// One predicate's inferred facts: a per-column abstract value and a
/// row-count bound. `populated` distinguishes "no tuples can exist"
/// (bottom columns) from "not analyzable" — a predicate with neither
/// facts nor analyzable rules never populates and its columns stay
/// bottom without implying emptiness diagnostics.
struct PredicateSignature {
  std::string name;
  uint32_t arity = 0;
  std::vector<AbstractValue> args;
  CardBound card;
  bool populated = false;
  bool edb_seeded = false;  // row stats came from the catalog

  std::string DisplayName() const;  // "name/arity"
};

struct AnalysisResult {
  // Sorted by name, then arity.
  std::vector<PredicateSignature> signatures;
  // GD012/GD013/GD3xx findings, sorted with SortDiagnostics.
  std::vector<Diagnostic> diagnostics;
  int rounds = 0;

  const PredicateSignature* Find(std::string_view name, uint32_t arity) const;
};

/// Analyzes `expanded` (the ExpandNext'd program the evaluator executes;
/// rule indices must match `surface`). Choice-determinism findings are
/// derived from `surface` so synthesized choice literals from next()
/// expansion are not misreported. The catalog's rows seed the EDB
/// lattices, and nothing else does: every row, or, with `edb_rows`, the
/// first edb_rows[id] rows of relation `id` (none past the vector's
/// end), so that rows derived later do not count as EDB.
AnalysisResult AnalyzeProgram(const Program& surface, const Program& expanded,
                              const Catalog& catalog,
                              const std::vector<size_t>* edb_rows = nullptr);

/// Convenience for callers holding only the surface program (fuzzer,
/// tests): loads its fact batches into a scratch catalog, expands next()
/// internally, and analyzes the surface program instead when a rule is
/// malformed (RuleStructureDiagnostics), which ExpandNext cannot expand.
AnalysisResult Analyze(const Program& surface);

/// Renders the "analysis" JSON object: {"rounds": N, "predicates":
/// [{"predicate", "populated", "cardinality": {"lo", "hi"}, "args":
/// [{"types": [...], "min", "max"}]}]}. Integer-only (golden-diff safe).
void AnalysisToJson(const AnalysisResult& r, JsonWriter* w);

/// Human-readable signature listing for the .types shell command, one
/// predicate per line: "p/2: (int[0, 7], symbol) rows [3, 18]".
std::string SignaturesText(const AnalysisResult& r);

}  // namespace absint
}  // namespace gdlog

#endif  // GDLOG_ANALYSIS_ABSINT_ABSINT_H_
