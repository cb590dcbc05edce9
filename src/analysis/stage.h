// Stage analysis: the compile-time recognition of stage-stratified
// programs (paper, Sections 3-4).
//
// For every recursive clique of the program the analysis determines:
//
//   * whether each rule is a "next rule" (contains next(I)) or a "flat
//     rule" — a stage clique may define each predicate with rules of one
//     kind only;
//   * the unique stage argument of every predicate in the clique,
//     inferred by propagating stage variables from next(I) goals through
//     head arguments (including through stage arithmetic I = J + 1 and
//     I = max(J, K));
//   * whether the clique is stage-stratified: on the rewritten rule r'
//     (next expanded, choice erased, extrema rewritten to a negated body
//     copy), every stage argument in the tail must be provably <= the
//     head's stage argument — strictly so for next rules and for stage
//     occurrences under negation in flat rules.
//
// The ordering proofs use a per-rule difference-constraint graph built
// from the rule's comparisons, stage arithmetic, and integer constants;
// u < v is proven by reachability through at least one strict edge.
//
// Stage *variables are compared per clique*: a stage value produced by a
// different clique's counter (e.g. Kruskal's component ids, minted by
// comp0's own next counter) is an opaque datum to this clique and takes
// no part in the ordering obligation.
#ifndef GDLOG_ANALYSIS_STAGE_H_
#define GDLOG_ANALYSIS_STAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dep_graph.h"
#include "analysis/diagnostics.h"
#include "ast/ast.h"
#include "common/status.h"

namespace gdlog {

enum class RuleKind : uint8_t { kExit, kFlat, kNext };

enum class CliqueClass : uint8_t {
  kHorn,            // no negation, no meta goals in recursion
  kStratified,      // negation only on lower cliques
  kStageStratified, // stage clique passing the full Section 4 test
  kRelaxedStage,    // stage clique whose flat rules violate strictness
                    // (the paper's Kruskal case, Section 7)
  kRejected,
};

std::string_view CliqueClassName(CliqueClass c);

struct RuleStageInfo {
  RuleKind kind = RuleKind::kExit;
  // Head stage argument position, or -1 when the head predicate has no
  // stage argument (Horn cliques).
  int head_stage_pos = -1;
  // Name of the stage variable bound by next(I); empty for non-next rules.
  std::string stage_var;
};

struct CliqueStageInfo {
  CliqueClass cls = CliqueClass::kHorn;
  // Human-readable explanation when cls is kRelaxedStage or kRejected.
  std::string diagnostic;
  // Diagnostic code (diag::k* in analysis/diagnostics.h, e.g. "GD009")
  // when cls is kRelaxedStage or kRejected; empty otherwise.
  std::string code;
  // Predicates of the clique (indices into the DependencyGraph).
  std::vector<PredIndex> members;
  // Rule indices (into the analyzed Program) whose head is in the clique.
  std::vector<uint32_t> rules;
  bool has_next_rules = false;
};

struct StageAnalysis {
  // The program with next goals macro-expanded (rule i corresponds to
  // rule i of the analyzed program). Recursion through next(I) — e.g.
  // Example 5's sort, whose only self-reference is the implicit
  // sp(_, I1) — is visible only on this form, so the dependency graph is
  // built over it. This is also the form the evaluator executes.
  Program expanded;
  // Dependency graph over `expanded`.
  std::unique_ptr<DependencyGraph> graph;

  // Indexed by DependencyGraph scc id.
  std::vector<CliqueStageInfo> cliques;
  // Indexed by rule position in the analyzed Program.
  std::vector<RuleStageInfo> rule_info;
  // Indexed by PredIndex: stage argument position or -1.
  std::vector<int> stage_arg;
  // Clique ids in dependency order (callees first) — the stratum
  // saturation order of the fixpoint drivers.
  std::vector<uint32_t> clique_order;
};

/// GD101-GD105 and GD111 for `rule`: the shape the rewritings of next,
/// choice and least/most (Sections 2-3) are defined for. At most one
/// next goal, whose stage variable appears exactly once in the head; at
/// most one extremum, whose cost is a variable outside its grouping; no
/// next, choice, least or most inside `not (...)`, at any depth. In body
/// order, each located at its goal and naming the head predicate.
std::vector<Diagnostic> RuleStructureDiagnostics(const Rule& rule);

/// The first source clause defining a member of `clique` — a rule, or a
/// ground fact of a member predicate — which diagnostics about the
/// clique point at.
struct CliqueClause {
  uint32_t clause = 0;
  SourceLoc loc;
};
CliqueClause FirstCliqueClause(const Program& program,
                               const StageAnalysis& analysis,
                               const CliqueStageInfo& clique);

/// The diagnostic of clique `scc`, rejected or relaxed: its code, the
/// members, the dependency cycle and the analysis' explanation as
/// notes, located at FirstCliqueClause. LoadProgram refuses a rejected
/// clique with it, and lint prints it.
Diagnostic CliqueDiagnostic(const Program& program,
                            const StageAnalysis& analysis, uint32_t scc);

/// Runs the full analysis on `program` (original surface form, with
/// next/choice/least goals in place). Fails only when a rule is
/// malformed, with the first RuleStructureDiagnostics of the first such
/// rule; every other problem rejects its clique (CliqueClass) and the
/// analysis goes on with the others.
Result<StageAnalysis> AnalyzeStages(const Program& program);

}  // namespace gdlog

#endif  // GDLOG_ANALYSIS_STAGE_H_
