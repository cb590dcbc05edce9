// Semantic static analysis ("lint") over gdlog programs.
//
// LintProgram runs every compile-time check the engine knows about and
// returns structured Diagnostic records instead of failing on the first
// problem. Checks (see docs/DIAGNOSTICS.md for the full catalogue):
//
//   * rule safety / range restriction (analysis/safety.h): every head
//     variable and every variable of a negated, comparison, arithmetic,
//     choice, or extrema goal must be bound by a positive body goal
//     (GD001, GD002, GD008);
//   * undefined, unused, and arity-inconsistent predicates (GD003-GD005);
//   * duplicate or degenerate choice FD specifications (GD006, GD007);
//   * stage-stratification (Section 4), with rejected cliques explained
//     by the offending dependency cycle through the next/choice recursion
//     (GD009, GD011, GD106-GD109; CliqueDiagnostic in analysis/stage.h);
//   * per-rule structural errors: multiple next/extrema goals, bad stage
//     variables, malformed extrema costs, meta goals inside `not (...)`
//     (GD101-GD105, GD111; RuleStructureDiagnostics in analysis/stage.h);
//   * rules unreachable from the query roots, when roots are given
//     (GD010).
//
// LoadProgram refuses a program with the first error AnalyzeStages
// finds, so its refusal is a diagnostic lint prints.
//
// The pass never evaluates the program; it is pure syntax + analysis and
// safe to run on untrusted input.
#ifndef GDLOG_ANALYSIS_LINT_H_
#define GDLOG_ANALYSIS_LINT_H_

#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/stage.h"
#include "ast/ast.h"

namespace gdlog {

struct LintOptions {
  // Query roots ("outputs") for the reachability checks. When empty, the
  // unreachable-rule check (GD010) is skipped and the unused-predicate
  // check (GD004) treats every rule-defined sink predicate as a root.
  std::vector<Program::PredicateRef> roots;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // sorted: errors first
  DiagCounts counts;

  /// True when the program produced no errors (warnings/notes allowed).
  bool clean() const { return counts.errors == 0; }
};

/// Lints a parsed program.
LintResult LintProgram(const Program& program, const LintOptions& options = {});

/// Lints a program `analysis` already analyzed (the engine's, from
/// LoadProgram).
LintResult LintProgram(const Program& program, const StageAnalysis& analysis,
                       const LintOptions& options = {});

/// Parses `source` (interning constants into `store`) and lints the
/// result. A parse failure yields a single GD100 diagnostic.
LintResult LintSource(ValueStore* store, std::string_view source,
                      const LintOptions& options = {});

}  // namespace gdlog

#endif  // GDLOG_ANALYSIS_LINT_H_
