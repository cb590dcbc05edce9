// Structured compile-time diagnostics for gdlog programs.
//
// Every program-level complaint the frontend can raise — from the linter
// (analysis/lint.h), rule safety (analysis/safety.h) and the rule-shape
// and stage-stratification analysis (analysis/stage.h) — is a
// Diagnostic: a stable code (GD001, GD102, ...), a severity, a one-line
// message, the offending predicate and rule, a source location threaded
// from the lexer, and optional note lines (e.g. the dependency cycle
// that breaks stage-stratification). docs/DIAGNOSTICS.md catalogues
// every code.
//
// The engine refuses a program with the Diagnostic lint prints, through
// DiagnosticToStatus, which embeds the code in the message ("[GD106]
// ..."); DiagCodeOfStatus recovers it so callers and tests can dispatch
// on codes instead of message substrings.
#ifndef GDLOG_ANALYSIS_DIAGNOSTICS_H_
#define GDLOG_ANALYSIS_DIAGNOSTICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"

namespace gdlog {

class JsonWriter;  // obs/json.h

enum class DiagSeverity : uint8_t { kError, kWarning, kNote };

/// "error" / "warning" / "note".
std::string_view DiagSeverityName(DiagSeverity s);

// Stable diagnostic codes. GD0xx are linter checks over well-formed
// programs; GD1xx are parse/structural failures that also abort loading.
namespace diag {
// -- Linter checks (analysis/lint.h) --------------------------------------
inline constexpr std::string_view kUnsafeHeadVar = "GD001";
inline constexpr std::string_view kUnsafeBodyVar = "GD002";
inline constexpr std::string_view kUndefinedPredicate = "GD003";
inline constexpr std::string_view kUnusedPredicate = "GD004";
inline constexpr std::string_view kArityMismatch = "GD005";
inline constexpr std::string_view kDuplicateChoice = "GD006";
inline constexpr std::string_view kDegenerateChoice = "GD007";
inline constexpr std::string_view kUnboundExtremaCost = "GD008";
inline constexpr std::string_view kNotStageStratified = "GD009";
inline constexpr std::string_view kUnreachableRule = "GD010";
inline constexpr std::string_view kRelaxedStratification = "GD011";
inline constexpr std::string_view kProvablyEmpty = "GD012";
inline constexpr std::string_view kGuaranteedOverflow = "GD013";
// -- Parse / structural failures (parser, stage analysis) -----------------
inline constexpr std::string_view kParseError = "GD100";
inline constexpr std::string_view kMultipleNext = "GD101";
inline constexpr std::string_view kBadStageVar = "GD102";
inline constexpr std::string_view kMultipleExtrema = "GD103";
inline constexpr std::string_view kNonVariableCost = "GD104";
inline constexpr std::string_view kCostInGroup = "GD105";
inline constexpr std::string_view kConflictingStagePos = "GD106";
inline constexpr std::string_view kTwoHeadStagePos = "GD107";
inline constexpr std::string_view kMixedRuleKinds = "GD108";
inline constexpr std::string_view kMissingStageArg = "GD109";
inline constexpr std::string_view kIntLiteralRange = "GD110";
inline constexpr std::string_view kMetaInNegation = "GD111";
// -- Run-time termination outcomes (common/guardrails.h) -------------------
inline constexpr std::string_view kDeadlineExceeded = "GD200";
inline constexpr std::string_view kTupleLimit = "GD201";
inline constexpr std::string_view kStageLimit = "GD202";
inline constexpr std::string_view kIterationLimit = "GD203";
inline constexpr std::string_view kMemoryLimit = "GD204";
inline constexpr std::string_view kRunCancelled = "GD205";
inline constexpr std::string_view kOutOfMemory = "GD206";
inline constexpr std::string_view kInjectedFault = "GD207";
// -- Durability failures (storage/durable) ----------------------------------
inline constexpr std::string_view kWalError = "GD210";
inline constexpr std::string_view kWalCorrupt = "GD211";
inline constexpr std::string_view kSnapshotCorrupt = "GD212";
// -- Static analysis findings (analysis/absint) ----------------------------
inline constexpr std::string_view kTypeConflict = "GD300";
inline constexpr std::string_view kNonIntArithmetic = "GD301";
inline constexpr std::string_view kDeadChoice = "GD310";
inline constexpr std::string_view kChoiceNeverRejects = "GD311";
}  // namespace diag

/// Default severity of a code ("GDnnn"); kError for unknown codes.
DiagSeverity DiagCodeSeverity(std::string_view code);

struct Diagnostic {
  std::string code;  // stable "GDnnn" identifier
  DiagSeverity severity = DiagSeverity::kError;
  std::string message;
  // Offending predicate as "name/arity"; empty when not predicate-specific.
  std::string predicate;
  // Index into Program::rules; -1 when not rule-specific.
  int rule_index = -1;
  SourceLoc loc;
  // Extra explanation lines, e.g. the offending dependency cycle.
  std::vector<std::string> notes;
};

/// Builds a diagnostic with the code's default severity.
Diagnostic MakeDiagnostic(std::string_view code, std::string message);

/// Converts to the legacy Status channel, embedding "[GDnnn]" in the
/// message (ParseError for GD100, AnalysisError otherwise).
Status DiagnosticToStatus(const Diagnostic& d);

/// The "[GDnnn]" code embedded in an error status message, or "" when the
/// status is OK or carries no code.
std::string DiagCodeOfStatus(const Status& st);

/// Stable presentation order: errors before warnings before notes, then
/// by rule index, then by source location, then by code.
void SortDiagnostics(std::vector<Diagnostic>* diags);

struct DiagCounts {
  size_t errors = 0;
  size_t warnings = 0;
  size_t notes = 0;
};
DiagCounts CountDiagnostics(const std::vector<Diagnostic>& diags);

/// Compiler-style rendering: "file:line:col: severity[GDnnn]: message",
/// one line per diagnostic plus indented note lines.
std::string RenderDiagnostic(const Diagnostic& d, std::string_view file);
std::string RenderDiagnostics(const std::vector<Diagnostic>& diags,
                              std::string_view file);

/// JSON form consistent with Engine::RunReport:
/// {"program": ..., "summary": {"errors": N, "warnings": N, "notes": N},
///  "diagnostics": [{"code", "severity", "message", "predicate", "rule",
///                   "line", "column", "notes"}]}.
void DiagnosticsToJson(const std::vector<Diagnostic>& diags,
                       std::string_view program_name, JsonWriter* w);
std::string DiagnosticsJson(const std::vector<Diagnostic>& diags,
                            std::string_view program_name);

/// Writes the same "program"/"summary"/"diagnostics" keys into an object
/// the caller has already opened — lets callers append sibling sections
/// (the shell's --lint-json adds "analysis") without changing the
/// DiagnosticsToJson schema.
void DiagnosticsJsonContents(const std::vector<Diagnostic>& diags,
                             std::string_view program_name, JsonWriter* w);

}  // namespace gdlog

#endif  // GDLOG_ANALYSIS_DIAGNOSTICS_H_
