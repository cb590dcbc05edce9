#include "analysis/diagnostics.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/json.h"

namespace gdlog {

std::string_view DiagSeverityName(DiagSeverity s) {
  switch (s) {
    case DiagSeverity::kError:
      return "error";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kNote:
      return "note";
  }
  return "?";
}

DiagSeverity DiagCodeSeverity(std::string_view code) {
  // Every code not listed is an error.
  static constexpr std::pair<std::string_view, DiagSeverity> kNonErrors[] = {
      {diag::kUndefinedPredicate, DiagSeverity::kWarning},
      {diag::kUnusedPredicate, DiagSeverity::kWarning},
      {diag::kArityMismatch, DiagSeverity::kWarning},
      {diag::kDuplicateChoice, DiagSeverity::kWarning},
      {diag::kDegenerateChoice, DiagSeverity::kWarning},
      {diag::kUnreachableRule, DiagSeverity::kWarning},
      {diag::kRelaxedStratification, DiagSeverity::kNote},
      {diag::kProvablyEmpty, DiagSeverity::kWarning},
      {diag::kGuaranteedOverflow, DiagSeverity::kWarning},
      {diag::kDeadChoice, DiagSeverity::kWarning},
      {diag::kChoiceNeverRejects, DiagSeverity::kNote},
  };
  for (const auto& [c, severity] : kNonErrors) {
    if (c == code) return severity;
  }
  return DiagSeverity::kError;
}

Diagnostic MakeDiagnostic(std::string_view code, std::string message) {
  Diagnostic d;
  d.code = std::string(code);
  d.severity = DiagCodeSeverity(code);
  d.message = std::move(message);
  return d;
}

Status DiagnosticToStatus(const Diagnostic& d) {
  std::string msg = "[" + d.code + "] " + d.message;
  if (d.loc.valid()) msg += " at " + d.loc.ToString();
  for (const std::string& n : d.notes) msg += "; " + n;
  if (d.code == diag::kParseError) return Status::ParseError(std::move(msg));
  return Status::AnalysisError(std::move(msg));
}

std::string DiagCodeOfStatus(const Status& st) {
  if (st.ok()) return "";
  const std::string& m = st.message();
  if (m.size() < 3 || m[0] != '[') return "";
  const size_t close = m.find(']');
  if (close == std::string::npos) return "";
  const std::string code = m.substr(1, close - 1);
  if (code.size() < 3 || code.compare(0, 2, "GD") != 0) return "";
  return code;
}

void SortDiagnostics(std::vector<Diagnostic>* diags) {
  std::stable_sort(diags->begin(), diags->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::make_tuple(static_cast<int>(a.severity),
                                            a.rule_index, a.loc.line,
                                            a.loc.column, a.code) <
                            std::make_tuple(static_cast<int>(b.severity),
                                            b.rule_index, b.loc.line,
                                            b.loc.column, b.code);
                   });
}

DiagCounts CountDiagnostics(const std::vector<Diagnostic>& diags) {
  DiagCounts c;
  for (const Diagnostic& d : diags) {
    switch (d.severity) {
      case DiagSeverity::kError:
        ++c.errors;
        break;
      case DiagSeverity::kWarning:
        ++c.warnings;
        break;
      case DiagSeverity::kNote:
        ++c.notes;
        break;
    }
  }
  return c;
}

std::string RenderDiagnostic(const Diagnostic& d, std::string_view file) {
  std::string out;
  if (!file.empty()) out += std::string(file) + ":";
  if (d.loc.valid()) {
    out += std::to_string(d.loc.line) + ":" + std::to_string(d.loc.column) +
           ":";
  }
  if (!out.empty()) out += " ";
  out += std::string(DiagSeverityName(d.severity)) + "[" + d.code +
         "]: " + d.message;
  if (!d.predicate.empty()) out += " [" + d.predicate + "]";
  if (d.rule_index >= 0) out += " (rule " + std::to_string(d.rule_index) + ")";
  out += "\n";
  for (const std::string& n : d.notes) out += "    note: " + n + "\n";
  return out;
}

std::string RenderDiagnostics(const std::vector<Diagnostic>& diags,
                              std::string_view file) {
  std::string out;
  for (const Diagnostic& d : diags) out += RenderDiagnostic(d, file);
  const DiagCounts c = CountDiagnostics(diags);
  out += std::to_string(c.errors) + " error(s), " +
         std::to_string(c.warnings) + " warning(s), " +
         std::to_string(c.notes) + " note(s)\n";
  return out;
}

void DiagnosticsJsonContents(const std::vector<Diagnostic>& diags,
                             std::string_view program_name, JsonWriter* w) {
  const DiagCounts c = CountDiagnostics(diags);
  w->Key("program").String(program_name);
  w->Key("summary").BeginObject();
  w->Key("errors").UInt(c.errors);
  w->Key("warnings").UInt(c.warnings);
  w->Key("notes").UInt(c.notes);
  w->EndObject();
  w->Key("diagnostics").BeginArray();
  for (const Diagnostic& d : diags) {
    w->BeginObject();
    w->Key("code").String(d.code);
    w->Key("severity").String(DiagSeverityName(d.severity));
    w->Key("message").String(d.message);
    if (!d.predicate.empty()) w->Key("predicate").String(d.predicate);
    if (d.rule_index >= 0) w->Key("rule").Int(d.rule_index);
    if (d.loc.valid()) {
      w->Key("line").Int(d.loc.line);
      w->Key("column").Int(d.loc.column);
    }
    if (!d.notes.empty()) {
      w->Key("notes").BeginArray();
      for (const std::string& n : d.notes) w->String(n);
      w->EndArray();
    }
    w->EndObject();
  }
  w->EndArray();
}

void DiagnosticsToJson(const std::vector<Diagnostic>& diags,
                       std::string_view program_name, JsonWriter* w) {
  w->BeginObject();
  DiagnosticsJsonContents(diags, program_name, w);
  w->EndObject();
}

std::string DiagnosticsJson(const std::vector<Diagnostic>& diags,
                            std::string_view program_name) {
  JsonWriter w;
  DiagnosticsToJson(diags, program_name, &w);
  return w.Take();
}

}  // namespace gdlog
