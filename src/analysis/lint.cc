#include "analysis/lint.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/safety.h"
#include "common/logging.h"
#include "parser/parser.h"

namespace gdlog {

namespace {

std::string PredKey(const std::string& name, size_t arity) {
  return name + "/" + std::to_string(arity);
}

/// "line N, column M" parsed back out of a parser error message.
SourceLoc LocFromErrorMessage(const std::string& msg) {
  SourceLoc loc;
  const size_t lp = msg.find("line ");
  const size_t cp = msg.find("column ");
  if (lp == std::string::npos || cp == std::string::npos) return loc;
  loc.line = std::atoi(msg.c_str() + lp + 5);
  loc.column = std::atoi(msg.c_str() + cp + 7);
  return loc;
}

class Linter {
 public:
  /// `analysis` is the stage analysis of `program`, or null to run it.
  Linter(const Program& program, const LintOptions& options,
         const StageAnalysis* analysis)
      : program_(program), options_(options), analysis_(analysis) {}

  LintResult Run() {
    for (uint32_t ri = 0; ri < program_.rules.size(); ++ri) {
      CheckRuleStructure(ri);
      CheckRuleSafety(ri);
      CheckChoiceGoals(ri);
    }
    CheckPredicates();
    CheckReachability();
    CheckStratification();

    LintResult result;
    result.diagnostics = std::move(diags_);
    SortDiagnostics(&result.diagnostics);
    result.counts = CountDiagnostics(result.diagnostics);
    return result;
  }

 private:
  void Emit(Diagnostic d) { diags_.push_back(std::move(d)); }

  Diagnostic AtRule(std::string_view code, std::string message, uint32_t ri,
                    SourceLoc loc) {
    Diagnostic d = MakeDiagnostic(code, std::move(message));
    d.rule_index = static_cast<int>(program_.ClauseOf(ri));
    d.loc = loc.valid() ? loc : program_.rules[ri].loc;
    const Literal& head = program_.rules[ri].head;
    d.predicate = PredKey(head.predicate, head.args.size());
    return d;
  }

  // -- GD101-GD105/GD111: rule shape (analysis/stage.h) --------------------

  void CheckRuleStructure(uint32_t ri) {
    for (Diagnostic& d : RuleStructureDiagnostics(program_.rules[ri])) {
      structural_error_ = true;
      d.rule_index = static_cast<int>(program_.ClauseOf(ri));
      Emit(std::move(d));
    }
  }

  // -- GD001/GD002/GD008: rule safety (range restriction) -----------------

  void CheckRuleSafety(uint32_t ri) {
    for (Diagnostic& d : RuleSafetyDiagnostics(program_.rules[ri])) {
      d.rule_index = static_cast<int>(program_.ClauseOf(ri));
      Emit(std::move(d));
    }
  }

  // -- GD006/GD007: choice FD hygiene -------------------------------------

  void CheckChoiceGoals(uint32_t ri) {
    const Rule& r = program_.rules[ri];
    std::vector<const Literal*> goals;
    for (const Literal& l : r.body) {
      if (l.kind == LiteralKind::kChoice) goals.push_back(&l);
    }
    for (size_t i = 0; i < goals.size(); ++i) {
      for (size_t j = i + 1; j < goals.size(); ++j) {
        if (TermEquals(goals[i]->args[0], goals[j]->args[0]) &&
            TermEquals(goals[i]->args[1], goals[j]->args[1])) {
          Emit(AtRule(diag::kDuplicateChoice,
                      "duplicate choice goal in a rule for " +
                          r.head.predicate,
                      ri, goals[j]->loc));
        }
      }
    }
    for (const Literal* g : goals) {
      const std::vector<std::string> left = DistinctVariables(g->args[0]);
      const std::vector<std::string> right = DistinctVariables(g->args[1]);
      if (right.empty()) {
        Emit(AtRule(diag::kDegenerateChoice,
                    "choice FD in a rule for " + r.head.predicate +
                        " has no variables on its right side and "
                        "constrains nothing",
                    ri, g->loc));
        continue;
      }
      for (const std::string& v : left) {
        if (std::find(right.begin(), right.end(), v) != right.end()) {
          Emit(AtRule(diag::kDegenerateChoice,
                      "choice FD in a rule for " + r.head.predicate +
                          " lists variable " + v +
                          " on both sides; the FD is trivially satisfied",
                      ri, g->loc));
          break;
        }
      }
    }
  }

  // -- GD003/GD004/GD005: predicate bookkeeping ---------------------------

  struct PredUse {
    bool defined = false;
    bool rule_defined = false;  // head of at least one non-fact rule
    bool used = false;
    int def_rule = -1;
    SourceLoc def_loc;
    int use_rule = -1;
    SourceLoc use_loc;
  };

  void CheckPredicates() {
    std::map<std::string, PredUse> preds;  // ordered for stable output
    std::map<std::string, std::set<uint32_t>> arities;
    for (uint32_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& r = program_.rules[ri];
      const int clause = static_cast<int>(program_.ClauseOf(ri));
      PredUse& head = preds[PredKey(r.head.predicate, r.head.args.size())];
      if (!head.defined) {
        head.defined = true;
        head.def_rule = clause;
        head.def_loc = r.head.loc;
      }
      if (!r.is_fact()) head.rule_defined = true;
      arities[r.head.predicate].insert(
          static_cast<uint32_t>(r.head.args.size()));
      std::function<void(const Literal&)> visit = [&](const Literal& l) {
        if (l.kind == LiteralKind::kAtom) {
          PredUse& u = preds[PredKey(l.predicate, l.args.size())];
          if (!u.used) {
            u.used = true;
            u.use_rule = clause;
            u.use_loc = l.loc;
          }
          arities[l.predicate].insert(static_cast<uint32_t>(l.args.size()));
        }
        for (const Literal& inner : l.body) visit(inner);
      };
      for (const Literal& l : r.body) visit(l);
    }
    // Ground facts define their predicates from the batch: its first
    // clause, unless a rule comes earlier.
    for (const FactBatch& b : program_.facts) {
      PredUse& head = preds[PredKey(b.predicate, b.arity)];
      if (!head.defined || static_cast<int>(b.first_clause) < head.def_rule) {
        head.defined = true;
        head.def_rule = static_cast<int>(b.first_clause);
        head.def_loc = b.loc;
      }
      arities[b.predicate].insert(b.arity);
    }

    std::set<std::string> roots;
    for (const Program::PredicateRef& ref : options_.roots) {
      roots.insert(PredKey(ref.name, ref.arity));
    }
    for (const auto& [key, info] : preds) {
      if (info.used && !info.defined) {
        Diagnostic d = MakeDiagnostic(
            diag::kUndefinedPredicate,
            "predicate " + key + " is used but never defined by a fact or "
            "rule (did you misspell it, or forget to add EDB facts?)");
        d.predicate = key;
        d.rule_index = info.use_rule;
        d.loc = info.use_loc;
        Emit(std::move(d));
      }
      // A rule-defined predicate nobody consumes is presumed to be a
      // query output unless explicit roots say otherwise; a fact-only
      // predicate nobody consumes is dead data (typically a typo).
      const bool presumed_output = roots.empty() && info.rule_defined;
      if (info.defined && !info.used && roots.count(key) == 0 &&
          !presumed_output) {
        Diagnostic d = MakeDiagnostic(
            diag::kUnusedPredicate,
            "predicate " + key + " is defined but never used" +
                (roots.empty() ? "" : " and is not a query root"));
        d.predicate = key;
        d.rule_index = info.def_rule;
        d.loc = info.def_loc;
        Emit(std::move(d));
      }
    }
    for (const auto& [name, as] : arities) {
      if (as.size() < 2) continue;
      std::string list;
      for (uint32_t a : as) {
        if (!list.empty()) list += ", ";
        list += std::to_string(a);
      }
      const PredUse& info = preds[PredKey(name, *as.begin())];
      Diagnostic d = MakeDiagnostic(
          diag::kArityMismatch,
          "predicate " + name + " is used with inconsistent arities (" +
              list + "); gdlog treats each arity as a distinct predicate");
      d.predicate = name + "/" + std::to_string(*as.begin());
      d.rule_index = info.defined ? info.def_rule : info.use_rule;
      d.loc = info.defined ? info.def_loc : info.use_loc;
      Emit(std::move(d));
    }
  }

  // -- GD010: reachability from the query roots ---------------------------

  void CheckReachability() {
    if (options_.roots.empty()) return;
    // head -> body predicate adjacency over name/arity keys.
    std::map<std::string, std::set<std::string>> deps;
    for (const Rule& r : program_.rules) {
      std::set<std::string>& out =
          deps[PredKey(r.head.predicate, r.head.args.size())];
      std::function<void(const Literal&)> visit = [&](const Literal& l) {
        if (l.kind == LiteralKind::kAtom) {
          out.insert(PredKey(l.predicate, l.args.size()));
        }
        for (const Literal& inner : l.body) visit(inner);
      };
      for (const Literal& l : r.body) visit(l);
    }
    std::set<std::string> reachable;
    std::vector<std::string> stack;
    for (const Program::PredicateRef& ref : options_.roots) {
      const std::string key = PredKey(ref.name, ref.arity);
      if (reachable.insert(key).second) stack.push_back(key);
    }
    while (!stack.empty()) {
      const std::string key = std::move(stack.back());
      stack.pop_back();
      auto it = deps.find(key);
      if (it == deps.end()) continue;
      for (const std::string& next : it->second) {
        if (reachable.insert(next).second) stack.push_back(next);
      }
    }
    for (uint32_t ri = 0; ri < program_.rules.size(); ++ri) {
      const Rule& r = program_.rules[ri];
      if (r.is_fact()) continue;  // dead facts are GD004's business
      const std::string key = PredKey(r.head.predicate, r.head.args.size());
      if (reachable.count(key) != 0) continue;
      Emit(AtRule(diag::kUnreachableRule,
                  "rule for " + key +
                      " cannot contribute to any query root",
                  ri, r.loc));
    }
  }

  // -- GD009/GD011/GD106-GD109: stage-stratification ----------------------

  void CheckStratification() {
    // AnalyzeStages fails only on a malformed rule, reported above.
    if (structural_error_) return;
    if (analysis_ != nullptr) return CheckCliques(*analysis_);
    const Result<StageAnalysis> analyzed = AnalyzeStages(program_);
    GDLOG_CHECK(analyzed.ok()) << analyzed.status().ToString();
    CheckCliques(*analyzed);
  }

  void CheckCliques(const StageAnalysis& a) {
    for (uint32_t scc : a.clique_order) {
      const CliqueClass cls = a.cliques[scc].cls;
      if (cls == CliqueClass::kRejected || cls == CliqueClass::kRelaxedStage) {
        Emit(CliqueDiagnostic(program_, a, scc));
      }
    }
  }

  const Program& program_;
  const LintOptions& options_;
  const StageAnalysis* analysis_;
  std::vector<Diagnostic> diags_;
  bool structural_error_ = false;
};

}  // namespace

LintResult LintProgram(const Program& program, const LintOptions& options) {
  return Linter(program, options, nullptr).Run();
}

LintResult LintProgram(const Program& program, const StageAnalysis& analysis,
                       const LintOptions& options) {
  return Linter(program, options, &analysis).Run();
}

LintResult LintSource(ValueStore* store, std::string_view source,
                      const LintOptions& options) {
  auto parsed = ParseProgram(store, source);
  if (!parsed.ok()) {
    LintResult result;
    Diagnostic d =
        MakeDiagnostic(diag::kParseError, parsed.status().message());
    d.loc = LocFromErrorMessage(parsed.status().message());
    result.diagnostics.push_back(std::move(d));
    result.counts = CountDiagnostics(result.diagnostics);
    return result;
  }
  return LintProgram(*parsed, options);
}

}  // namespace gdlog
