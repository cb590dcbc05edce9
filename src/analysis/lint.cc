#include "analysis/lint.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/dep_graph.h"
#include "parser/parser.h"

namespace gdlog {

namespace {

using VarSet = std::unordered_set<std::string>;

std::string PredKey(const std::string& name, size_t arity) {
  return name + "/" + std::to_string(arity);
}

bool AllVarsBound(const TermNode& t, const VarSet& bound) {
  std::vector<std::string> vars;
  CollectVariables(t, &vars);
  for (const std::string& v : vars) {
    if (bound.count(v) == 0) return false;
  }
  return true;
}

/// Variables bound by the positive goals of `body`, starting from
/// `initial` (the enclosing scope for NotExists conjunctions). Positive
/// atoms bind all their variables; next(I) binds its stage variable (the
/// counter generates it); an equality binds one side's variable once the
/// other side is fully bound.
VarSet BoundVars(const std::vector<Literal>& body, const VarSet& initial) {
  VarSet bound = initial;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& l : body) {
      switch (l.kind) {
        case LiteralKind::kAtom:
          if (!l.negated) {
            std::vector<std::string> vars;
            for (const TermNode& a : l.args) CollectVariables(a, &vars);
            for (const std::string& v : vars) {
              if (bound.insert(v).second) changed = true;
            }
          }
          break;
        case LiteralKind::kNext:
          if (bound.insert(l.args[0].name).second) changed = true;
          break;
        case LiteralKind::kComparison:
          if (l.op == ComparisonOp::kEq) {
            const TermNode& lhs = l.args[0];
            const TermNode& rhs = l.args[1];
            if (lhs.is_var() && AllVarsBound(rhs, bound) &&
                bound.insert(lhs.name).second) {
              changed = true;
            }
            if (rhs.is_var() && AllVarsBound(lhs, bound) &&
                bound.insert(rhs.name).second) {
              changed = true;
            }
          }
          break;
        default:
          break;
      }
    }
  }
  return bound;
}

std::vector<std::string> DistinctVarsOf(const TermNode& t) {
  std::vector<std::string> all;
  CollectVariables(t, &all);
  std::vector<std::string> out;
  for (std::string& n : all) {
    if (std::find(out.begin(), out.end(), n) == out.end()) {
      out.push_back(std::move(n));
    }
  }
  return out;
}

/// True when every occurrence of variable `v` in `rule` lies inside
/// `lit`: the variable is local to that goal. Anonymous variables, each
/// named apart, always are.
bool IsLocalVariable(const std::string& v, const Literal& lit,
                     const Rule& rule) {
  std::vector<std::string> inside, all;
  CollectLiteralVariables(lit, &inside);
  CollectLiteralVariables(rule.head, &all);
  for (const Literal& l : rule.body) CollectLiteralVariables(l, &all);
  return std::count(all.begin(), all.end(), v) ==
         std::count(inside.begin(), inside.end(), v);
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
  Linter(const Program& program, const LintOptions& options)
      : program_(program), options_(options) {}

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

  // -- GD101-GD105: per-rule structural errors ----------------------------

  void CheckRuleStructure(uint32_t ri) {
    const Rule& r = program_.rules[ri];
    std::vector<const Literal*> nexts;
    std::vector<const Literal*> extrema;
    for (const Literal& l : r.body) {
      if (l.kind == LiteralKind::kNext) nexts.push_back(&l);
      if (l.kind == LiteralKind::kLeast || l.kind == LiteralKind::kMost) {
        extrema.push_back(&l);
      }
    }
    if (nexts.size() > 1) {
      structural_error_ = true;
      Emit(AtRule(diag::kMultipleNext,
                  "rule for " + r.head.predicate + " has " +
                      std::to_string(nexts.size()) +
                      " next goals; at most one is allowed",
                  ri, nexts[1]->loc));
    } else if (nexts.size() == 1) {
      const std::string& sv = nexts[0]->args[0].name;
      int occurrences = 0;
      for (const TermNode& arg : r.head.args) {
        if (arg.is_var() && arg.name == sv) ++occurrences;
      }
      if (occurrences != 1) {
        structural_error_ = true;
        Emit(AtRule(diag::kBadStageVar,
                    "stage variable " + sv + " of next(...) " +
                        (occurrences == 0
                             ? "does not appear in the head"
                             : "appears more than once in the head") +
                        " of a rule for " + r.head.predicate,
                    ri, nexts[0]->loc));
      }
    }
    if (extrema.size() > 1) {
      structural_error_ = true;
      Emit(AtRule(diag::kMultipleExtrema,
                  "rule for " + r.head.predicate +
                      " has more than one extrema goal",
                  ri, extrema[1]->loc));
    }
    for (const Literal* ext : extrema) {
      const TermNode& cost = ext->args[0];
      const char* which =
          ext->kind == LiteralKind::kLeast ? "least" : "most";
      if (!cost.is_var()) {
        structural_error_ = true;
        Emit(AtRule(diag::kNonVariableCost,
                    std::string(which) + " cost in a rule for " +
                        r.head.predicate + " must be a single variable",
                    ri, ext->loc));
        continue;
      }
      const std::vector<std::string> group_vars = DistinctVarsOf(ext->args[1]);
      if (std::find(group_vars.begin(), group_vars.end(), cost.name) !=
          group_vars.end()) {
        structural_error_ = true;
        Emit(AtRule(diag::kCostInGroup,
                    std::string(which) + " cost variable " + cost.name +
                        " also appears in the grouping of a rule for " +
                        r.head.predicate,
                    ri, ext->loc));
      }
    }
  }

  // -- GD001/GD002/GD008: rule safety (range restriction) -----------------

  void CheckRuleSafety(uint32_t ri) {
    const Rule& r = program_.rules[ri];
    std::set<std::string> flagged;  // "<code>:<var>" dedup within the rule
    const VarSet bound = CheckGoalsSafety(r.body, VarSet{}, ri, &flagged);
    for (const TermNode& arg : r.head.args) {
      for (const std::string& v : DistinctVarsOf(arg)) {
        if (bound.count(v) != 0) continue;
        if (!flagged.insert(std::string(diag::kUnsafeHeadVar) + ":" + v)
                 .second) {
          continue;
        }
        Emit(AtRule(diag::kUnsafeHeadVar,
                    "head variable " + v + " of " + r.head.predicate +
                        (r.is_fact()
                             ? " makes the fact non-ground"
                             : " is not bound by any positive body goal"),
                    ri, r.head.loc));
      }
    }
  }

  /// Checks every negated / built-in goal of `body` (recursing into
  /// NotExists conjunctions with the enclosing bindings) and returns the
  /// variables bound at this level.
  VarSet CheckGoalsSafety(const std::vector<Literal>& body,
                          const VarSet& outer, uint32_t ri,
                          std::set<std::string>* flagged) {
    const VarSet bound = BoundVars(body, outer);
    auto flag_unbound = [&](const TermNode& t, std::string_view code,
                            const std::string& context, SourceLoc loc,
                            const Literal* local_to = nullptr) {
      for (const std::string& v : DistinctVarsOf(t)) {
        if (bound.count(v) != 0) continue;
        if (local_to != nullptr &&
            IsLocalVariable(v, *local_to, program_.rules[ri])) {
          continue;
        }
        if (!flagged->insert(std::string(code) + ":" + v).second) continue;
        Emit(AtRule(code,
                    "variable " + v + " in " + context +
                        " is not bound by any positive body goal",
                    ri, loc));
      }
    };
    for (const Literal& l : body) {
      switch (l.kind) {
        case LiteralKind::kAtom:
          if (l.negated) {
            // A variable that occurs nowhere else in the rule is local
            // to its negated goal, as the compiler and the stable-model
            // check take it: not e(Y, X) holds when no e(Y, X) exists
            // for any Y.
            for (const TermNode& a : l.args) {
              flag_unbound(a, diag::kUnsafeBodyVar,
                           "negated goal not " + l.predicate, l.loc, &l);
            }
          }
          break;
        case LiteralKind::kComparison:
          flag_unbound(l.args[0], diag::kUnsafeBodyVar, "a comparison",
                       l.loc);
          flag_unbound(l.args[1], diag::kUnsafeBodyVar, "a comparison",
                       l.loc);
          break;
        case LiteralKind::kNotExists:
          CheckGoalsSafety(l.body, bound, ri, flagged);
          break;
        case LiteralKind::kChoice:
          flag_unbound(l.args[0], diag::kUnsafeBodyVar, "a choice goal",
                       l.loc);
          flag_unbound(l.args[1], diag::kUnsafeBodyVar, "a choice goal",
                       l.loc);
          break;
        case LiteralKind::kLeast:
        case LiteralKind::kMost: {
          const char* which =
              l.kind == LiteralKind::kLeast ? "least" : "most";
          const TermNode& cost = l.args[0];
          if (cost.is_var() && bound.count(cost.name) == 0 &&
              flagged
                  ->insert(std::string(diag::kUnboundExtremaCost) + ":" +
                           cost.name)
                  .second) {
            Emit(AtRule(diag::kUnboundExtremaCost,
                        std::string(which) + " cost variable " + cost.name +
                            " is not bound by any positive body goal",
                        ri, l.loc));
          }
          flag_unbound(l.args[1], diag::kUnsafeBodyVar,
                       std::string(which) + " grouping", l.loc);
          break;
        }
        case LiteralKind::kNext:
          break;
      }
    }
    return bound;
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
      const std::vector<std::string> left = DistinctVarsOf(g->args[0]);
      const std::vector<std::string> right = DistinctVarsOf(g->args[1]);
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
    if (!options_.check_stratification || structural_error_) return;
    auto analyzed = AnalyzeStages(program_, options_.stage);
    if (!analyzed.ok()) {
      // Structural stage errors (conflicting stage positions etc.) come
      // back through Status with an embedded code; surface them as-is.
      std::string code = DiagCodeOfStatus(analyzed.status());
      std::string msg = analyzed.status().message();
      if (code.empty()) {
        code = std::string(diag::kNotStageStratified);
      } else {
        msg = msg.substr(code.size() + 3);  // strip "[GDnnn] "
      }
      Emit(MakeDiagnostic(code, std::move(msg)));
      return;
    }
    const StageAnalysis& a = *analyzed;
    const DependencyGraph& g = *a.graph;
    for (uint32_t scc : a.clique_order) {
      const CliqueStageInfo& cl = a.cliques[scc];
      if (cl.cls != CliqueClass::kRejected &&
          cl.cls != CliqueClass::kRelaxedStage) {
        continue;
      }
      const bool rejected = cl.cls == CliqueClass::kRejected;
      std::string members;
      for (size_t i = 0; i < cl.members.size(); ++i) {
        if (i) members += ", ";
        members += PredKey(g.name(cl.members[i]), g.arity(cl.members[i]));
      }
      std::string code = cl.code;
      if (code.empty()) {
        code = std::string(rejected ? diag::kNotStageStratified
                                    : diag::kRelaxedStratification);
      }
      Diagnostic d = MakeDiagnostic(
          code, rejected
                    ? "recursive clique {" + members +
                          "} is not stage-stratified"
                    : "recursive clique {" + members +
                          "} is accepted under relaxed flat-rule "
                          "stratification only (stable-model guarantee "
                          "does not follow syntactically)");
      if (!cl.members.empty()) {
        d.predicate = PredKey(g.name(cl.members[0]), g.arity(cl.members[0]));
      }
      if (!cl.rules.empty()) {
        const CliqueClause first = FirstCliqueClause(program_, a, cl);
        d.rule_index = static_cast<int>(first.clause);
        d.loc = first.loc;
      }
      const std::string cycle = FormatCycle(g, scc);
      if (!cycle.empty()) d.notes.push_back(cycle);
      if (!cl.diagnostic.empty()) d.notes.push_back(cl.diagnostic);
      Emit(std::move(d));
    }
  }

  /// "dependency cycle: p -> cand ~> blocked -> p" over the expanded
  /// program's dependency graph; `~>` marks an edge under negation.
  static std::string FormatCycle(const DependencyGraph& g, uint32_t scc) {
    const std::vector<uint32_t> cycle = g.CycleWithin(scc);
    if (cycle.empty()) return "";
    bool any_negative = false;
    std::string out = g.name(g.edges()[cycle.front()].from);
    for (uint32_t ei : cycle) {
      const DependencyGraph::Edge& e = g.edges()[ei];
      any_negative |= e.negative;
      out += e.negative ? " ~> " : " -> ";
      out += g.name(e.to);
    }
    std::string text = "dependency cycle: " + out;
    if (any_negative) text += " (~> marks a dependency under negation)";
    return text;
  }

  const Program& program_;
  const LintOptions& options_;
  std::vector<Diagnostic> diags_;
  bool structural_error_ = false;
};

}  // namespace

LintResult LintProgram(const Program& program, const LintOptions& options) {
  return Linter(program, options).Run();
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
