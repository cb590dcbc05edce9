#include "analysis/safety.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace gdlog {

namespace {

using VarSet = std::unordered_set<std::string>;

bool Contains(const std::vector<std::string>& vars, const std::string& v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

/// Appends the variables of `t` that lie inside an arithmetic term.
void CollectArithmeticVariables(const TermNode& t, bool in_arith,
                                std::vector<std::string>* out) {
  if (t.is_var()) {
    if (in_arith) out->push_back(t.name);
    return;
  }
  in_arith = in_arith || IsArithmeticTerm(t);
  for (const TermNode& a : t.args) {
    CollectArithmeticVariables(a, in_arith, out);
  }
}

bool TermBound(const TermNode& t, const IsBoundFn& is_bound) {
  std::vector<std::string> vars;
  CollectVariables(t, &vars);
  return std::all_of(vars.begin(), vars.end(), std::cref(is_bound));
}

/// The variables that keep `goal` — an atom, comparison or negated
/// conjunction — from running under `is_bound`, distinct and in order of
/// occurrence; empty when it can run.
std::vector<std::string> Blockers(const Literal& goal, const Rule& rule,
                                  const IsBoundFn& is_bound) {
  if (goal.kind == LiteralKind::kComparison) {
    const bool lhs = TermBound(goal.args[0], is_bound);
    const bool rhs = TermBound(goal.args[1], is_bound);
    if ((lhs && rhs) ||
        (goal.op == ComparisonOp::kEq &&
         ((rhs && goal.args[0].is_var()) || (lhs && goal.args[1].is_var())))) {
      return {};
    }
  }
  std::vector<std::string> vars, arith, out;
  CollectLiteralVariables(goal, &vars);
  for (const TermNode& a : goal.args) {
    CollectArithmeticVariables(a, false, &arith);
  }
  for (const std::string& v : vars) {
    if (is_bound(v) || Contains(out, v)) continue;
    // A comparison needs every variable; an atom those of its arithmetic
    // arguments, and a negation each one not local to it.
    if (goal.kind == LiteralKind::kComparison || Contains(arith, v) ||
        (!goal.is_positive_atom() && !IsLocalVariable(v, goal, rule))) {
      out.push_back(v);
    }
  }
  return out;
}

IsBoundFn BoundIn(const VarSet& bound) {
  return [&bound](const std::string& v) { return bound.count(v) > 0; };
}

/// Adds to `bound` what `goal`, ready under it, binds.
void Bind(const Literal& goal, VarSet* bound) {
  std::vector<std::string> vars;
  if (goal.is_positive_atom() || goal.kind == LiteralKind::kNext) {
    CollectLiteralVariables(goal, &vars);
  } else if (goal.kind == LiteralKind::kComparison &&
             goal.op == ComparisonOp::kEq) {
    // Ready, so a bare variable on either side is bound or assigned.
    for (const TermNode& side : goal.args) {
      if (side.is_var()) vars.push_back(side.name);
    }
  }
  bound->insert(vars.begin(), vars.end());
}

/// Runs each goal of `goals` that `wait` does not hold back once it is
/// ready, until no more can run; `bound` gains what they bind.
void RunReadyGoals(const std::vector<Literal>& goals, const Rule& rule,
                   VarSet* bound,
                   const std::function<bool(const Literal&)>& wait = {}) {
  const IsBoundFn is_bound = BoundIn(*bound);
  std::vector<bool> ran(goals.size(), false);
  for (bool progress = true; progress;) {
    progress = false;
    for (size_t i = 0; i < goals.size(); ++i) {
      if (ran[i] || (wait && wait(goals[i])) ||
          !GoalReady(goals[i], rule, is_bound)) {
        continue;
      }
      Bind(goals[i], bound);
      ran[i] = progress = true;
    }
  }
}

/// The name a diagnostic shows for `var`: `_` for the parser's name of
/// an anonymous variable.
std::string ShownName(const std::string& var) {
  return IsAnonymousVariable(var) ? "_" : var;
}

class SafetyChecker {
 public:
  explicit SafetyChecker(const Rule& rule) : rule_(rule) {}

  std::vector<Diagnostic> Check(bool head_params_bound) {
    VarSet bound;
    if (head_params_bound) {
      std::vector<std::string> vars;
      CollectLiteralVariables(rule_.head, &vars);
      bound.insert(vars.begin(), vars.end());
    }
    // A next rule's candidates enter the queue before their stage is
    // known: the goals that read the stage variable wait for it.
    for (const Literal& l : rule_.body) {
      if (l.kind == LiteralKind::kNext) stage_ = &l.args[0].name;
    }
    if (stage_ != nullptr) {
      generator_ = bound;
      RunReadyGoals(rule_.body, rule_, &generator_, [this](const Literal& l) {
        std::vector<std::string> vars;
        CollectLiteralVariables(l, &vars);
        return Contains(vars, *stage_);
      });
    }
    RunReadyGoals(rule_.body, rule_, &bound);
    CheckGoals(rule_.body, bound);
    for (const TermNode& arg : rule_.head.args) {
      for (const std::string& v : DistinctVariables(arg)) {
        if (bound.count(v) != 0) continue;
        Flag(diag::kUnsafeHeadVar, v,
             "head variable " + ShownName(v) + " of " + rule_.head.predicate +
                 (rule_.is_fact() ? " makes the fact non-ground"
                                  : " is not bound by any positive body goal"),
             rule_.head.loc);
      }
    }
    // A `not (...)` that cannot run is reported for the shared variables
    // no other diagnostic names.
    for (const auto& [v, goal] : conjunction_blockers_) {
      if (reported_.count(v) == 0) {
        FlagUnbound(v, "a negated conjunction", goal->loc);
      }
    }
    return std::move(diags_);
  }

 private:
  /// Reports what keeps goals of `goals` from running under `bound`, the
  /// closure of their body, and the choice and extremum variables it
  /// leaves unbound.
  void CheckGoals(const std::vector<Literal>& goals, const VarSet& bound) {
    const IsBoundFn is_bound = BoundIn(bound);
    for (const Literal& g : goals) {
      switch (g.kind) {
        case LiteralKind::kAtom:
        case LiteralKind::kComparison: {
          const std::string context =
              g.kind == LiteralKind::kComparison
                  ? "a comparison"
                  : (g.negated ? "negated goal not "
                               : "an arithmetic argument of ") +
                        g.predicate;
          for (const std::string& v : Blockers(g, rule_, is_bound)) {
            FlagUnbound(v, context, g.loc);
          }
          break;
        }
        case LiteralKind::kNotExists: {
          VarSet inner = bound;
          RunReadyGoals(g.body, rule_, &inner);
          CheckGoals(g.body, inner);
          for (std::string& v : Blockers(g, rule_, is_bound)) {
            conjunction_blockers_.emplace_back(std::move(v), &g);
          }
          break;
        }
        case LiteralKind::kChoice:
          for (const TermNode& side : g.args) {
            FlagUnbound(side, bound, "a choice goal", g.loc);
          }
          break;
        case LiteralKind::kLeast:
        case LiteralKind::kMost: {
          const std::string which =
              g.kind == LiteralKind::kLeast ? "least" : "most";
          const TermNode& cost = g.args[0];
          if (cost.is_var() && bound.count(cost.name) == 0) {
            Flag(diag::kUnboundExtremaCost, cost.name,
                 which + " cost variable " + ShownName(cost.name) +
                     " is not bound by any positive body goal",
                 g.loc);
          } else if (cost.is_var() && stage_ != nullptr &&
                     generator_.count(cost.name) == 0) {
            Flag(diag::kUnboundExtremaCost, cost.name,
                 which + " cost variable " + ShownName(cost.name) +
                     " is bound only by goals that read the stage variable " +
                     ShownName(*stage_),
                 g.loc);
          }
          FlagUnbound(g.args[1], bound, which + " grouping", g.loc);
          break;
        }
        case LiteralKind::kNext:
          break;
      }
    }
  }

  void FlagUnbound(const TermNode& t, const VarSet& bound,
                   const std::string& context, SourceLoc loc) {
    for (const std::string& v : DistinctVariables(t)) {
      if (bound.count(v) == 0) FlagUnbound(v, context, loc);
    }
  }

  void FlagUnbound(const std::string& var, const std::string& context,
                   SourceLoc loc) {
    Flag(diag::kUnsafeBodyVar, var,
         "variable " + ShownName(var) + " in " + context +
             " is not bound by any positive body goal",
         loc);
  }

  void Flag(std::string_view code, const std::string& var, std::string message,
            SourceLoc loc) {
    if (!flagged_.insert(std::string(code) + ":" + var).second) return;
    reported_.insert(var);
    Diagnostic d = MakeDiagnostic(code, std::move(message));
    d.predicate = rule_.head.predicate + "/" +
                  std::to_string(rule_.head.args.size());
    d.loc = loc.valid() ? loc : rule_.loc;
    diags_.push_back(std::move(d));
  }

  const Rule& rule_;
  const std::string* stage_ = nullptr;  // a next rule's stage variable
  VarSet generator_;  // what a next rule binds before its stage is known
  std::vector<Diagnostic> diags_;
  VarSet flagged_;   // "<code>:<var>"
  VarSet reported_;  // variables some diagnostic names
  // Unbound shared variables of a `not (...)` that cannot run.
  std::vector<std::pair<std::string, const Literal*>> conjunction_blockers_;
};

}  // namespace

bool IsLocalVariable(const std::string& var, const Literal& goal,
                     const Rule& rule) {
  std::vector<std::string> inside, all;
  CollectLiteralVariables(goal, &inside);
  CollectLiteralVariables(rule.head, &all);
  for (const Literal& l : rule.body) CollectLiteralVariables(l, &all);
  return std::count(all.begin(), all.end(), var) ==
         std::count(inside.begin(), inside.end(), var);
}

bool GoalReady(const Literal& goal, const Rule& rule,
               const IsBoundFn& is_bound) {
  if (goal.kind == LiteralKind::kNext) return true;
  return !goal.is_meta() && Blockers(goal, rule, is_bound).empty();
}

std::vector<Diagnostic> RuleSafetyDiagnostics(const Rule& rule,
                                              bool head_params_bound) {
  return SafetyChecker(rule).Check(head_params_bound);
}

}  // namespace gdlog
