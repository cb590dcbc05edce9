// Rule safety: which goal binds which variable, when a goal can run, and
// the GD001/GD002/GD008 diagnostics of a rule that reads a variable its
// body cannot bind. The paper gives choice, least/most and negation
// their meaning by rewriting them into negation over the rule body, so
// the stable-model guarantee needs every such variable bound. Lint
// prints the diagnostics, the rule compiler refuses a rule with the
// first of them and orders body goals by GoalReady, and the
// stable-model checker quantifies a negated atom by IsLocalVariable.
//
// A positive atom binds its variables, but arithmetic is evaluated,
// never inverted: a variable only inside an arithmetic argument binds
// nothing, and the atom waits until it is bound. An `=` with a bare
// unbound variable on one side binds it; next(I) binds I. Goals inside
// `not (...)` bind nothing outside it. Choice, grouping, head and
// extremum-cost variables must be bound, a next rule's cost by goals
// that do not read the stage variable. Readiness is monotone, so
// whether every goal of a body can run does not depend on the order in
// which ready goals are taken.
#ifndef GDLOG_ANALYSIS_SAFETY_H_
#define GDLOG_ANALYSIS_SAFETY_H_

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "ast/ast.h"

namespace gdlog {

/// Whether a variable is bound where a goal would run.
using IsBoundFn = std::function<bool(const std::string&)>;

/// True when every occurrence of `var` in `rule` lies inside `goal`
/// (a body literal of `rule`, or one nested in its `not (...)`).
bool IsLocalVariable(const std::string& var, const Literal& goal,
                     const Rule& rule);

/// True when `goal`, a body literal of `rule` (or one nested in its
/// `not (...)`), can run once the variables `is_bound` accepts are bound.
/// Choice and extremum goals never run.
bool GoalReady(const Literal& goal, const Rule& rule,
               const IsBoundFn& is_bound);

/// GD001, GD002 and GD008 for `rule`: at most one per code and variable,
/// body goals in source order before the head, each located at its goal
/// and naming the head predicate. An anonymous variable is named `_`.
/// With `head_params_bound` the head's variables are bound before the
/// body runs (the stable-model checker's aux$ rules, whose head
/// arguments are call parameters).
std::vector<Diagnostic> RuleSafetyDiagnostics(const Rule& rule,
                                              bool head_params_bound = false);

}  // namespace gdlog

#endif  // GDLOG_ANALYSIS_SAFETY_H_
