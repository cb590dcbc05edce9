// Unit tests for the compile-time diagnostics engine: one triggering and
// one non-triggering program per diagnostic code, the stratification
// cycle explanation, and the JSON emitter.
#include "analysis/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/absint/absint.h"
#include "analysis/dep_graph.h"
#include "analysis/diagnostics.h"
#include "analysis/rewriter.h"
#include "api/engine.h"
#include "parser/parser.h"

namespace gdlog {
namespace {

LintResult Lint(const char* text, LintOptions options = {}) {
  ValueStore store;
  return LintSource(&store, text, std::move(options));
}

bool HasCode(const LintResult& r, std::string_view code) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic& FindCode(const LintResult& r, std::string_view code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) return d;
  }
  ADD_FAILURE() << "no diagnostic with code " << code;
  static Diagnostic none;
  return none;
}

TEST(Lint, CleanProgramHasNoDiagnostics) {
  const LintResult r = Lint(R"(
    prm(nil, a, 0, 0).
    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                       least(C, I), choice(Y, X).
    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
    g(a, b, 1).
  )");
  EXPECT_TRUE(r.clean());
  EXPECT_TRUE(r.diagnostics.empty())
      << RenderDiagnostics(r.diagnostics, "");
}

// -- GD001: unsafe head variable --------------------------------------------

TEST(Lint, GD001UnsafeHeadVariable) {
  const LintResult r = Lint("out(X, Y) <- e(X).\ne(1).\n");
  EXPECT_FALSE(r.clean());
  const Diagnostic& d = FindCode(r, diag::kUnsafeHeadVar);
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_EQ(d.predicate, "out/2");
  EXPECT_EQ(d.rule_index, 0);
  EXPECT_NE(d.message.find("Y"), std::string::npos);
}

TEST(Lint, GD001NotFiredWhenHeadIsBound) {
  const LintResult r = Lint("out(X, Y) <- e(X, Y).\ne(1, 2).\n");
  EXPECT_FALSE(HasCode(r, diag::kUnsafeHeadVar));
}

TEST(Lint, GD001BindsThroughEqualityArithmetic) {
  // I = J + 1 binds I once J is bound; compound args bind their parts.
  const LintResult r = Lint(R"(
    out(I, X) <- e(t(X, _), J), I = J + 1.
    e(t(1, 2), 3).
  )");
  EXPECT_FALSE(HasCode(r, diag::kUnsafeHeadVar));
}

// -- GD002: unsafe variable in a negated or built-in goal -------------------

TEST(Lint, GD002UnsafeNegatedGoalVariable) {
  const LintResult r =
      Lint("p(X) <- q(X), not r(X, Z), Z > 0.\nq(1).\nr(1, 2).\n");
  const Diagnostic& d = FindCode(r, diag::kUnsafeBodyVar);
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("Z"), std::string::npos);
}

TEST(Lint, GD002NotFiredForLocalVariableInNegatedGoal) {
  // Y occurs nowhere else in the rule, so it is local to the negated
  // goal, as the compiler and the stable-model check take it: q holds
  // for the p values no edge enters (the engine derives q = {1, 5}).
  const LintResult r = Lint(
      "e(1,2). e(3,4). p(1). p(2). p(4). p(5).\n"
      "q(X) <- p(X), not e(Y, X).\n");
  EXPECT_FALSE(HasCode(r, diag::kUnsafeBodyVar))
      << RenderDiagnostics(r.diagnostics, "");
  EXPECT_TRUE(r.clean());
}

TEST(Lint, GD002FiredWhenAComparisonAlsoReadsTheVariable) {
  // Y also occurs in a goal that cannot bind it, so it is not local.
  const LintResult r = Lint(
      "e(1,2). e(3,4). p(1). p(2). p(4). p(5).\n"
      "q(X) <- p(X), not e(Y, X), Y > 2.\n");
  const Diagnostic& d = FindCode(r, diag::kUnsafeBodyVar);
  EXPECT_EQ(d.message,
            "variable Y in negated goal not e is not bound by any positive "
            "body goal");
}

TEST(Lint, GD002NotFiredForAnonymousVariableInNegatedGoal) {
  // not e(_, X): no edge enters X from anywhere. The anonymous variable
  // needs no positive binding (tests/fixtures/neg_anon.dl).
  const LintResult r =
      Lint("p(X) <- src(X), not e(_, X).\ne(1, 2).\nsrc(1).\n");
  EXPECT_FALSE(HasCode(r, diag::kUnsafeBodyVar))
      << RenderDiagnostics(r.diagnostics, "");
}

TEST(Lint, GD002StillFiredForNamedVariableBesideAnonymous) {
  // Z also appears in a comparison; the anonymous variable beside it is
  // not reported, and the parser's name for it never leaks.
  const LintResult r = Lint(
      "p(X) <- src(X), not e(_, X, Z), Z > 2.\ne(1, 2, 3).\nsrc(1).\n");
  const Diagnostic& d = FindCode(r, diag::kUnsafeBodyVar);
  EXPECT_NE(d.message.find("variable Z"), std::string::npos) << d.message;
  for (const Diagnostic& other : r.diagnostics) {
    EXPECT_EQ(other.message.find("_G"), std::string::npos) << other.message;
  }
}

TEST(Lint, GD002NotFiredWhenNotExistsBindsLocally) {
  // Z is bound inside the NotExists conjunction by its own positive atom.
  const LintResult r = Lint(R"(
    p(X) <- q(X), not (r(X, Z), Z > 0).
    q(1).
    r(1, 2).
  )");
  EXPECT_FALSE(HasCode(r, diag::kUnsafeBodyVar));
}

// -- GD003: undefined predicate ---------------------------------------------

TEST(Lint, GD003UndefinedPredicate) {
  const LintResult r = Lint("p(X) <- q(X).\n");
  const Diagnostic& d = FindCode(r, diag::kUndefinedPredicate);
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.predicate, "q/1");
  EXPECT_TRUE(r.clean());  // warning, not error: EDB may arrive via AddFact
}

TEST(Lint, GD003NotFiredWhenDefinedByFact) {
  const LintResult r = Lint("p(X) <- q(X).\nq(1).\n");
  EXPECT_FALSE(HasCode(r, diag::kUndefinedPredicate));
}

// -- GD004: unused predicate ------------------------------------------------

TEST(Lint, GD004UnusedFactPredicate) {
  const LintResult r = Lint("p(X) <- e(X).\ne(1).\nq(7).\n");
  const Diagnostic& d = FindCode(r, diag::kUnusedPredicate);
  EXPECT_EQ(d.predicate, "q/1");
}

TEST(Lint, GD004NotFiredForRuleDefinedSinks) {
  // p is a rule-defined sink: presumed to be the query output.
  const LintResult r = Lint("p(X) <- e(X).\ne(1).\n");
  EXPECT_FALSE(HasCode(r, diag::kUnusedPredicate));
}

TEST(Lint, GD004FiredForNonRootSinksWhenRootsGiven) {
  LintOptions opts;
  opts.roots.push_back({"p", 1});
  const LintResult r =
      Lint("p(X) <- e(X).\nq(X) <- e(X).\ne(1).\n", opts);
  const Diagnostic& d = FindCode(r, diag::kUnusedPredicate);
  EXPECT_EQ(d.predicate, "q/1");
}

// -- GD005: arity mismatch --------------------------------------------------

TEST(Lint, GD005InconsistentArities) {
  const LintResult r = Lint(R"(
    p(X) <- q(X).
    p(X, Y) <- q(X), q(Y).
    out(X) <- p(X).
    out2(X) <- p(X, X).
    q(1).
  )");
  const Diagnostic& d = FindCode(r, diag::kArityMismatch);
  EXPECT_NE(d.message.find("p"), std::string::npos);
}

TEST(Lint, GD005NotFiredForConsistentArities) {
  const LintResult r = Lint("p(X) <- q(X).\nq(1).\n");
  EXPECT_FALSE(HasCode(r, diag::kArityMismatch));
}

// -- GD006 / GD007: choice hygiene ------------------------------------------

TEST(Lint, GD006DuplicateChoiceGoal) {
  const LintResult r = Lint(
      "p(X, Y) <- e(X, Y), choice(Y, X), choice(Y, X).\ne(1, 2).\n");
  EXPECT_TRUE(HasCode(r, diag::kDuplicateChoice));
}

TEST(Lint, GD006NotFiredForDistinctChoiceGoals) {
  const LintResult r = Lint(
      "p(X, Y) <- e(X, Y), choice(Y, X), choice(X, Y).\ne(1, 2).\n");
  EXPECT_FALSE(HasCode(r, diag::kDuplicateChoice));
}

TEST(Lint, GD007DegenerateChoiceSameVariableBothSides) {
  const LintResult r = Lint("p(X) <- e(X), choice(X, X).\ne(1).\n");
  EXPECT_TRUE(HasCode(r, diag::kDegenerateChoice));
}

TEST(Lint, GD007DegenerateChoiceConstantRight) {
  const LintResult r = Lint("p(X) <- e(X), choice(X, ()).\ne(1).\n");
  EXPECT_TRUE(HasCode(r, diag::kDegenerateChoice));
}

TEST(Lint, GD007NotFiredForRealFd) {
  const LintResult r = Lint(
      "p(X, Y) <- e(X, Y), choice(X, Y).\ne(1, 2).\n");
  EXPECT_FALSE(HasCode(r, diag::kDegenerateChoice));
}

// -- GD008: unbound extrema cost --------------------------------------------

TEST(Lint, GD008UnboundExtremaCost) {
  const LintResult r = Lint(R"(
    p(nil, 0).
    p(X, I) <- next(I), q(X), least(C, I).
    q(1).
  )");
  const Diagnostic& d = FindCode(r, diag::kUnboundExtremaCost);
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_NE(d.message.find("C"), std::string::npos);
}

TEST(Lint, GD008NotFiredWhenCostBound) {
  const LintResult r = Lint(R"(
    p(nil, 0).
    p(X, I) <- next(I), q(X, C), least(C, I).
    q(1, 5).
  )");
  EXPECT_FALSE(HasCode(r, diag::kUnboundExtremaCost));
}

// -- Lint and Run decide safety alike ---------------------------------------
//
// The rule compiler refuses a rule with the first of the diagnostics lint
// prints for it, so every unsafe rule below is also refused by Run with
// that exact text, and every rule lint accepts runs, with the join
// planner and without it.

/// Run's status for `text`, loaded into a fresh engine.
Status RunStatus(const char* text, bool use_join_planner = true) {
  EngineOptions opts;
  opts.eval.use_join_planner = use_join_planner;
  Engine e(opts);
  const Status load = e.LoadProgram(text);
  if (!load.ok()) return load;
  return e.Run();
}

/// Lint reports `code` with `message`, and Run refuses the program with
/// the diagnostic that comes first for the rule (body goals in source
/// order, then the head).
void ExpectRefusedAtRun(const char* text, std::string_view code,
                        const std::string& message) {
  const LintResult r = Lint(text);
  const Diagnostic& d = FindCode(r, code);
  EXPECT_EQ(d.message, message) << text;
  const Status run = RunStatus(text);
  EXPECT_EQ(run.code(), StatusCode::kAnalysisError) << text;
  EXPECT_TRUE(std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                          [&](const Diagnostic& l) {
                            return DiagnosticToStatus(l).ToString() ==
                                   run.ToString();
                          }))
      << text << "\n" << run.ToString() << "\n"
      << RenderDiagnostics(r.diagnostics, "");
}

TEST(Lint, GD002UnboundGroupingRefusedAtRun) {
  ExpectRefusedAtRun("p(X, C) <- q(X, C), most(C, G).\nq(1, 5). q(2, 3).\n",
                     diag::kUnsafeBodyVar,
                     "variable G in most grouping is not bound by any "
                     "positive body goal");
}

TEST(Lint, GD002AnonymousGroupingVariableIsNamedUnderscore) {
  ExpectRefusedAtRun("p(X, C) <- q(X, C), least(C, _).\nq(1, 5). q(2, 3).\n",
                     diag::kUnsafeBodyVar,
                     "variable _ in least grouping is not bound by any "
                     "positive body goal");
}

TEST(Lint, GD008FlatRuleCostRefusedAtRun) {
  ExpectRefusedAtRun("p(X, C) <- q(X, C), least(D, X).\nq(1, 2).\n",
                     diag::kUnboundExtremaCost,
                     "least cost variable D is not bound by any positive "
                     "body goal");
}

TEST(Lint, GD008NextRuleCostBoundOnlyAfterTheStage) {
  // w(X, C, I) reads the stage variable, so it runs after the stage is
  // known, too late to key C in the candidate queue.
  ExpectRefusedAtRun(R"(
    s(nil, 0, 0).
    s(X, C, I) <- next(I), q(X, J), J < I, w(X, C, I), least(C, I).
    q(a, 0). q(b, 0). w(a, 1, 1). w(b, 2, 1). w(b, 2, 2).
  )",
                     diag::kUnboundExtremaCost,
                     "least cost variable C is bound only by goals that "
                     "read the stage variable I");
}

TEST(Lint, GD002ArithmeticArgumentBindsNothing) {
  // Arithmetic is evaluated, never inverted: q(X + 1) cannot bind X.
  ExpectRefusedAtRun("p(Y) <- q(X + 1), Y = X.\nq(1).\n",
                     diag::kUnsafeBodyVar,
                     "variable X in an arithmetic argument of q is not "
                     "bound by any positive body goal");
  // Y is local to the negated goal, but its arithmetic needs a value.
  ExpectRefusedAtRun("p(X) <- q(X), not r(X, Y + 1).\nq(1).\nr(1, 2).\n",
                     diag::kUnsafeBodyVar,
                     "variable Y in negated goal not r is not bound by any "
                     "positive body goal");
}

TEST(Lint, NegatedConjunctionRunsItsFirstReadyGoal) {
  // Y > 1 waits for link(X, Y) to bind Y.
  const char* text =
      "item(1). item(2). link(1, 5).\n"
      "p(X) <- item(X), not (Y > 1, link(X, Y)).\n";
  const LintResult r = Lint(text);
  EXPECT_TRUE(r.clean()) << RenderDiagnostics(r.diagnostics, "");
  for (bool planner : {true, false}) {
    EXPECT_TRUE(RunStatus(text, planner).ok()) << planner;
  }
}

TEST(Lint, ArithmeticAtomWaitsForItsVariables) {
  // q(X + 1) runs once s(X) has bound X, whatever order the planner
  // would pick.
  const char* text = "q(1). q(2). s(1).\np(Y) <- q(X + 1), s(X), Y = X.\n";
  const LintResult r = Lint(text);
  EXPECT_TRUE(r.clean()) << RenderDiagnostics(r.diagnostics, "");
  for (bool planner : {true, false}) {
    EXPECT_TRUE(RunStatus(text, planner).ok()) << planner;
  }
}

// -- GD009: not stage-stratified, with the cycle explained ------------------

TEST(Lint, GD009NonStratifiedNamesTheCycle) {
  const char* text = R"(
    p(X) <- q(X), not r(X).
    r(X) <- q(X), not p(X).
    q(1).
  )";
  const LintResult r = Lint(text);
  EXPECT_FALSE(r.clean());
  const Diagnostic& d = FindCode(r, diag::kNotStageStratified);
  ASSERT_FALSE(d.notes.empty());
  const std::string& cycle = d.notes[0];
  EXPECT_NE(cycle.find("dependency cycle:"), std::string::npos) << cycle;
  EXPECT_NE(cycle.find("p"), std::string::npos) << cycle;
  EXPECT_NE(cycle.find("r"), std::string::npos) << cycle;
  EXPECT_NE(cycle.find("~>"), std::string::npos) << cycle;  // negated edge

  // The reported cycle must match the known bad SCC {p/1, r/1}: every
  // edge of CycleWithin stays inside that SCC and chains back to start.
  ValueStore store;
  auto prog = ParseProgram(&store, text);
  ASSERT_TRUE(prog.ok());
  DependencyGraph g(*prog);
  const PredIndex p = g.Lookup("p", 1);
  const PredIndex rr = g.Lookup("r", 1);
  ASSERT_NE(p, kNoPred);
  ASSERT_NE(rr, kNoPred);
  const uint32_t scc = g.scc_of(p);
  ASSERT_EQ(scc, g.scc_of(rr));
  const std::vector<uint32_t> cyc = g.CycleWithin(scc);
  ASSERT_EQ(cyc.size(), 2u);  // p -> r -> p (or r -> p -> r)
  for (size_t i = 0; i < cyc.size(); ++i) {
    const DependencyGraph::Edge& e = g.edges()[cyc[i]];
    EXPECT_EQ(g.scc_of(e.from), scc);
    EXPECT_EQ(g.scc_of(e.to), scc);
    EXPECT_TRUE(e.negative);
    EXPECT_EQ(e.to, g.edges()[cyc[(i + 1) % cyc.size()]].from);
  }
}

TEST(Lint, GD009NotFiredForStageStratifiedRecursion) {
  const LintResult r = Lint(R"(
    prm(nil, a, 0, 0).
    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                       least(C, I), choice(Y, X).
    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
    g(a, b, 1).
  )");
  EXPECT_FALSE(HasCode(r, diag::kNotStageStratified));
}

// -- GD010: unreachable rules -----------------------------------------------

TEST(Lint, GD010UnreachableRuleWithRoots) {
  LintOptions opts;
  opts.roots.push_back({"out", 1});
  const LintResult r = Lint(
      "out(X) <- a(X).\ndead(X) <- a(X).\na(1).\n", opts);
  const Diagnostic& d = FindCode(r, diag::kUnreachableRule);
  EXPECT_EQ(d.predicate, "dead/1");
}

TEST(Lint, GD010NotFiredWithoutRootsOrWhenReachable) {
  const LintResult no_roots =
      Lint("out(X) <- a(X).\ndead(X) <- a(X).\na(1).\n");
  EXPECT_FALSE(HasCode(no_roots, diag::kUnreachableRule));

  LintOptions opts;
  opts.roots.push_back({"out", 1});
  const LintResult reachable = Lint(
      "out(X) <- mid(X).\nmid(X) <- a(X).\na(1).\n", opts);
  EXPECT_FALSE(HasCode(reachable, diag::kUnreachableRule));
}

// -- GD011: relaxed flat-rule stratification --------------------------------

TEST(Lint, GD011RelaxedStratificationNote) {
  const LintResult r = Lint(R"(
    p(nil, 0).
    p(X, I) <- next(I), cand(X, J), J < I, choice((), X).
    cand(X, J) <- p(_, J), q(X), not blocked(X, J).
    blocked(X, J) <- p(X, J).
    q(1).
  )");
  const Diagnostic& d = FindCode(r, diag::kRelaxedStratification);
  EXPECT_EQ(d.severity, DiagSeverity::kNote);
  EXPECT_TRUE(r.clean());  // note, not error: Run() accepts this program
  // It points at the clique's first clause, the seed fact, although the
  // fact loads as a row and not as a rule.
  EXPECT_EQ(d.rule_index, 0);
  EXPECT_EQ(d.loc, (SourceLoc{2, 5}));
}

TEST(Lint, GD011NotFiredForStrictStageCliques) {
  const LintResult r = Lint(R"(
    sp(nil, 0, 0).
    sp(X, C, I) <- next(I), p(X, C), least(C, I).
    p(a, 1).
  )");
  EXPECT_FALSE(HasCode(r, diag::kRelaxedStratification));
}

// -- GD012 / GD013: abstract-interpretation lints ---------------------------
// These come from the abstract interpreter (analysis/absint), which
// Engine::Lint merges with the structural lints above; the helper runs
// it directly on the parsed program.

LintResult AbsintLint(const char* text) {
  ValueStore store;
  auto parsed = ParseProgram(&store, text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  const absint::AnalysisResult ar = absint::Analyze(*parsed);
  LintResult r;
  r.diagnostics = ar.diagnostics;
  r.counts = CountDiagnostics(r.diagnostics);
  return r;
}

TEST(Lint, GD012ProvablyEmptyRuleAndPredicate) {
  const LintResult r = AbsintLint(R"(
    a(1). a(2).
    dead(X) <- a(X), X > 5.
  )");
  const Diagnostic& d = FindCode(r, diag::kProvablyEmpty);
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  // Both the rule-level finding (with a location) and the whole-predicate
  // summary fire.
  int count = 0;
  bool rule_level = false, pred_level = false;
  for (const Diagnostic& it : r.diagnostics) {
    if (it.code != diag::kProvablyEmpty) continue;
    ++count;
    if (it.rule_index >= 0) rule_level = true;
    if (it.rule_index < 0) pred_level = true;
    EXPECT_EQ(it.predicate, "dead/1");
  }
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(rule_level);
  EXPECT_TRUE(pred_level);
}

TEST(Lint, GD012NotFiredForSatisfiableComparison) {
  const LintResult r = AbsintLint(R"(
    a(1). a(2).
    live(X) <- a(X), X > 1.
  )");
  EXPECT_FALSE(HasCode(r, diag::kProvablyEmpty));
}

TEST(Lint, GD012NotFiredForUnseededEdbPredicate) {
  // r/1 has no facts in the program text, but facts may arrive via
  // Engine::AddFact before Run — the analyzer must treat it as
  // unanalyzable, not provably empty, and not cascade into out/1.
  const LintResult r = AbsintLint(R"(
    out(X) <- r(X), X > 5.
  )");
  EXPECT_FALSE(HasCode(r, diag::kProvablyEmpty));
}

TEST(Lint, GD013GuaranteedOverflow) {
  const LintResult r = AbsintLint(R"(
    big(1152921504606846975).
    boom(Y) <- big(X), Y = X + 1.
  )");
  const Diagnostic& d = FindCode(r, diag::kGuaranteedOverflow);
  EXPECT_EQ(d.severity, DiagSeverity::kWarning);
  EXPECT_EQ(d.predicate, "boom/1");
  EXPECT_TRUE(d.loc.valid());
}

TEST(Lint, GD013NotFiredForInRangeArithmetic) {
  const LintResult r = AbsintLint(R"(
    big(1152921504606846975).
    ok(Y) <- big(X), Y = X - 1.
  )");
  EXPECT_FALSE(HasCode(r, diag::kGuaranteedOverflow));
}

TEST(Lint, GD013NotFiredWhenOnlySomeEvaluationsOverflow) {
  // X + X overflows for the largest row but not the smallest: the site
  // is not *guaranteed* to fail, so the warning must stay quiet.
  const LintResult r = AbsintLint(R"(
    n(1). n(1152921504606846975).
    d(Y) <- n(X), Y = X + X.
  )");
  EXPECT_FALSE(HasCode(r, diag::kGuaranteedOverflow));
}

// -- GD100: parse errors ----------------------------------------------------

TEST(Lint, GD100ParseErrorWithLocation) {
  const LintResult r = Lint("p(X <- q(X).\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].code, diag::kParseError);
  EXPECT_TRUE(r.diagnostics[0].loc.valid());
  EXPECT_EQ(r.diagnostics[0].loc.line, 1);
}

TEST(Lint, GD100NotFiredForValidSyntax) {
  const LintResult r = Lint("p(1).\n");
  EXPECT_FALSE(HasCode(r, diag::kParseError));
}

// -- GD101-GD105: per-rule structural errors --------------------------------

TEST(Lint, GD101MultipleNextGoals) {
  const LintResult r = Lint(
      "p(X, I) <- next(I), next(J), q(X), I = J.\nq(1).\n");
  EXPECT_TRUE(HasCode(r, diag::kMultipleNext));
}

TEST(Lint, GD102StageVarMissingFromHead) {
  const LintResult r = Lint("p(X) <- next(I), q(X).\nq(1).\n");
  EXPECT_TRUE(HasCode(r, diag::kBadStageVar));
}

TEST(Lint, GD102StageVarTwiceInHead) {
  const LintResult r = Lint("p(I, I) <- next(I), q(I).\nq(1).\n");
  EXPECT_TRUE(HasCode(r, diag::kBadStageVar));
}

TEST(Lint, GD103MultipleExtremaGoals) {
  const LintResult r = Lint(
      "p(X, I) <- next(I), q(X, C), least(C, I), most(X, I).\nq(1, 2).\n");
  EXPECT_TRUE(HasCode(r, diag::kMultipleExtrema));
}

TEST(Lint, GD104NonVariableExtremaCost) {
  const LintResult r = Lint(
      "p(X, I) <- next(I), q(X), least(7, I).\nq(1).\n");
  EXPECT_TRUE(HasCode(r, diag::kNonVariableCost));
}

TEST(Lint, GD105CostVariableInGrouping) {
  const LintResult r = Lint(
      "p(X, I) <- next(I), q(X, C), least(C, (C, I)).\nq(1, 2).\n");
  EXPECT_TRUE(HasCode(r, diag::kCostInGroup));
}

TEST(Lint, GD111MetaGoalInsideNegatedConjunction) {
  // At the goal, at any depth, one diagnostic per meta goal; the rule is
  // refused at LoadProgram with the first.
  const char* text =
      "p(X) <- q(X, _), not (q(X, Y), choice(X, Y)).\n"
      "r(X) <- q(X, _), not (q(X, Y), not (q(Y, Z), most(Z, Y))).\n"
      "q(1, 2).\n";
  const LintResult r = Lint(text);
  std::vector<const Diagnostic*> found;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == diag::kMetaInNegation) found.push_back(&d);
  }
  ASSERT_EQ(found.size(), 2u) << RenderDiagnostics(r.diagnostics, "");
  EXPECT_EQ(found[0]->severity, DiagSeverity::kError);
  EXPECT_EQ(found[0]->message,
            "choice goal inside a negated conjunction in a rule for p");
  EXPECT_EQ(found[0]->loc, (SourceLoc{1, 32}));
  EXPECT_EQ(found[1]->message,
            "most goal inside a negated conjunction in a rule for r");
  EXPECT_EQ(found[1]->loc, (SourceLoc{2, 46}));
  Engine e;
  EXPECT_EQ(e.LoadProgram(text).ToString(),
            DiagnosticToStatus(*found[0]).ToString());
}

TEST(Lint, StructuralCodesNotFiredOnWellFormedNextRule) {
  const LintResult r = Lint(R"(
    sp(nil, 0, 0).
    sp(X, C, I) <- next(I), p(X, C), least(C, I).
    p(a, 1).
  )");
  EXPECT_FALSE(HasCode(r, diag::kMultipleNext));
  EXPECT_FALSE(HasCode(r, diag::kBadStageVar));
  EXPECT_FALSE(HasCode(r, diag::kMultipleExtrema));
  EXPECT_FALSE(HasCode(r, diag::kNonVariableCost));
  EXPECT_FALSE(HasCode(r, diag::kCostInGroup));
  EXPECT_FALSE(HasCode(r, diag::kMetaInNegation));
}

// -- Status bridge ----------------------------------------------------------

TEST(Diagnostics, StatusRoundTripsCode) {
  Diagnostic d = MakeDiagnostic(diag::kMultipleNext, "two next goals");
  const Status st = DiagnosticToStatus(d);
  EXPECT_EQ(st.code(), StatusCode::kAnalysisError);
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kMultipleNext);

  Diagnostic parse = MakeDiagnostic(diag::kParseError, "bad token");
  EXPECT_EQ(DiagnosticToStatus(parse).code(), StatusCode::kParseError);
  EXPECT_EQ(DiagCodeOfStatus(Status::OK()), "");
  EXPECT_EQ(DiagCodeOfStatus(Status::AnalysisError("no code here")), "");
}

// -- Ordering and rendering -------------------------------------------------

TEST(Diagnostics, SortPutsErrorsFirst) {
  const LintResult r = Lint(R"(
    p(X) <- u(X).
    bad(X, Y) <- u(X).
  )");
  // GD001 (error, from rule 1) must sort before GD003 (warning: u is
  // undefined, first used in rule 0).
  ASSERT_GE(r.diagnostics.size(), 2u);
  EXPECT_EQ(r.diagnostics[0].severity, DiagSeverity::kError);
  EXPECT_EQ(r.counts.errors, 1u);
}

TEST(Diagnostics, RenderIncludesCodeLocationAndCounts) {
  const LintResult r = Lint("out(X, Y) <- e(X).\ne(1).\n");
  const std::string text = RenderDiagnostics(r.diagnostics, "golden.dl");
  EXPECT_NE(text.find("golden.dl:1:1"), std::string::npos) << text;
  EXPECT_NE(text.find("error[GD001]"), std::string::npos) << text;
  EXPECT_NE(text.find("1 error(s)"), std::string::npos) << text;
}

// -- JSON golden ------------------------------------------------------------

TEST(Diagnostics, JsonGolden) {
  const LintResult r = Lint("out(X, Y) <- e(X).\ne(1).\n");
  const std::string json = DiagnosticsJson(r.diagnostics, "golden");
  EXPECT_EQ(json,
            "{\"program\":\"golden\","
            "\"summary\":{\"errors\":1,\"warnings\":0,\"notes\":0},"
            "\"diagnostics\":[{"
            "\"code\":\"GD001\",\"severity\":\"error\","
            "\"message\":\"head variable Y of out is not bound by any "
            "positive body goal\","
            "\"predicate\":\"out/2\",\"rule\":0,\"line\":1,\"column\":1"
            "}]}");
}

}  // namespace
}  // namespace gdlog
