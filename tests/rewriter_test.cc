// Unit tests for the semantic rewritings of Sections 2-3: next
// expansion, choice -> chosen/diffChoice, extrema -> negation, and
// NotExists normalization, and for the load gate that refuses the rule
// shapes they are not defined for.
#include "analysis/rewriter.h"

#include <gtest/gtest.h>

#include "analysis/diagnostics.h"
#include "analysis/stage.h"
#include "api/engine.h"
#include "ast/printer.h"
#include "parser/parser.h"

namespace gdlog {
namespace {

Program MustParse(ValueStore* store, const char* text) {
  auto prog = ParseProgram(store, text);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return std::move(prog).value();
}

TEST(ExpandNext, SortExample) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    sp(nil, 0, 0).
    sp(X, C, I) <- next(I), p(X, C), least(C, I).
  )");
  const Program expanded = ExpandNext(p);
  // The seed fact is a row of sp's batch; the next rule is rule 0.
  ASSERT_EQ(expanded.rules.size(), 1u);
  const Rule& r = expanded.rules[0];
  const std::string text = RuleToString(store, r);
  // The macro expansion of Section 3: sp(_, _, I1), I = I1 + 1,
  // choice(I, W), choice(W, I).
  EXPECT_NE(text.find("sp("), std::string::npos);
  EXPECT_NE(text.find("+ 1"), std::string::npos);
  EXPECT_NE(text.find("choice(I"), std::string::npos);
  // W = (X, C) is the head minus the stage argument.
  EXPECT_NE(text.find(", I)"), std::string::npos);
  // No next goal remains.
  for (const Literal& l : r.body) {
    EXPECT_NE(l.kind, LiteralKind::kNext);
  }
}

TEST(RewriteChoice, Example1Structure) {
  // The paper's Example 2 is the rewriting of Example 1.
  ValueStore store;
  Program p = MustParse(&store, R"(
    a_st(St, Crs, G) <- takes(St, Crs, G), choice(Crs, St), choice(St, Crs).
  )");
  ChoiceRewriteInfo info;
  Program q = RewriteChoice(p, &info);
  // 1 original (rewritten) + 1 chosen + 2 diffChoice rules.
  ASSERT_EQ(q.rules.size(), 4u);
  EXPECT_EQ(q.rules[0].head.predicate, "a_st");
  EXPECT_EQ(q.rules[1].head.predicate, "chosen$0");
  EXPECT_EQ(q.rules[2].head.predicate, "diffChoice$0");
  EXPECT_EQ(q.rules[3].head.predicate, "diffChoice$0");
  // The chosen rule ends with a negated diffChoice goal.
  const Literal& last = q.rules[1].body.back();
  EXPECT_TRUE(last.is_negated_atom());
  EXPECT_EQ(last.predicate, "diffChoice$0");
  // Info records both FDs over (Crs, St).
  ASSERT_EQ(info.entries.size(), 1u);
  EXPECT_EQ(info.entries[0].arity, 2u);
  ASSERT_EQ(info.entries[0].goals.size(), 2u);
}

TEST(RewriteChoice, DistinctIndicesPerRule) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    a(X) <- p(X), choice((), X).
    b(X) <- q(X), choice((), X).
  )");
  ChoiceRewriteInfo info;
  Program q = RewriteChoice(p, &info);
  ASSERT_EQ(info.entries.size(), 2u);
  EXPECT_EQ(info.entries[0].chosen_name, "chosen$0");
  EXPECT_EQ(info.entries[1].chosen_name, "chosen$1");
}

TEST(RewriteExtrema, LeastBecomesNegatedCopy) {
  // Section 2's bttm_st example.
  ValueStore store;
  Program p = MustParse(&store, R"(
    bttm_st(St, Crs, G) <- takes(St, Crs, G), G > 1, least(G, Crs).
  )");
  const Program q = RewriteExtrema(p);
  const Rule& r = q.rules[0];
  // least goal gone; a NotExists appended.
  ASSERT_EQ(r.body.back().kind, LiteralKind::kNotExists);
  const std::vector<Literal>& copy = r.body.back().body;
  // Copy: takes(St', Crs, G'), G' > 1, G' < G — Crs shared (the group).
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0].predicate, "takes");
  EXPECT_EQ(copy[0].args[1].name, "Crs");      // shared group var
  EXPECT_NE(copy[0].args[0].name, "St");       // renamed
  EXPECT_EQ(copy.back().op, ComparisonOp::kLt);  // G' < G
}

TEST(RewriteExtrema, MostUsesGreaterThan) {
  ValueStore store;
  Program p = MustParse(&store, "m(X, C) <- q(X, C), most(C, ()).");
  const Program q = RewriteExtrema(p);
  EXPECT_EQ(q.rules[0].body.back().body.back().op, ComparisonOp::kGt);
}

TEST(NormalizeNotExists, AuxPredicateIntroduced) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    p(X, I) <- q(X, I), not (r(X, L), L < I).
  )");
  Program q = NormalizeNotExists(p);
  ASSERT_EQ(q.rules.size(), 2u);
  // aux rule first (innermost-first emission), then the host rule.
  EXPECT_EQ(q.rules[0].head.predicate, "aux$0");
  // aux carries the shared variables X and I.
  EXPECT_EQ(q.rules[0].head.args.size(), 2u);
  const Literal& neg = q.rules[1].body.back();
  EXPECT_TRUE(neg.is_negated_atom());
  EXPECT_EQ(neg.predicate, "aux$0");
}

TEST(FullSemanticExpansion, PrimIsNormal) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    prm(nil, a, 0, 0).
    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                       least(C, I), choice(Y, X).
    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
  )");
  const Program full = FullSemanticExpansion(p);
  // Normal program: no meta goals, no NotExists anywhere.
  for (const Rule& r : full.rules) {
    for (const Literal& l : r.body) {
      EXPECT_NE(l.kind, LiteralKind::kNext);
      EXPECT_NE(l.kind, LiteralKind::kChoice);
      EXPECT_NE(l.kind, LiteralKind::kLeast);
      EXPECT_NE(l.kind, LiteralKind::kMost);
      EXPECT_NE(l.kind, LiteralKind::kNotExists);
    }
  }
  // chosen$/diffChoice$/aux$ predicates all present.
  bool has_chosen = false, has_diff = false, has_aux = false;
  for (const Rule& r : full.rules) {
    if (r.head.predicate.rfind("chosen$", 0) == 0) has_chosen = true;
    if (r.head.predicate.rfind("diffChoice$", 0) == 0) has_diff = true;
    if (r.head.predicate.rfind("aux$", 0) == 0) has_aux = true;
  }
  EXPECT_TRUE(has_chosen);
  EXPECT_TRUE(has_diff);
  EXPECT_TRUE(has_aux);
}

// A negated atom with a local variable is quantified before the
// normalization, so --rewrite prints the aux$ rule the stable-model
// checker checks (tests/fixtures/neg_anon.dl).
TEST(FullSemanticExpansion, LocalNegatedVariableBecomesAnAuxGoal) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("src(1). e(2, 1).\n"
                            "p(X) <- src(X), not e(_, X).\n")
                  .ok());
  auto text = e.RewrittenProgramText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("not aux$0(X)"), std::string::npos) << *text;
  EXPECT_NE(text->find("aux$0(X) <- e("), std::string::npos) << *text;
}

// The rewritings are defined for one rule shape; the load gate
// (AnalyzeStages) refuses every other with its code, before any
// rewriting runs, and LoadProgram refuses with the same code.
void ExpectRefusedByTheGate(const char* text, std::string_view code) {
  ValueStore store;
  const Program p = MustParse(&store, text);
  const Result<StageAnalysis> a = AnalyzeStages(p);
  ASSERT_FALSE(a.ok()) << text;
  EXPECT_EQ(DiagCodeOfStatus(a.status()), code) << a.status().ToString();
  Engine e;
  const Status load = e.LoadProgram(text);
  EXPECT_EQ(load.code(), StatusCode::kAnalysisError) << text;
  EXPECT_EQ(DiagCodeOfStatus(load), code) << load.ToString();
}

TEST(RewriteGate, RejectsStageVarNotInHead) {
  ExpectRefusedByTheGate("q(X) <- next(I), p(X).", diag::kBadStageVar);
}

TEST(RewriteGate, RejectsDuplicateStagePosition) {
  ExpectRefusedByTheGate("q(I, I) <- next(I), p(I).", diag::kBadStageVar);
}

TEST(RewriteGate, RejectsMultipleNextGoals) {
  ExpectRefusedByTheGate("q(I, J) <- next(I), next(J), p(I, J).",
                         diag::kMultipleNext);
}

TEST(RewriteGate, RejectsMultipleExtrema) {
  ExpectRefusedByTheGate("m(X, C, D) <- q(X, C, D), least(C), most(D).",
                         diag::kMultipleExtrema);
}

TEST(RewriteGate, RejectsNonVariableCost) {
  ExpectRefusedByTheGate("m(X) <- q(X, C), least(C + 1).",
                         diag::kNonVariableCost);
}

TEST(RewriteGate, RejectsCostInGrouping) {
  ExpectRefusedByTheGate("m(X, C) <- q(X, C), least(C, (X, C)).",
                         diag::kCostInGroup);
}

TEST(VariableRenamerTest, SharesAndRenames) {
  VariableRenamer renamer("R$");
  renamer.Share("G");
  const TermNode t = TermNode::Compound(
      "f", {TermNode::Var("G"), TermNode::Var("X")});
  const TermNode out = renamer.Rename(t);
  EXPECT_EQ(out.args[0].name, "G");
  EXPECT_EQ(out.args[1].name, "R$X");
  // Consistent across occurrences.
  EXPECT_EQ(renamer.Rename(TermNode::Var("X")).name, "R$X");
}

}  // namespace
}  // namespace gdlog
