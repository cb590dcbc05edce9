// Unit tests for the Section 4 compile-time machinery: dependency
// graph, recursive cliques, stage inference, and the
// stage-stratification test on the paper's own examples.
#include "analysis/stage.h"

#include <gtest/gtest.h>

#include "analysis/dep_graph.h"
#include "analysis/diagnostics.h"
#include "parser/parser.h"

namespace gdlog {
namespace {

Program MustParse(ValueStore* store, const char* text) {
  auto prog = ParseProgram(store, text);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  return std::move(prog).value();
}

StageAnalysis MustAnalyze(const Program& p) {
  auto a = AnalyzeStages(p);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  return std::move(a).value();
}

const CliqueStageInfo& CliqueOf(const StageAnalysis& a,
                                const std::string& name, uint32_t arity) {
  const PredIndex p = a.graph->Lookup(name, arity);
  EXPECT_NE(p, kNoPred);
  return a.cliques[a.graph->scc_of(p)];
}

TEST(DepGraph, SccAndNegation) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    tc(X, Y) <- e(X, Y).
    tc(X, Z) <- tc(X, Y), e(Y, Z).
    out(X) <- v(X), not tc(X, X).
  )");
  DependencyGraph g(p);
  const PredIndex tc = g.Lookup("tc", 2);
  const PredIndex out = g.Lookup("out", 1);
  ASSERT_NE(tc, kNoPred);
  ASSERT_NE(out, kNoPred);
  EXPECT_TRUE(g.IsRecursive(g.scc_of(tc)));
  EXPECT_FALSE(g.IsRecursive(g.scc_of(out)));
  EXPECT_NE(g.scc_of(tc), g.scc_of(out));
  auto strata = g.ComputeStrata();
  ASSERT_TRUE(strata.ok());
  EXPECT_GT((*strata)[out], (*strata)[tc]);
}

TEST(DepGraph, RejectsNegativeCycle) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    p(X) <- q(X), not r(X).
    r(X) <- q(X), not p(X).
  )");
  DependencyGraph g(p);
  EXPECT_FALSE(g.ComputeStrata().ok());
}

TEST(StageAnalysis, PrimIsStageStratified) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    prm(nil, a, 0, 0).
    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                       least(C, I), choice(Y, X).
    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
  )");
  StageAnalysis a = MustAnalyze(p);
  EXPECT_EQ(CliqueOf(a, "prm", 4).cls, CliqueClass::kStageStratified);
  // Stage arguments: prm at 3, new_g at 3.
  EXPECT_EQ(a.stage_arg[a.graph->Lookup("prm", 4)], 3);
  EXPECT_EQ(a.stage_arg[a.graph->Lookup("new_g", 4)], 3);
  // Rule kinds: next, flat. The seed fact is a row, not a rule.
  EXPECT_EQ(a.rule_info[0].kind, RuleKind::kNext);
  EXPECT_EQ(a.rule_info[1].kind, RuleKind::kFlat);
}

TEST(StageAnalysis, PrimWithGlobalLeastLosesStratification) {
  // The paper's Section 4 remark: replacing least(C, I) by least(C, _)
  // loses stage-stratification (the negated copy's stage variables are
  // no longer tied to the head's stage variable).
  ValueStore store;
  Program p = MustParse(&store, R"(
    prm(nil, a, 0, 0).
    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                       least(C), choice(Y, X).
    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
  )");
  StageAnalysis a = MustAnalyze(p);
  EXPECT_NE(CliqueOf(a, "prm", 4).cls, CliqueClass::kStageStratified);
}

TEST(StageAnalysis, SortRecursionOnlyThroughNext) {
  // Example 5's recursion is invisible without the next expansion.
  ValueStore store;
  Program p = MustParse(&store, R"(
    sp(nil, 0, 0).
    sp(X, C, I) <- next(I), p(X, C), least(C, I).
  )");
  StageAnalysis a = MustAnalyze(p);
  const CliqueStageInfo& cl = CliqueOf(a, "sp", 3);
  EXPECT_EQ(cl.cls, CliqueClass::kStageStratified);
  EXPECT_TRUE(a.graph->IsRecursive(a.graph->scc_of(a.graph->Lookup("sp", 3))));
}

TEST(StageAnalysis, HuffmanStageArgsInferredThroughMax) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    h(X, C, 0) <- letter(X, C).
    h(t(X, Y), C, I) <- next(I), feasible(t(X, Y), C, J), J < I,
                        least(C, I), choice(X, I), choice(Y, I).
    feasible(t(X, Y), C, I) <- h(X, C1, J), h(Y, C2, K),
                               not (subtree(X, L1), L1 < I),
                               not (subtree(Y, L2), L2 < I),
                               I = max(J, K), X != Y, C = C1 + C2.
    subtree(X, I) <- h(t(X, _), _, I).
    subtree(X, I) <- h(t(_, X), _, I).
  )");
  StageAnalysis a = MustAnalyze(p);
  EXPECT_EQ(CliqueOf(a, "h", 3).cls, CliqueClass::kStageStratified);
  // feasible's stage argument comes from I = max(J, K).
  EXPECT_EQ(a.stage_arg[a.graph->Lookup("feasible", 3)], 2);
  EXPECT_EQ(a.stage_arg[a.graph->Lookup("subtree", 2)], 1);
  // The clique has internal negation (through subtree) yet is accepted.
  const PredIndex h = a.graph->Lookup("h", 3);
  EXPECT_TRUE(a.graph->HasInternalNegation(a.graph->scc_of(h)));
}

TEST(StageAnalysis, MatchingAndTspAccepted) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    matching(nil, nil, 0, 0).
    matching(X, Y, C, I) <- next(I), g(X, Y, C), least(C, I),
                            choice(Y, X), choice(X, Y).
  )");
  StageAnalysis a = MustAnalyze(p);
  EXPECT_EQ(CliqueOf(a, "matching", 4).cls, CliqueClass::kStageStratified);

  ValueStore store2;
  Program q = MustParse(&store2, R"(
    tsp_chain(X, Y, C, 1) <- least_arcs(X, Y, C), choice((), (X, Y)).
    tsp_chain(X, Y, C, I) <- next(I), new_g(X, Y, C, J), I = J + 1,
                             least(C, I), choice(Y, X).
    new_g(X, Y, C, J) <- tsp_chain(_, X, _, J), g(X, Y, C).
    least_arcs(X, Y, C) <- g(X, Y, C), least(C).
  )");
  auto a2 = AnalyzeStages(q);
  ASSERT_TRUE(a2.ok()) << a2.status().ToString();
  const PredIndex tsp = a2->graph->Lookup("tsp_chain", 4);
  EXPECT_EQ(a2->cliques[a2->graph->scc_of(tsp)].cls,
            CliqueClass::kStageStratified);
  // least_arcs sits below the stage clique.
  const PredIndex la = a2->graph->Lookup("least_arcs", 3);
  EXPECT_NE(a2->graph->scc_of(la), a2->graph->scc_of(tsp));
}

TEST(StageAnalysis, RelaxedFlatRuleNegation) {
  // A flat rule whose negated goal is not strictly stage-stratified:
  // accepted as RelaxedStage (the paper's Kruskal discussion, Section 7).
  ValueStore store;
  const char* text = R"(
    p(nil, 0).
    p(X, I) <- next(I), cand(X, J), J < I, choice((), X).
    cand(X, J) <- p(_, J), q(X), not blocked(X, J).
    blocked(X, J) <- p(X, J).
  )";
  Program prog = MustParse(&store, text);
  StageAnalysis a = MustAnalyze(prog);
  const CliqueStageInfo& cl = CliqueOf(a, "p", 2);
  EXPECT_EQ(cl.cls, CliqueClass::kRelaxedStage) << cl.diagnostic;
  EXPECT_EQ(cl.code, diag::kRelaxedStratification);
}

TEST(StageAnalysis, MixedNextAndFlatRulesRejected) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    p(nil, 0).
    p(X, I) <- next(I), q(X).
    p(X, I) <- p(Y, I), r(Y, X).
  )");
  StageAnalysis a = MustAnalyze(p);
  EXPECT_EQ(CliqueOf(a, "p", 2).cls, CliqueClass::kRejected);
  EXPECT_EQ(CliqueOf(a, "p", 2).code, diag::kMixedRuleKinds);
}

TEST(StageAnalysis, ConflictingStagePositionsReportCode) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    p(nil, 0).
    p(X, I) <- next(I), q(X).
    p(I, X) <- next(I), q(X).
  )");
  StageAnalysis a = MustAnalyze(p);
  const CliqueStageInfo& cl = CliqueOf(a, "p", 2);
  EXPECT_EQ(cl.cls, CliqueClass::kRejected);
  EXPECT_EQ(cl.code, diag::kConflictingStagePos);
  EXPECT_EQ(cl.diagnostic,
            "predicate p has conflicting stage argument positions 1 and 0");
}

TEST(StageAnalysis, NonStratifiedCliqueReportsCode) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    p(X) <- q(X), not r(X).
    r(X) <- q(X), not p(X).
  )");
  StageAnalysis a = MustAnalyze(p);
  const CliqueStageInfo& cl = CliqueOf(a, "p", 1);
  EXPECT_EQ(cl.cls, CliqueClass::kRejected);
  EXPECT_EQ(cl.code, diag::kNotStageStratified);
}

TEST(StageAnalysis, HornCliqueUntouched) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    tc(X, Y) <- e(X, Y).
    tc(X, Z) <- tc(X, Y), e(Y, Z).
  )");
  StageAnalysis a = MustAnalyze(p);
  EXPECT_EQ(CliqueOf(a, "tc", 2).cls, CliqueClass::kHorn);
  EXPECT_EQ(a.stage_arg[a.graph->Lookup("tc", 2)], -1);
}

TEST(StageAnalysis, KruskalConnFormulationFullyAccepted) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    kruskal(nil, nil, 0, 0).
    conn(X, X, 0) <- node(X).
    conn(X, Y, I) <- kruskal(A, B, _, I), conn(A, X, J1), J1 < I,
                     conn(B, Y, J2), J2 < I.
    conn(X, Y, I) <- kruskal(A, B, _, I), conn(B, X, J1), J1 < I,
                     conn(A, Y, J2), J2 < I.
    kruskal(X, Y, C, I) <- next(I), g(X, Y, C), least(C, I),
                           not (conn(X, Y, J), J < I).
  )");
  StageAnalysis a = MustAnalyze(p);
  const CliqueStageInfo& cl = CliqueOf(a, "kruskal", 4);
  EXPECT_EQ(cl.cls, CliqueClass::kStageStratified) << cl.diagnostic;
  // kruskal and conn are one clique (mutual recursion through negation).
  EXPECT_EQ(a.graph->scc_of(a.graph->Lookup("kruskal", 4)),
            a.graph->scc_of(a.graph->Lookup("conn", 3)));
}

TEST(StageAnalysis, CliqueOrderRespectsDependencies) {
  ValueStore store;
  Program p = MustParse(&store, R"(
    base(X) <- src(X).
    mid(X) <- base(X).
    top(X) <- mid(X), not base(X).
  )");
  StageAnalysis a = MustAnalyze(p);
  auto pos = [&](const char* name, uint32_t arity) {
    const uint32_t scc = a.graph->scc_of(a.graph->Lookup(name, arity));
    return std::find(a.clique_order.begin(), a.clique_order.end(), scc) -
           a.clique_order.begin();
  };
  EXPECT_LT(pos("base", 1), pos("mid", 1));
  EXPECT_LT(pos("mid", 1), pos("top", 1));
}

}  // namespace
}  // namespace gdlog
