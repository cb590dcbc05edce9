// Abstract-interpretation tests: lattice algebra, transfer-function
// edge cases mirroring the runtime arithmetic, signature inference on
// realistic choice programs, the GD3xx diagnostics (trigger and
// non-trigger pairs), the engine integration (analysis on demand,
// report, .types), and a soundness check of inferred bounds against an
// actual run.
#include "analysis/absint/absint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/absint/lattice.h"
#include "api/engine.h"
#include "obs/json.h"
#include "parser/parser.h"

namespace gdlog {
namespace absint {
namespace {

// ---------------------------------------------------------------------------
// Lattices
// ---------------------------------------------------------------------------

TEST(Lattice, TypeSetAlgebra) {
  EXPECT_TRUE(TypeSet::Bottom().empty());
  EXPECT_TRUE(TypeSet::Top().is_top());
  const TypeSet i = TypeSet::Int();
  const TypeSet s = TypeSet::Only(ValueKind::kSymbol);
  EXPECT_TRUE(i.Intersect(s).empty());
  EXPECT_TRUE(i.Union(s).Has(ValueKind::kInt));
  EXPECT_TRUE(i.Union(s).Has(ValueKind::kSymbol));
  EXPECT_FALSE(i.Union(s).Has(ValueKind::kNil));
  EXPECT_EQ(TypeSetName(TypeSet::Bottom()), "bottom");
  EXPECT_EQ(TypeSetName(TypeSet::Top()), "any");
  EXPECT_EQ(TypeSetName(i.Union(s)), "int|symbol");
}

TEST(Lattice, IntervalMeetJoinWiden) {
  const Interval a = Interval::Range(0, 10);
  const Interval b = Interval::Range(5, 20);
  EXPECT_EQ(a.Meet(b), Interval::Range(5, 10));
  EXPECT_EQ(a.Join(b), Interval::Range(0, 20));
  EXPECT_TRUE(Interval::Range(0, 4).Meet(Interval::Range(5, 9)).empty());
  // Widening: a moved bound jumps to infinity, a stable bound stays.
  const Interval w = a.Widen(Interval::Range(0, 11));
  EXPECT_EQ(w.lo, 0);
  EXPECT_EQ(w.hi, Interval::kPosInf);
  // The empty interval is the join/widen identity.
  EXPECT_EQ(Interval::Empty().Join(a), a);
  EXPECT_EQ(Interval::Empty().Widen(a), a);
}

TEST(Lattice, IntervalArithmeticSaturates) {
  const Interval full = Interval::Full();
  const Interval one = Interval::Point(1);
  // Infinity absorbs instead of wrapping.
  EXPECT_EQ(IntervalAdd(full, one), full);
  EXPECT_EQ(IntervalMul(full, Interval::Point(-2)).lo, Interval::kNegInf);
  // 0 * inf must be 0, not NaN-ish garbage.
  EXPECT_EQ(IntervalMul(Interval::Point(0), full), Interval::Point(0));
  // Near-limit finite arithmetic saturates to the sentinels.
  const Interval big = Interval::Point(INT64_MAX - 1);
  EXPECT_EQ(IntervalAdd(big, Interval::Point(5)).hi, Interval::kPosInf);
}

TEST(Lattice, IntervalDivModMirrorRuntime) {
  // Division excludes 0 from the divisor corners; [0,0] yields empty
  // (every concrete evaluation fails, like runtime div-by-zero).
  EXPECT_TRUE(IntervalDiv(Interval::Point(10), Interval::Point(0)).empty());
  EXPECT_EQ(IntervalDiv(Interval::Point(10), Interval::Range(2, 5)),
            Interval::Range(2, 5));
  // Divisor range spanning zero still considers ±1 corners.
  const Interval d = IntervalDiv(Interval::Point(10), Interval::Range(-2, 3));
  EXPECT_LE(d.lo, -10);
  EXPECT_GE(d.hi, 10);
  // Mod magnitude is bounded by |divisor| - 1, sign follows the dividend.
  const Interval m = IntervalMod(Interval::Range(0, 100), Interval::Point(7));
  EXPECT_EQ(m, Interval::Range(0, 6));
  const Interval mneg =
      IntervalMod(Interval::Range(-100, -1), Interval::Point(7));
  EXPECT_EQ(mneg, Interval::Range(-6, 0));
  EXPECT_TRUE(IntervalMod(Interval::Point(10), Interval::Point(0)).empty());
}

TEST(Lattice, AbstractValueMeetDropsIntOnEmptyInterval) {
  const AbstractValue a = AbstractValue::IntRange(Interval::Range(0, 4));
  const AbstractValue b = AbstractValue::IntRange(Interval::Range(5, 9));
  const AbstractValue m = a.Meet(b);
  // Pure-int values with disjoint ranges meet to bottom.
  EXPECT_TRUE(m.empty());
  // With another kind bit present the value survives as a non-int.
  AbstractValue c = a;
  c.types = c.types.Union(TypeSet::Only(ValueKind::kSymbol));
  const AbstractValue m2 = c.Meet(AbstractValue::Top());
  EXPECT_TRUE(m2.types.Has(ValueKind::kSymbol));
}

TEST(Lattice, CardArithmeticSaturates) {
  EXPECT_EQ(CardAdd(3, 4), 7u);
  EXPECT_EQ(CardAdd(CardBound::kInf, 1), CardBound::kInf);
  EXPECT_EQ(CardMul(1u << 20, 1u << 20), uint64_t{1} << 40);
  EXPECT_EQ(CardMul(CardBound::kInf, 2), CardBound::kInf);
  EXPECT_EQ(CardMul(UINT64_MAX / 2, 3), CardBound::kInf);
  EXPECT_EQ(CardMul(0, CardBound::kInf), 0u);
  EXPECT_EQ(CardBoundName(CardBound::AtMost(7)), "[0, 7]");
  EXPECT_EQ(CardBoundName(CardBound::Unbounded()), "[0, inf]");
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

AnalysisResult AnalyzeText(const char* text) {
  ValueStore store;
  auto parsed = ParseProgram(&store, text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return Analyze(*parsed);
}

bool HasCode(const AnalysisResult& r, std::string_view code) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

TEST(Absint, InfersTypesIntervalsAndCardinality) {
  const AnalysisResult r = AnalyzeText(R"(
    e(1, a). e(2, b). e(3, c).
    out(Y, X) <- e(X, Y).
  )");
  const PredicateSignature* e = r.Find("e", 2);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->populated);
  EXPECT_EQ(e->card, CardBound::Exact(3));
  EXPECT_EQ(e->args[0].types, TypeSet::Int());
  EXPECT_EQ(e->args[0].iv, Interval::Range(1, 3));
  EXPECT_EQ(e->args[1].types, TypeSet::Only(ValueKind::kSymbol));
  const PredicateSignature* out = r.Find("out", 2);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->populated);
  // Columns swap through the rule head.
  EXPECT_EQ(out->args[0].types, TypeSet::Only(ValueKind::kSymbol));
  EXPECT_EQ(out->args[1].iv, Interval::Range(1, 3));
  // One body atom: the bound is the body relation's size.
  EXPECT_EQ(out->card.hi, 3u);
}

TEST(Absint, ArithmeticPropagatesIntervals) {
  const AnalysisResult r = AnalyzeText(R"(
    n(2). n(5).
    d(Y) <- n(X), Y = X * 10 + 1.
  )");
  const PredicateSignature* d = r.Find("d", 1);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->args[0].iv, Interval::Range(21, 51));
  EXPECT_FALSE(HasCode(r, diag::kGuaranteedOverflow));
}

TEST(Absint, ComparisonNarrowsRanges) {
  const AnalysisResult r = AnalyzeText(R"(
    n(1). n(5). n(9).
    small(X) <- n(X), X < 5.
    big(X) <- n(X), X >= 5.
  )");
  const PredicateSignature* s = r.Find("small", 1);
  const PredicateSignature* b = r.Find("big", 1);
  ASSERT_NE(s, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(s->args[0].iv, Interval::Range(1, 4));
  EXPECT_EQ(b->args[0].iv, Interval::Range(5, 9));
}

TEST(Absint, RecursionWidensToInfinity) {
  const AnalysisResult r = AnalyzeText(R"(
    n(0).
    n2(Y) <- n(X), Y = X + 1.
    n2(Y) <- n2(X), Y = X + 1.
  )");
  const PredicateSignature* n2 = r.Find("n2", 1);
  ASSERT_NE(n2, nullptr);
  EXPECT_TRUE(n2->populated);
  EXPECT_EQ(n2->args[0].iv.lo, 1);
  EXPECT_EQ(n2->args[0].iv.hi, Interval::kPosInf);
  EXPECT_FALSE(n2->card.hi_finite());
  // Widening converged well before the hard round cap.
  EXPECT_LT(r.rounds, 64);
}

TEST(Absint, NextStageVariableIsNonNegativeInt) {
  const AnalysisResult r = AnalyzeText(R"(
    sp(nil, 0, 0).
    sp(X, C, I) <- next(I), p(X, C), least(C, I), choice((), X).
    p(a, 1). p(b, 2).
  )");
  const PredicateSignature* sp = r.Find("sp", 3);
  ASSERT_NE(sp, nullptr);
  EXPECT_TRUE(sp->populated);
  // Column 2 is the stage counter: an int from 0 up.
  EXPECT_TRUE(sp->args[2].types.has_int());
  EXPECT_EQ(sp->args[2].iv.lo, 0);
  // Column 0 mixes nil (exit rule) with the chosen symbols.
  EXPECT_TRUE(sp->args[0].types.Has(ValueKind::kNil));
  EXPECT_TRUE(sp->args[0].types.Has(ValueKind::kSymbol));
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Absint, GD300DisjointTypesAtTwoUses) {
  const AnalysisResult r = AnalyzeText("s(a). n(1).\nbad(X) <- s(X), n(X).\n");
  EXPECT_TRUE(HasCode(r, diag::kTypeConflict));
}

TEST(Absint, GD300NotFiredWhenTypesOverlap) {
  const AnalysisResult r = AnalyzeText(
      "m(a). m(1). n(1). n(2).\nok(X) <- m(X), n(X).\n");
  EXPECT_FALSE(HasCode(r, diag::kTypeConflict));
}

TEST(Absint, GD301ArithmeticOverNonInt) {
  const AnalysisResult r =
      AnalyzeText("s(a). n(1).\nbad(Y) <- s(S), n(N), Y = S + N.\n");
  EXPECT_TRUE(HasCode(r, diag::kNonIntArithmetic));
}

TEST(Absint, GD301NotFiredForIntOperands) {
  const AnalysisResult r =
      AnalyzeText("n(1). n(2).\nok(Y) <- n(A), n(B), Y = A + B.\n");
  EXPECT_FALSE(HasCode(r, diag::kNonIntArithmetic));
}

TEST(Absint, GD310DeterminedChoiceWitness) {
  const AnalysisResult r = AnalyzeText(
      "e(1, 2). e(2, 3).\npick(X, Y) <- e(X, _), Y = X, choice(X, Y).\n");
  EXPECT_TRUE(HasCode(r, diag::kDeadChoice));
}

TEST(Absint, GD310NotFiredForFreeWitness) {
  const AnalysisResult r = AnalyzeText(
      "e(1, 2). e(1, 3).\npick(X, Y) <- e(X, Y), choice(X, Y).\n");
  EXPECT_FALSE(HasCode(r, diag::kDeadChoice));
}

TEST(Absint, GD311ChoiceWithoutExtremumOrStage) {
  const AnalysisResult r = AnalyzeText(
      "e(1, 2). e(1, 3).\npick(X, Y) <- e(X, Y), choice(X, Y).\n");
  EXPECT_TRUE(HasCode(r, diag::kChoiceNeverRejects));
}

TEST(Absint, GD311NotFiredWithExtremumOrNext) {
  const AnalysisResult r = AnalyzeText(R"(
    prm(nil, a, 0, 0).
    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                       least(C, I), choice(Y, X).
    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
    g(a, b, 1).
  )");
  EXPECT_FALSE(HasCode(r, diag::kChoiceNeverRejects));
}

TEST(Absint, UnseededPredicateIsUnanalyzedNotEmpty) {
  // r/1 may receive facts via AddFact after lint time: no GD012, no
  // cascade into out/1, and both predicates stay unpopulated.
  const AnalysisResult r = AnalyzeText("out(X) <- r(X), X > 5.\n");
  EXPECT_FALSE(HasCode(r, diag::kProvablyEmpty));
  const PredicateSignature* out = r.Find("out", 1);
  ASSERT_NE(out, nullptr);
  EXPECT_FALSE(out->populated);
}

TEST(Absint, SignaturesTextListsEveryPredicate) {
  const AnalysisResult r = AnalyzeText(R"(
    e(1, a). e(2, b).
    out(Y) <- e(X, Y), X > 1.
  )");
  const std::string text = SignaturesText(r);
  EXPECT_NE(text.find("e/2"), std::string::npos);
  EXPECT_NE(text.find("out/1"), std::string::npos);
  EXPECT_NE(text.find("int[1, 2]"), std::string::npos);
  EXPECT_NE(text.find("symbol"), std::string::npos);
}

TEST(Absint, JsonIsParseableAndIntegerOnly) {
  const AnalysisResult r = AnalyzeText("e(1, a). e(2, b).\n");
  JsonWriter w;
  AnalysisToJson(r, &w);
  const std::string json = w.Take();
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* preds = doc->Find("predicates");
  ASSERT_NE(preds, nullptr);
  ASSERT_EQ(preds->items.size(), 1u);
  const JsonValue* card = preds->items[0].Find("cardinality");
  ASSERT_NE(card, nullptr);
  EXPECT_EQ(card->Find("lo")->number, 2.0);
  EXPECT_EQ(card->Find("hi")->number, 2.0);
  // Golden-diff safety: no floating-point rendering anywhere.
  EXPECT_EQ(json.find('.'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(AbsintEngine, CatalogFactsSeedTheAnalysis) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("out(Y) <- r(X), Y = X + 1.\n").ok());
  ASSERT_TRUE(e.AddFact("r", {e.Int(10)}).ok());
  ASSERT_TRUE(e.AddFact("r", {e.Int(20)}).ok());
  ASSERT_TRUE(e.Run().ok());
  auto r = e.StaticAnalysis();
  ASSERT_TRUE(r.ok());
  const PredicateSignature* out = (*r)->Find("out", 1);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->populated);
  EXPECT_EQ(out->args[0].iv, Interval::Range(11, 21));
  EXPECT_EQ(out->card.hi, 2u);
}

TEST(AbsintEngine, LintMergesAnalysisDiagnostics) {
  Engine e;
  ASSERT_TRUE(
      e.LoadProgram("a(1). a(2).\ndead(X) <- a(X), X > 5.\n").ok());
  auto lint = e.Lint();
  ASSERT_TRUE(lint.ok());
  EXPECT_TRUE(std::any_of(
      lint->diagnostics.begin(), lint->diagnostics.end(),
      [](const Diagnostic& d) { return d.code == diag::kProvablyEmpty; }));
}

TEST(AbsintEngine, RunReportCarriesAnalysisAndPhase) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("e(1, 2).\np(X, Y) <- e(X, Y).\n").ok());
  ASSERT_TRUE(e.Run().ok());
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok());
  const JsonValue* analysis = doc->Find("analysis");
  ASSERT_NE(analysis, nullptr);
  ASSERT_NE(analysis->kind, JsonValue::Kind::kNull);
  EXPECT_NE(analysis->Find("predicates"), nullptr);
  const JsonValue* phases = doc->Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_NE(phases->Find("absint_ms"), nullptr);
}

// The analysis is the same whoever asks and whenever: before Run, after
// a completed Run and after a bounded stop, it is seeded from the EDB as
// it stood when Run started, never from the rows Run derived — not even
// in a relation that holds both (Dijkstra's dist seed, Prim's prm seed).
// Run itself computes no analysis, and a second ask computes none.
TEST(AbsintEngine, TypeSignaturesTextWorksBeforeAndAfterRun) {
  constexpr char kDijkstra[] = R"(
    dist(Y, D, I) <- next(I), cand(Y, D, J), J < I, least(D, I),
                     not (dist(Y, _, J2), J2 < I).
    cand(Y, D, J) <- dist(X, DX, J), g(X, Y, C), D = DX + C.
    g(0, 1, 4). g(0, 2, 1). g(2, 1, 2). g(1, 3, 1). g(2, 3, 5). g(3, 4, 3).
  )";
  std::ifstream in(std::string(GDLOG_SOURCE_DIR) + "/programs/prim.dl");
  std::stringstream prim;
  prim << in.rdbuf();
  ASSERT_FALSE(prim.str().empty());
  struct Case {
    const char* name;
    std::string text;
    bool seed_dist;  // the IDB seed dist(0, 0, 0), added by AddFact
  };
  for (const Case& c : {Case{"dijkstra", kDijkstra, true},
                        Case{"prim", prim.str(), false}}) {
    SCOPED_TRACE(c.name);
    auto load = [&c](EngineOptions options) {
      options.obs.recorder_dump_on_stop = false;
      auto e = std::make_unique<Engine>(options);
      EXPECT_TRUE(e->LoadProgram(c.text).ok());
      if (c.seed_dist) {
        EXPECT_TRUE(
            e->AddFact("dist", {Value::Int(0), Value::Int(0), Value::Int(0)})
                .ok());
      }
      return e;
    };
    auto json = [](const Engine& e) {
      auto r = e.StaticAnalysis();
      EXPECT_TRUE(r.ok());
      if (!r.ok()) return std::string();
      JsonWriter w;
      AnalysisToJson(**r, &w);
      return w.Take();
    };

    // Before Run, then again on the same engine after it.
    std::unique_ptr<Engine> e = load({});
    const std::string before = json(*e);
    auto types_before = e->TypeSignaturesText();
    ASSERT_TRUE(types_before.ok());
    ASSERT_TRUE(e->Run().ok());
    EXPECT_GT(e->Query(c.seed_dist ? "dist" : "prm", c.seed_dist ? 3 : 4)
                  .size(),
              1u);
    EXPECT_EQ(json(*e), before);
    EXPECT_EQ(*e->TypeSignaturesText(), *types_before);

    // A Run nobody asks about computes nothing; the first ask after it
    // computes the analysis once, and later asks reuse it.
    e = load({});
    ASSERT_TRUE(e->Run().ok());
    EXPECT_EQ(e->phase_times().absint_ns, 0u);
    EXPECT_EQ(json(*e), before);
    const uint64_t asked = e->phase_times().absint_ns;
    EXPECT_GT(asked, 0u);
    EXPECT_TRUE(e->Lint().ok());
    EXPECT_TRUE(e->TypeSignaturesText().ok());
    EXPECT_TRUE(e->RunReport().ok());
    EXPECT_TRUE(e->ExplainAnalyzeText().ok());
    EXPECT_EQ(json(*e), before);
    EXPECT_EQ(e->phase_times().absint_ns, asked);

    // After a bounded stop two stages in.
    EngineOptions bounded;
    bounded.limits.max_stages = 2;
    e = load(bounded);
    EXPECT_FALSE(e->Run().ok());
    ASSERT_EQ(e->outcome().reason, TerminationReason::kStageLimit);
    ASSERT_TRUE(e->has_run());
    EXPECT_EQ(json(*e), before);
  }
}

// ---------------------------------------------------------------------------
// Soundness against a real run
// ---------------------------------------------------------------------------

// Every relation of a completed run must satisfy the inferred signature:
// per-column types and intervals contain every stored value, and the
// cardinality bound contains the actual row count.
void ExpectRunWithinSignatures(Engine& e) {
  auto r = e.StaticAnalysis();
  ASSERT_TRUE(r.ok());
  for (const PredicateSignature& sig : (*r)->signatures) {
    const Relation* rel = e.Find(sig.name, sig.arity);
    if (rel == nullptr) continue;
    if (!sig.populated) {
      EXPECT_EQ(rel->size(), 0u) << sig.DisplayName();
      continue;
    }
    EXPECT_TRUE(sig.card.Contains(rel->size())) << sig.DisplayName();
    for (RowId row = 0; row < rel->size(); ++row) {
      const TupleView t = rel->Row(row);
      for (uint32_t c = 0; c < sig.arity; ++c) {
        const Value v = t[c];
        EXPECT_TRUE(sig.args[c].types.Has(v.kind()))
            << sig.DisplayName() << " col " << c;
        if (v.is_int()) {
          EXPECT_TRUE(sig.args[c].iv.Contains(v.AsInt()))
              << sig.DisplayName() << " col " << c << " = " << v.AsInt();
        }
      }
    }
  }
}

TEST(AbsintSoundness, PrimStyleChoiceProgram) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    prm(nil, a, 0, 0).
    prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                       least(C, I), choice(Y, X).
    new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
    g(a, b, 1). g(b, c, 4). g(a, c, 3). g(c, d, 2).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  ExpectRunWithinSignatures(e);
}

TEST(AbsintSoundness, ArithmeticAndNegation) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    n(3). n(7). n(11).
    sq(Y) <- n(X), Y = X * X.
    odd_gap(D) <- n(A), n(B), A < B, D = B - A, not n(D).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  ExpectRunWithinSignatures(e);
}

}  // namespace
}  // namespace absint
}  // namespace gdlog
