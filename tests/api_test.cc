// Tests for the Engine facade: lifecycle, error paths, queries,
// introspection, and engine options.
#include "api/engine.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/lint.h"
#include "obs/json.h"

namespace gdlog {
namespace {

TEST(Api, QueryUnknownPredicateIsEmpty) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(1).").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_TRUE(e.Query("nope", 3).empty());
  EXPECT_EQ(e.Find("nope", 3), nullptr);
  // Arity is part of the predicate identity.
  EXPECT_TRUE(e.Query("p", 2).empty());
  EXPECT_EQ(e.Query("p", 1).size(), 1u);
}

TEST(Api, LoadTwiceRejected) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(1).").ok());
  EXPECT_FALSE(e.LoadProgram("q(1).").ok());
}

TEST(Api, RunWithoutProgramRejected) {
  Engine e;
  EXPECT_FALSE(e.Run().ok());
}

TEST(Api, VerifyBeforeRunRejected) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(1).").ok());
  EXPECT_FALSE(e.VerifyStableModel().ok());
}

TEST(Api, ParseErrorsSurface) {
  Engine e;
  const Status st = e.LoadProgram("p(X <- q(X).");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(Api, AnalysisErrorsSurface) {
  Engine e;
  const Status st = e.LoadProgram(R"(
    p(X) <- q(X), not p(X).
    q(1).
  )");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAnalysisError);
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kNotStageStratified);
}

TEST(Api, LintReportsDiagnosticsWithoutFailing) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    p(X) <- q(X).
    q(1).
    orphan(9).
  )").ok());
  auto lint = e.Lint();
  ASSERT_TRUE(lint.ok());
  EXPECT_TRUE(lint->clean());
  EXPECT_EQ(lint->counts.warnings, 1u);  // orphan/1 is unused (GD004)
  ASSERT_EQ(lint->diagnostics.size(), 1u);
  EXPECT_EQ(lint->diagnostics[0].code, diag::kUnusedPredicate);
}

TEST(Api, UnsafeRuleRejectedAtRun) {
  // Head variable never bound: caught at compile (Run) time.
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(X, Y) <- q(X).").ok());
  const Status st = e.Run();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAnalysisError);
}

// A Run that fails at compile has stopped: neither run_state nor the
// engine.run_state gauge may read "completed".
TEST(Api, RunFailingAtCompileIsStopped) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(X) <- q(Y). q(1).").ok());
  const Status st = e.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAnalysisError);
  EXPECT_EQ(e.run_state(), EngineRunState::kStopped);
  auto metrics = e.MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("gdlog_engine_run_state{state=\"stopped\"} 1"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("gdlog_engine_run_state{state=\"completed\"} 0"),
            std::string::npos);
}

// The EDB's extent is recorded where its rows enter, so a row added
// after a Run that failed at compile seeds the static analysis too.
TEST(Api, RowAddedAfterAFailedRunSeedsTheAnalysis) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(X) <- q(Y). q(1).").ok());
  ASSERT_FALSE(e.Run().ok());
  ASSERT_TRUE(e.AddFact("q", {Value::Int(2)}).ok());
  auto types = e.TypeSignaturesText();
  ASSERT_TRUE(types.ok()) << types.status().ToString();
  EXPECT_NE(types->find("q/1: (int[1, 2]) rows [2, 2] [edb]"),
            std::string::npos)
      << *types;
}

// Run refuses an unsafe rule with the code, message and location of a
// diagnostic Lint reports for it, with the join planner or without it;
// no refusal names the parser's _G<n> for an anonymous variable.
TEST(Api, RunRefusesAnUnsafeRuleWithLintsDiagnostic) {
  const char* programs[] = {
      "q(1, 5). q(2, 3). p(X, C) <- q(X, C), most(C, G).",
      "q(1, 5). q(2, 3). p(X, C) <- q(X, C), least(C, _).",
      "q(1, 2). p(X, C) <- q(X, C), least(D, X).",
      "s(nil, 0, 0). q(a, 0). q(b, 0). w(a, 1, 1). w(b, 2, 1). w(b, 2, 2).\n"
      "s(X, C, I) <- next(I), q(X, J), J < I, w(X, C, I), least(C, I).",
      "q(1). p(Y) <- q(X + 1), Y = X.",
      "q(1). r(1, 2). p(X) <- q(X), not r(X, Y + 1).",
  };
  for (const char* text : programs) {
    for (bool planner : {true, false}) {
      EngineOptions opts;
      opts.eval.use_join_planner = planner;
      Engine e(opts);
      ASSERT_TRUE(e.LoadProgram(text).ok()) << text;
      auto lint = e.Lint();
      ASSERT_TRUE(lint.ok()) << lint.status().ToString();
      const Status run = e.Run();
      EXPECT_EQ(run.code(), StatusCode::kAnalysisError) << text;
      EXPECT_TRUE(std::any_of(
          lint->diagnostics.begin(), lint->diagnostics.end(),
          [&](const Diagnostic& d) {
            return d.code == DiagCodeOfStatus(run) &&
                   DiagnosticToStatus(d).ToString() == run.ToString();
          }))
          << text << "\n" << run.ToString();
      EXPECT_EQ(run.message().find("_G"), std::string::npos) << run.message();
    }
  }
}

// Goals run in the order readiness finds: inside a negated conjunction
// the first ready goal runs next, and an atom with an arithmetic
// argument waits for its variables. The checker agrees the model is
// stable.
TEST(Api, GoalsRunInTheOrderReadinessFinds) {
  struct Case {
    const char* text;
    int64_t p;
  };
  const Case cases[] = {
      {"q(1). q(2). r(1, 5). p(X) <- q(X), not (Y > 1, r(X, Y)).", 2},
      {"q(1). q(2). s(1). p(Y) <- q(X + 1), s(X), Y = X.", 1},
  };
  for (const Case& c : cases) {
    for (bool planner : {true, false}) {
      EngineOptions opts;
      opts.eval.use_join_planner = planner;
      Engine e(opts);
      ASSERT_TRUE(e.LoadProgram(c.text).ok()) << c.text;
      const Status run = e.Run();
      ASSERT_TRUE(run.ok()) << c.text << "\n" << run.ToString();
      EXPECT_EQ(e.Query("p", 1),
                std::vector<std::vector<Value>>{{Value::Int(c.p)}})
          << c.text;
      auto check = e.VerifyStableModel();
      ASSERT_TRUE(check.ok()) << check.status().ToString();
      EXPECT_TRUE(check->stable) << check->diagnostic;
    }
  }
}

// A Run that fails at compile leaves the EDB editable: a retract after
// it removes the row. The compiler refuses only unsafe rules, before it
// indexes any relation; storage_test's Index.RetractRebuildsTheIndexes
// covers a retract from an indexed relation.
TEST(Api, RetractAfterARunThatFailedAtCompile) {
  Engine e;
  ASSERT_TRUE(
      e.LoadProgram("q(1,2). r(2). p(X) <- q(X, Y), r(Y). s(X, Z) <- q(X, Y).")
          .ok());
  const Status run = e.Run();
  EXPECT_EQ(run.code(), StatusCode::kAnalysisError) << run.ToString();
  EXPECT_EQ(DiagCodeOfStatus(run), diag::kUnsafeHeadVar) << run.ToString();
  EXPECT_TRUE(e.RetractFact("r", {Value::Int(2)}).ok());
  EXPECT_TRUE(e.Query("r", 1).empty());
}

// -- LoadProgram refuses with the diagnostic lint prints --------------------
//
// Program structure is decided once (AnalyzeStages): a malformed rule or
// a rejected clique is refused at LoadProgram with the code, text and
// location of one of the diagnostics LintSource reports for the program.

/// LoadProgram refuses `text` with exactly `want`, and that is
/// DiagnosticToStatus of a diagnostic lint reports for `text`.
void ExpectLoadRefusal(const std::string& text, const std::string& want) {
  Engine e;
  const Status load = e.LoadProgram(text);
  EXPECT_EQ(load.ToString(), want) << text;
  ValueStore store;
  const LintResult lint = LintSource(&store, text);
  EXPECT_TRUE(std::any_of(lint.diagnostics.begin(), lint.diagnostics.end(),
                          [&](const Diagnostic& d) {
                            return DiagnosticToStatus(d).ToString() ==
                                   load.ToString();
                          }))
      << text << load.ToString() << "\n"
      << RenderDiagnostics(lint.diagnostics, "");
}

TEST(Api, LoadRefusesTwoNextGoalsWithLintsDiagnostic) {
  ExpectLoadRefusal(
      "q(1, 2).\np(X, C, I) <- next(I), next(J), q(X, C), J < I.\n",
      "AnalysisError: [GD101] rule for p has 2 next goals; at most one is "
      "allowed at line 2, column 24");
}

TEST(Api, LoadRefusesANonVariableCostWithLintsDiagnostic) {
  ExpectLoadRefusal(
      "q(1, 2).\np(X, C) <- q(X, C), least(3, X).\n",
      "AnalysisError: [GD104] least cost in a rule for p must be a single "
      "variable at line 2, column 21");
}

TEST(Api, LoadRefusesACostInItsGroupingWithLintsDiagnostic) {
  ExpectLoadRefusal(
      "q(1, 2).\np(X, C) <- q(X, C), least(C, C).\n",
      "AnalysisError: [GD105] least cost variable C also appears in the "
      "grouping of a rule for p at line 2, column 21");
}

TEST(Api, LoadRefusesABadStageVariableOrTwoExtremaWithLintsDiagnostic) {
  ExpectLoadRefusal(
      "q(1, 2).\np(X, C) <- next(I), q(X, C).\n",
      "AnalysisError: [GD102] stage variable I of next(...) does not appear "
      "in the head of a rule for p at line 2, column 12");
  ExpectLoadRefusal(
      "q(1).\np(X, Y) <- next(_), q(X), Y = X.\n",
      "AnalysisError: [GD102] stage variable _ of next(...) does not appear "
      "in the head of a rule for p at line 2, column 12");
  ExpectLoadRefusal(
      "q(1, 2).\np(I, I) <- next(I), q(I, _).\n",
      "AnalysisError: [GD102] stage variable I of next(...) appears more "
      "than once in the head of a rule for p at line 2, column 12");
  ExpectLoadRefusal(
      "q(1, 2).\np(X, C) <- q(X, C), least(C, X), most(X, C).\n",
      "AnalysisError: [GD103] rule for p has more than one extrema goal at "
      "line 2, column 34");
}

// Conflicting stage positions (GD106) and stage variables at two head
// positions (GD107) reject their own cliques: lint reports both, each
// located at its clique's first clause, and LoadProgram refuses with
// the first.
TEST(Api, StagePositionConflictsRejectTheirCliquesAndLintReportsBoth) {
  const std::string text =
      "q(1, 2).\n"
      "p(nil, 0, 0).\n"
      "p(X, C, I) <- next(I), q(X, C).\n"
      "p(I, X, C) <- next(I), q(X, C).\n"
      "s(nil, 0).\n"
      "s(X, I) <- next(I), t(X, J, _), J < I.\n"
      "t(X, I, I) <- s(X, I).\n";
  ExpectLoadRefusal(
      text,
      "AnalysisError: [GD106] recursive clique {p/3} is not "
      "stage-stratified at line 2, column 1; dependency cycle: p -> p; "
      "predicate p has conflicting stage argument positions 2 and 0");
  ValueStore store;
  const LintResult lint = LintSource(&store, text);
  ASSERT_EQ(lint.diagnostics.size(), 2u)
      << RenderDiagnostics(lint.diagnostics, "");
  const Diagnostic& gd107 = lint.diagnostics[1];
  EXPECT_EQ(gd107.code, diag::kTwoHeadStagePos);
  EXPECT_EQ(gd107.loc, (SourceLoc{5, 1}));
  EXPECT_EQ(gd107.notes.back(),
            "rule for t places stage variables at two head positions (1 and "
            "2)");
}

TEST(Api, LoadRefusesMixedRuleKindsWithLintsText) {
  ExpectLoadRefusal(
      "q(1, 2).\np(X, I) <- next(I), q(X, _).\n"
      "p(X, I) <- p(X, J), I = J + 1, J < 3.\np(a, 0).\n",
      "AnalysisError: [GD108] recursive clique {p/2} is not "
      "stage-stratified at line 2, column 1; dependency cycle: p -> p; "
      "predicate p mixes next rules and flat recursive rules");
}

// A meta goal inside `not (...)` has no rewriting (GD111): refused at
// LoadProgram, where it used to reach Run and fail there without a code.
TEST(Api, LoadRefusesAMetaGoalInsideANegatedConjunction) {
  ExpectLoadRefusal(
      "q(1, 2).\np(X) <- q(X, _), not (q(X, Y), choice(X, Y)).\n",
      "AnalysisError: [GD111] choice goal inside a negated conjunction in a "
      "rule for p at line 2, column 32");
  ExpectLoadRefusal(
      "q(1, 2).\np(X) <- q(X, _), not (q(X, Y), least(Y, X)).\n",
      "AnalysisError: [GD111] least goal inside a negated conjunction in a "
      "rule for p at line 2, column 32");
}

TEST(Api, FactsViaTextAndApiAgree) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    q(7).
    r(X) <- q(X).
  )").ok());
  ASSERT_TRUE(e.AddFact("q", {Value::Int(8)}).ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("r", 1).size(), 2u);
}

TEST(Api, SymbolAndNilValues) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("out(X, Y) <- in(X, Y).").ok());
  ASSERT_TRUE(e.AddFact("in", {e.Sym("hello"), e.Nil()}).ok());
  ASSERT_TRUE(e.Run().ok());
  const auto rows = e.Query("out", 2);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(e.store().SymbolName(rows[0][0]), "hello");
  EXPECT_TRUE(rows[0][1].is_nil());
}

TEST(Api, StatsAvailableAfterRun) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    tc(X, Y) <- edge(X, Y).
    tc(X, Z) <- tc(X, Y), edge(Y, Z).
  )").ok());
  EXPECT_EQ(e.stats(), nullptr);
  ASSERT_TRUE(e.Run().ok());
  ASSERT_NE(e.stats(), nullptr);
  EXPECT_GT(e.stats()->exec.inserts, 0u);
  EXPECT_GT(e.stats()->saturation_rounds, 0u);
}

TEST(Api, AnalysisIntrospection) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    sp(nil, 0, 0).
    sp(X, C, I) <- next(I), p(X, C), least(C, I).
  )").ok());
  ASSERT_NE(e.analysis(), nullptr);
  bool found_stage_clique = false;
  for (const CliqueStageInfo& cl : e.analysis()->cliques) {
    if (cl.cls == CliqueClass::kStageStratified) found_stage_clique = true;
  }
  EXPECT_TRUE(found_stage_clique);
}

TEST(Api, RelaxedModeAcceptsAndRuns) {
  Engine e;  // a relaxed clique loads, with its GD011 note
  ASSERT_TRUE(e.LoadProgram(R"(
    q(10). q(20).
    p(nil, 0).
    p(X, I) <- next(I), cand(X, J), J < I, choice((), X).
    cand(X, J) <- p(_, J), q(X), not blocked(X, J).
    blocked(X, J) <- p(X, J).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_GE(e.Query("p", 2).size(), 2u);  // seed + at least one firing
}

TEST(Api, IntValueRange) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("big(X) <- v(X).").ok());
  ASSERT_TRUE(e.AddFact("v", {Value::Int(Value::kMaxInt)}).ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("big", 1)[0][0].AsInt(), Value::kMaxInt);
}

TEST(Api, NegativeArithmetic) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    v(5).
    w(Y) <- v(X), Y = X - 12.
    z(Y) <- w(X), Y = X * -2.
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("w", 1)[0][0].AsInt(), -7);
  EXPECT_EQ(e.Query("z", 1)[0][0].AsInt(), 14);
}

TEST(Api, DivisionAndModulo) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    v(17).
    d(Y) <- v(X), Y = X / 5.
    m(Y) <- v(X), Y = X mod 5.
    never(Y) <- v(X), Y = X / 0.
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("d", 1)[0][0].AsInt(), 3);
  EXPECT_EQ(e.Query("m", 1)[0][0].AsInt(), 2);
  EXPECT_TRUE(e.Query("never", 1).empty());  // division by zero: no match
}

// Observability integration: a Dijkstra run with obs enabled must produce
// a parseable run report whose fixpoint totals show the alternation at
// work (>= 1 gamma fire per assigned stage, >= 1 saturation round) and a
// loadable Chrome trace.
TEST(Api, RunReportAndTraceForDijkstra) {
  EngineOptions opts;
  opts.obs.enabled = true;
  opts.obs.sample_every = 1;
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgram(R"(
    dist(Y, D, I) <- next(I), cand(Y, D, J), J < I, least(D, I),
                     not (dist(Y, _, J2), J2 < I).
    cand(Y, D, J) <- dist(X, DX, J), g(X, Y, C), D = DX + C.
  )").ok());
  // A 5-node weighted graph; node 0 is the source.
  const int edges[][3] = {{0, 1, 4}, {0, 2, 1}, {2, 1, 2}, {1, 3, 1},
                          {2, 3, 5}, {3, 4, 3}};
  for (const auto& ed : edges) {
    ASSERT_TRUE(e.AddFact("g", {Value::Int(ed[0]), Value::Int(ed[1]),
                                Value::Int(ed[2])}).ok());
  }
  ASSERT_TRUE(e.AddFact("dist", {Value::Int(0), Value::Int(0),
                                 Value::Int(0)}).ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("dist", 3).size(), 5u);  // every node settles once

  auto report = e.RunReport();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const JsonValue* fx = doc->Find("fixpoint");
  ASSERT_NE(fx, nullptr);
  const double stages = fx->Find("stages_assigned")->number;
  const double firings = fx->Find("gamma_firings")->number;
  EXPECT_GE(stages, 1);
  EXPECT_GE(firings, stages);  // >= one gamma fire per stage
  EXPECT_GE(fx->Find("saturation_rounds")->number, 1);

  // The ablation flags are echoed in the options block.
  const JsonValue* op = doc->Find("options");
  ASSERT_NE(op, nullptr);
  for (const char* flag : {"use_priority_queue", "use_seminaive",
                           "use_merge_congruence"}) {
    ASSERT_NE(op->Find(flag), nullptr) << flag;
    EXPECT_TRUE(op->Find(flag)->boolean) << flag;
  }

  // Per-rule profiles carry firing counts; the next rule fired.
  const JsonValue* rules = doc->Find("rules");
  ASSERT_TRUE(rules != nullptr && rules->is_array());
  double next_firings = 0;
  for (const JsonValue& r : rules->items) {
    if (r.Find("kind")->string == "next") next_firings += r.Find("firings")->number;
  }
  EXPECT_GE(next_firings, 1);

  // Phase wall times: evaluation took nonzero time.
  const JsonValue* phases = doc->Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_GT(phases->Find("eval_ms")->number, 0);

  // Metrics snapshot is embedded when obs is on.
  ASSERT_NE(doc->Find("metrics"), nullptr);
  EXPECT_TRUE(doc->Find("metrics")->is_object());

  // The trace is loadable JSON with a nonempty event timeline.
  const std::string path = ::testing::TempDir() + "/gdlog_api_trace.json";
  ASSERT_TRUE(e.WriteTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  auto trace = ParseJson(text.str());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  EXPECT_FALSE(events->items.empty());
  bool saw_saturate = false, saw_gamma = false;
  for (const JsonValue& ev : events->items) {
    const JsonValue* name = ev.Find("name");
    if (name == nullptr) continue;
    if (name->string == "Saturate") saw_saturate = true;
    if (name->string == "GammaPhase") saw_gamma = true;
  }
  EXPECT_TRUE(saw_saturate);
  EXPECT_TRUE(saw_gamma);
}

TEST(Api, DefaultObsIsAlwaysOn) {
  // Metrics and the flight recorder default on; only the Chrome-trace
  // tracer stays opt-in.
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(X) <- q(X). q(1).").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_NE(e.metrics(), nullptr);
  EXPECT_NE(e.flight_recorder(), nullptr);
  EXPECT_EQ(e.tracer(), nullptr);
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("metrics")->kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(e.MetricsText().ok());
  EXPECT_NE(e.DumpFlightRecorder().find("run-start"), std::string::npos);
  // Tracing off: WriteTrace refuses rather than writing an empty file.
  EXPECT_FALSE(e.WriteTrace("/tmp/never.json").ok());
}

TEST(Api, RunReportWithObsFullyOffStillValid) {
  EngineOptions opts;
  opts.obs.metrics_enabled = false;
  opts.obs.recorder_enabled = false;
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgram("p(X) <- q(X). q(1).").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.metrics(), nullptr);
  EXPECT_EQ(e.flight_recorder(), nullptr);
  EXPECT_FALSE(e.MetricsText().ok());
  EXPECT_NE(e.DumpFlightRecorder().find("disabled"), std::string::npos);
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("metrics")->kind, JsonValue::Kind::kNull);
}

TEST(Api, HostileRuleNamesSurviveJsonWriters) {
  // Predicate names with quotes, backslashes, and newlines cannot come
  // from the parser, but LoadProgramAst accepts any string — and those
  // names flow into the trace JSON, the run report's rule/plan sections,
  // and metric label values. Every writer must escape, not interpolate.
  const std::string evil = "we\"ird\\p\n\ttick`$";
  Program prog;
  Rule fact;
  fact.head = Literal::Atom("base", {TermNode::Const(Value::Int(1))});
  prog.rules.push_back(fact);
  Rule fact2;
  fact2.head = Literal::Atom("base", {TermNode::Const(Value::Int(2))});
  prog.rules.push_back(fact2);
  Rule rule;
  rule.head = Literal::Atom(evil, {TermNode::Var("X")});
  rule.body.push_back(Literal::Atom("base", {TermNode::Var("X")}));
  prog.rules.push_back(rule);

  EngineOptions opts;
  opts.obs.enabled = true;  // tracer on: exercise the Chrome writer too
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgramAst(std::move(prog)).ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query(evil, 1).size(), 2u);

  // --json-report path: the report must parse and round-trip the name.
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* rules = doc->Find("rules");
  ASSERT_TRUE(rules != nullptr && rules->is_array());
  bool found = false;
  for (const JsonValue& r : rules->items) {
    const JsonValue* head = r.Find("head");
    if (head != nullptr && head->string == evil + "/1") found = true;
  }
  EXPECT_TRUE(found) << *report;

  // Chrome trace path: the written file must be valid JSON.
  const std::string path = ::testing::TempDir() + "/gdlog_evil_trace.json";
  ASSERT_TRUE(e.WriteTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  auto trace = ParseJson(text.str());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace->Find("traceEvents")->is_array());

  // Prometheus path: label values must come out escaped.
  auto metrics = e.MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->find("we\"ird"), std::string::npos) << *metrics;
  EXPECT_NE(metrics->find("we\\\"ird"), std::string::npos) << *metrics;
}

TEST(Api, ReportAndMetricsAgreeOnPeakMemory) {
  // Single source of truth: termination.peak_memory_bytes in the report,
  // outcome().peak_memory_bytes, and the memory.tracked_peak_bytes gauge
  // are all filled from MemoryBudget::peak() at the same instant.
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(X) <- q(X). q(1). q(2). q(3).").ok());
  ASSERT_TRUE(e.Run().ok());
  ASSERT_NE(e.metrics(), nullptr);
  const Gauge* g = e.metrics()->FindGauge("memory.tracked_peak_bytes");
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->value(), 0);
  EXPECT_EQ(static_cast<uint64_t>(g->value()), e.outcome().peak_memory_bytes);
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("termination")->Find("peak_memory_bytes")->number,
            static_cast<double>(g->value()));
}

/// The engine.run_state gauge for `state` in a report's metrics
/// snapshot; -1 when the report has none.
double ReportedRunState(const JsonValue& report, const std::string& state) {
  const JsonValue* gauges = report.Find("metrics")->Find("gauges");
  for (const JsonValue& gj : gauges->items) {
    if (gj.Find("name")->string == "engine.run_state" &&
        gj.Find("labels")->Find("state")->string == state) {
      return gj.Find("value")->number;
    }
  }
  return -1;
}

TEST(Api, CompletedRunReportSaysCompleted) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(1). q(X) <- p(X).").ok());
  ASSERT_TRUE(e.Run().ok());
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(ReportedRunState(*doc, "completed"), 1);
  EXPECT_EQ(ReportedRunState(*doc, "idle"), 0);
}

TEST(Api, BoundedStopReportGolden) {
  // Golden shape of a bounded-stop report: the termination section names
  // the limit, carries the GD code in its status, and its peak memory
  // equals both outcome() and the memory.tracked_peak_bytes gauge —
  // MemoryBudget::peak() read once at the Run boundary.
  EngineOptions opts;
  opts.limits.max_tuples = 200;
  opts.obs.recorder_dump_on_stop = false;  // keep test logs quiet
  Engine e(opts);
  ASSERT_TRUE(
      e.LoadProgram("c(0). c(M) <- c(N), M = N + 1, N < 2000000000.").ok());
  ASSERT_FALSE(e.Run().ok());
  ASSERT_TRUE(e.has_run());

  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* term = doc->Find("termination");
  ASSERT_NE(term, nullptr);
  EXPECT_EQ(term->Find("reason")->string, "tuple-limit");
  EXPECT_FALSE(term->Find("ok")->boolean);
  EXPECT_NE(term->Find("status")->string.find("GD201"), std::string::npos);
  EXPECT_GT(term->Find("guard_checks")->number, 0);

  const double report_peak = term->Find("peak_memory_bytes")->number;
  EXPECT_GT(report_peak, 0);
  EXPECT_EQ(report_peak,
            static_cast<double>(e.outcome().peak_memory_bytes));
  ASSERT_NE(e.metrics(), nullptr);
  const Gauge* g = e.metrics()->FindGauge("memory.tracked_peak_bytes");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(report_peak, static_cast<double>(g->value()));

  // The metrics snapshot embedded in the same report agrees too.
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* gauges = metrics->Find("gauges");
  ASSERT_TRUE(gauges != nullptr && gauges->is_array());
  bool found = false;
  for (const JsonValue& gj : gauges->items) {
    if (gj.Find("name")->string == "memory.tracked_peak_bytes") {
      found = true;
      EXPECT_EQ(gj.Find("value")->number, report_peak);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(ReportedRunState(*doc, "stopped"), 1);
  EXPECT_EQ(ReportedRunState(*doc, "idle"), 0);
}

}  // namespace
}  // namespace gdlog
