// EXPLAIN ANALYZE differential test: every per-goal actual (probes, rows
// touched, matches, mean rows per probe) is asserted against counts
// derived by hand from a tiny fixture, and the misestimation factor must
// equal actual/estimated exactly as reported.
//
// Fixture:
//   e(1,2). e(1,3). e(2,3).
//   f(2). f(3). f(4). f(5). f(6). f(7).
//   g(3).
//   p(X,Y) <- e(X,Y), f(Y).
//   q(X) <- p(X,Y), g(Y).
//
// The cost-based planner orders rule p as e (3 rows) before f (6 rows),
// and rule q as g (1 row, EDB) before p (IDB, default estimate). Hand
// counts for that order:
//
//   rule p: goal e unbound — 1 probe scanning all 3 rows, 3 matches
//           (actual 3.0); goal f bound on Y — one probe per e match, so
//           3 probes, each touching exactly the 1 matching row (Y in
//           {2,3,3}), 3 matches, actual 1.0.
//   rule q: goal g unbound — 1 probe, 1 row, 1 match; goal p bound on
//           Y=3 — 1 probe, p = {(1,2),(1,3),(2,3)} has 2 rows with Y=3,
//           so 2 rows, 2 matches, actual 2.0. The planner's IDB guess is
//           larger, so the misestimation factor is well below 1.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "obs/json.h"

namespace gdlog {
namespace {

constexpr char kFixture[] = R"(
  e(1,2). e(1,3). e(2,3).
  f(2). f(3). f(4). f(5). f(6). f(7).
  g(3).
  p(X,Y) <- e(X,Y), f(Y).
  q(X) <- p(X,Y), g(Y).
)";

struct GoalActual {
  double est = -1;
  uint64_t probes = 0;
  uint64_t rows = 0;
  uint64_t matches = 0;
  double actual_rows = -1;
  double misestimate = -1;
  bool found = false;
};

/// Pulls one goal's numbers out of the report's plans section.
GoalActual FindGoal(const JsonValue& doc, const std::string& goal) {
  GoalActual out;
  const JsonValue* plans = doc.Find("plans");
  if (plans == nullptr || !plans->is_array()) return out;
  for (const JsonValue& rule : plans->items) {
    const JsonValue* goals = rule.Find("goals");
    if (goals == nullptr) continue;
    for (const JsonValue& g : goals->items) {
      const JsonValue* name = g.Find("goal");
      if (name == nullptr || name->string != goal) continue;
      out.found = true;
      if (const JsonValue* e = g.Find("est_rows")) out.est = e->number;
      const JsonValue* actual = g.Find("actual");
      if (actual == nullptr) return out;
      out.probes = static_cast<uint64_t>(actual->Find("probes")->number);
      out.rows = static_cast<uint64_t>(actual->Find("rows")->number);
      out.matches = static_cast<uint64_t>(actual->Find("matches")->number);
      out.actual_rows = actual->Find("actual_rows")->number;
      if (const JsonValue* m = actual->Find("misestimate")) {
        out.misestimate = m->number;
      }
      return out;
    }
  }
  return out;
}

TEST(ExplainAnalyze, ActualsMatchHandCountedFixture) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());
  // Sanity: the fixture derives what we counted from.
  EXPECT_EQ(e.Query("p", 2).size(), 3u);
  EXPECT_EQ(e.Query("q", 1).size(), 2u);

  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // Rule p, goal e/2: full scan, every row matches.
  const GoalActual ge = FindGoal(*doc, "e/2");
  ASSERT_TRUE(ge.found);
  EXPECT_EQ(ge.est, 3.0);
  EXPECT_EQ(ge.probes, 1u);
  EXPECT_EQ(ge.rows, 3u);
  EXPECT_EQ(ge.matches, 3u);
  EXPECT_DOUBLE_EQ(ge.actual_rows, 3.0);
  ASSERT_GE(ge.misestimate, 0);
  EXPECT_DOUBLE_EQ(ge.misestimate, ge.actual_rows / ge.est);

  // Rule p, goal f/1 bound on Y: one probe per e-match, one hit each.
  const GoalActual gf = FindGoal(*doc, "f/1");
  ASSERT_TRUE(gf.found);
  EXPECT_EQ(gf.probes, 3u);
  EXPECT_EQ(gf.rows, 3u);
  EXPECT_EQ(gf.matches, 3u);
  EXPECT_DOUBLE_EQ(gf.actual_rows, 1.0);

  // Rule q, goal g/1: singleton scan.
  const GoalActual gg = FindGoal(*doc, "g/1");
  ASSERT_TRUE(gg.found);
  EXPECT_EQ(gg.probes, 1u);
  EXPECT_EQ(gg.rows, 1u);
  EXPECT_EQ(gg.matches, 1u);

  // Rule q, goal p/2 bound on Y=3: two of p's three tuples match, and
  // the planner's IDB estimate exceeds the truth, so the misestimation
  // factor lands below 1 at exactly actual/est.
  const GoalActual gp = FindGoal(*doc, "p/2");
  ASSERT_TRUE(gp.found);
  EXPECT_EQ(gp.probes, 1u);
  EXPECT_EQ(gp.rows, 2u);
  EXPECT_EQ(gp.matches, 2u);
  EXPECT_DOUBLE_EQ(gp.actual_rows, 2.0);
  // The neutral IDB default, 256 rows over 16 distinct values per bound
  // column.
  EXPECT_EQ(gp.est, 16.0);
  EXPECT_DOUBLE_EQ(gp.misestimate, gp.actual_rows / gp.est);
}

TEST(ExplainAnalyze, TextRendererShowsEstimatesAndActuals) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());
  auto text = e.ExplainAnalyzeText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text->find("e/2"), std::string::npos);
  EXPECT_NE(text->find("est="), std::string::npos);
  EXPECT_NE(text->find("probes="), std::string::npos);
  EXPECT_NE(text->find("actual="), std::string::npos);
  EXPECT_NE(text->find("x0."), std::string::npos);  // a misestimate < 1
  // The analysis-vs-actual cardinality gap table for derived predicates.
  EXPECT_NE(text->find("analysis cardinality bounds"), std::string::npos);
  EXPECT_NE(text->find("p/2"), std::string::npos);
  EXPECT_NE(text->find("within"), std::string::npos);
}

/// A predicate name longer than any line buffer: every line stays whole
/// and keeps all of its fields.
TEST(ExplainAnalyze, LongPredicateNamesKeepWholeLines) {
  const std::string p = "p" + std::string(300, 'x');
  Engine e;
  ASSERT_TRUE(e.LoadProgram("e(1,2). e(2,3).\n" + p + "(X,Y) <- e(X,Y).\n" +
                            "q(X) <- " + p + "(X,Y), e(Y,_).\n")
                  .ok());
  ASSERT_TRUE(e.Run().ok());
  auto text = e.ExplainAnalyzeText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("\n% rule 2 (" + p + "/2):\n"), std::string::npos);
  std::istringstream lines(*text);
  std::string line;
  size_t goals = 0, bounds = 0;
  bool in_bounds = false;
  while (std::getline(lines, line)) {
    ASSERT_EQ(line.rfind('%', 0), 0u) << line;
    if (line.find("analysis cardinality bounds") != std::string::npos) {
      in_bounds = true;
    } else if (in_bounds) {
      ++bounds;
      EXPECT_NE(line.find(" bound=["), std::string::npos) << line;
      EXPECT_NE(line.find(" actual="), std::string::npos) << line;
    } else if (line.rfind("%   goal", 0) == 0) {
      ++goals;
      EXPECT_NE(line.find(" bound="), std::string::npos) << line;
      EXPECT_NE(line.find("  est="), std::string::npos) << line;
      EXPECT_NE(line.find("  probes="), std::string::npos) << line;
    }
  }
  EXPECT_EQ(goals, 3u);   // e in rule 2; the long name and e in rule 3
  EXPECT_EQ(bounds, 2u);  // one per IDB predicate: the long name and q
  EXPECT_NE(text->find("%   " + p + "/2 bound=[0, 2]"), std::string::npos);
}

TEST(ExplainAnalyze, BeforeRunIsAnError) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  EXPECT_FALSE(e.ExplainAnalyzeText().ok());
}

TEST(ExplainAnalyze, ActualsAbsentWhenMetricsOff) {
  EngineOptions opts;
  opts.obs.metrics_enabled = false;
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgram(kFixture).ok());
  ASSERT_TRUE(e.Run().ok());
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok());
  // Estimates are still reported; the executor-side actuals need the
  // metrics-mode goal tables and must vanish cleanly, not crash.
  const GoalActual ge = FindGoal(*doc, "e/2");
  ASSERT_TRUE(ge.found);
  EXPECT_EQ(ge.est, 3.0);
  EXPECT_EQ(ge.actual_rows, -1);
}

}  // namespace
}  // namespace gdlog
