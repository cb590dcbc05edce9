// Tests for the Section 7 extrema-propagation transformation: the naive
// accumulate-and-minimize matching becomes the paper's Example 7, and
// the greedy result is optimal under the asserted (partition) matroid.
#include "analysis/greedy_transform.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/engine.h"
#include "ast/printer.h"
#include "parser/parser.h"
#include "workload/graph_gen.h"

namespace gdlog {
namespace {

constexpr char kNaiveMatching[] = R"(
  opt_matching(C) <- a_matching(C), least(C).
  a_matching(C) <- matching(X, Y, C, I), most(I).
  matching(nil, nil, 0, 0).
  matching(X, Y, C, I) <- next(I), new_arc(X, Y, C, J), I = J + 1,
                          choice(Y, X), choice(X, Y).
  new_arc(X, Y, C, J) <- matching(_, _, C1, J), g(X, Y, C2), C = C1 + C2.
)";

TEST(GreedyTransform, RequiresMatroidAssertion) {
  ValueStore store;
  auto prog = ParseProgram(&store, kNaiveMatching);
  ASSERT_TRUE(prog.ok());
  auto result = PropagateExtremaIntoChoice(*prog, {});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("matroid"), std::string::npos);
}

TEST(GreedyTransform, ProducesExampleSevenShape) {
  ValueStore store;
  auto prog = ParseProgram(&store, kNaiveMatching);
  ASSERT_TRUE(prog.ok());
  GreedyTransformOptions opts;
  opts.assume_matroid = true;
  auto result = PropagateExtremaIntoChoice(*prog, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage_predicate, "matching");
  EXPECT_EQ(result->cost_position, 2);
  // The post-condition pair and the accumulator are gone; the seed fact
  // and the greedy next rule remain.
  ASSERT_EQ(result->transformed.rules.size(), 1u);
  ASSERT_EQ(result->transformed.facts.size(), 1u);
  EXPECT_EQ(result->transformed.facts[0].predicate, "matching");
  const std::string text = ProgramToString(store, result->transformed);
  EXPECT_EQ(text.find("opt_matching"), std::string::npos);
  EXPECT_EQ(text.find("new_arc"), std::string::npos);
  // Example 7's shape: next + base relation + least(C2, I) + both FDs.
  EXPECT_NE(text.find("next("), std::string::npos);
  EXPECT_NE(text.find("g(X, Y, C2)"), std::string::npos);
  EXPECT_NE(text.find("least(C2, I)"), std::string::npos);
  EXPECT_NE(text.find("choice(Y, X)"), std::string::npos);
  EXPECT_NE(text.find("choice(X, Y)"), std::string::npos);
}

TEST(GreedyTransform, TransformedProgramRunsAsGreedyMatching) {
  ValueStore parse_store;
  auto prog = ParseProgram(&parse_store, kNaiveMatching);
  ASSERT_TRUE(prog.ok());
  GreedyTransformOptions opts;
  opts.assume_matroid = true;
  auto result = PropagateExtremaIntoChoice(*prog, opts);
  ASSERT_TRUE(result.ok());

  // Run the transformed program on a bipartite instance.
  GraphGenOptions gopts;
  gopts.seed = 12;
  const Graph g = BipartiteGraph(6, 6, 20, gopts);
  Engine e;
  ValueStore dummy;
  ASSERT_TRUE(
      e.LoadProgram(ProgramToString(parse_store, result->transformed)).ok());
  for (const GraphEdge& edge : g.edges) {
    ASSERT_TRUE(e.AddFact("g", {Value::Int(edge.u), Value::Int(edge.v),
                                Value::Int(edge.w)}).ok());
  }
  ASSERT_TRUE(e.Run().ok());

  // Per-stage costs ascend (greedy order) and the selection respects
  // both FDs.
  int64_t prev = -1;
  int64_t total = 0;
  std::set<int64_t> sources, targets;
  std::vector<std::pair<int64_t, std::vector<Value>>> rows;
  for (const auto& row : e.Query("matching", 4)) {
    if (row[0].is_nil()) continue;
    rows.push_back({row[3].AsInt(), row});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [stage, row] : rows) {
    EXPECT_GT(row[2].AsInt(), prev);
    prev = row[2].AsInt();
    total += row[2].AsInt();
    EXPECT_TRUE(sources.insert(row[0].AsInt()).second);
    EXPECT_TRUE(targets.insert(row[1].AsInt()).second);
  }
  EXPECT_GT(rows.size(), 0u);
}

TEST(GreedyTransform, RejectsProgramsWithoutThePattern) {
  ValueStore store;
  auto prog = ParseProgram(&store, R"(
    p(X) <- q(X).
    q(1).
  )");
  ASSERT_TRUE(prog.ok());
  GreedyTransformOptions opts;
  opts.assume_matroid = true;
  EXPECT_FALSE(PropagateExtremaIntoChoice(*prog, opts).ok());
}

TEST(GreedyTransform, RejectsWhenAccumulatorMissing) {
  // A next rule without the C = C1 + C2 accumulator feeding it.
  ValueStore store;
  auto prog = ParseProgram(&store, R"(
    opt(C) <- reach(C), least(C).
    reach(C) <- p(X, C, I), most(I).
    p(nil, 0, 0).
    p(X, C, I) <- next(I), q(X, C), choice((), X).
  )");
  ASSERT_TRUE(prog.ok());
  GreedyTransformOptions opts;
  opts.assume_matroid = true;
  EXPECT_FALSE(PropagateExtremaIntoChoice(*prog, opts).ok());
}

}  // namespace
}  // namespace gdlog
