// Cost-based join planning: estimate units plus the compiler
// integration — boundness analysis, selectivity ordering, automatic
// index creation, and the degenerate shapes (single-goal bodies,
// all-unbound goals, cross products) the greedy picker must not break.
#include "eval/join_planner.h"

#include <gtest/gtest.h>

#include "analysis/stage.h"
#include "eval/rule_compiler.h"
#include "parser/parser.h"
#include "storage/catalog.h"
#include "value/value.h"

namespace gdlog {
namespace {

// -- Estimate units -----------------------------------------------------

TEST(JoinPlannerEstimates, EstimateCountsRowsAndDistincts) {
  Catalog catalog;
  const PredicateId p = catalog.Ensure("g", 2);
  for (int64_t x : {1, 1, 2, 3}) {
    Value row[2] = {Value::Int(x), Value::Int(7)};
    catalog.relation(p).Insert(TupleView(row, 2));
  }
  JoinPlanner planner(&catalog);
  // Set semantics dedup the repeated (1,7): 3 rows remain.
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {}), 3.0);
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {0}), 1.0);
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {1}), 3.0);
  const RelationEstimate& est = planner.Estimate(p);
  EXPECT_DOUBLE_EQ(est.rows, 3.0);
  ASSERT_EQ(est.distinct.size(), 2u);
  EXPECT_DOUBLE_EQ(est.distinct[0], 3.0);  // 1, 2, 3
  EXPECT_DOUBLE_EQ(est.distinct[1], 1.0);  // always 7
}

TEST(JoinPlannerEstimates, ScanRowsAppliesIndependenceModel) {
  RelationEstimate est;
  est.rows = 100;
  est.distinct = {10, 4};
  EXPECT_DOUBLE_EQ(JoinPlanner::ScanRows(est, {}), 100.0);
  EXPECT_DOUBLE_EQ(JoinPlanner::ScanRows(est, {0}), 10.0);
  EXPECT_DOUBLE_EQ(JoinPlanner::ScanRows(est, {1}), 25.0);
  // Fully bound: 100 / 40 but floored at one matching row.
  EXPECT_DOUBLE_EQ(JoinPlanner::ScanRows(est, {0, 1}), 2.5);
  est.rows = 8;
  EXPECT_DOUBLE_EQ(JoinPlanner::ScanRows(est, {0, 1}), 1.0);
}

TEST(JoinPlannerEstimates, EmptyRelationGetsNeutralDefault) {
  Catalog catalog;
  const PredicateId p = catalog.Ensure("idb", 3);
  JoinPlanner planner(&catalog);
  const RelationEstimate& est = planner.Estimate(p);
  EXPECT_DOUBLE_EQ(est.rows, JoinPlanner::kDefaultRows);
  ASSERT_EQ(est.distinct.size(), 3u);
  EXPECT_DOUBLE_EQ(est.distinct[0], JoinPlanner::kDefaultDistinct);
}

TEST(JoinPlannerEstimates, EstimatesAreCachedPerPredicate) {
  Catalog catalog;
  const PredicateId p = catalog.Ensure("e", 1);
  JoinPlanner planner(&catalog);
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {}), JoinPlanner::kDefaultRows);
  // Rows added after the first estimate do not change the cached stats —
  // planning stays deterministic over one compile.
  Value row[1] = {Value::Int(1)};
  catalog.relation(p).Insert(TupleView(row, 1));
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {}), JoinPlanner::kDefaultRows);
}

TEST(JoinPlannerEstimates, CountsOnlyBoundColumnsOverTheRecordedRows) {
  Catalog catalog;
  const PredicateId p = catalog.Ensure("e", 3);
  auto insert = [&](int64_t a, int64_t b, int64_t c) {
    Value row[3] = {Value::Int(a), Value::Int(b), Value::Int(c)};
    catalog.relation(p).Insert(TupleView(row, 3));
  };
  for (int64_t i = 0; i < 10; ++i) insert(i, i % 2, 7);
  JoinPlanner planner(&catalog);
  // The row count is taken at once; no column is counted until bound.
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {}), 10.0);
  EXPECT_EQ(planner.Estimate(p).distinct, (std::vector<double>{0, 0, 0}));
  // Rows added after the first estimate count neither in the row count
  // nor in a column counted later.
  insert(100, 5, 8);
  insert(101, 6, 9);
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {1}), 5.0);
  EXPECT_EQ(planner.Estimate(p).distinct, (std::vector<double>{0, 2, 0}));
  EXPECT_DOUBLE_EQ(planner.EstimateScanRows(p, {0, 2}), 1.0);
  EXPECT_EQ(planner.Estimate(p).distinct, (std::vector<double>{10, 2, 1}));
}

// -- Compiler integration -----------------------------------------------

struct Compiled {
  ValueStore store;
  Catalog catalog;
  Program program;
  StageAnalysis analysis;
  std::vector<CompiledRule> rules;
};

/// Parses and compiles `text` with the planner attached, after seeding
/// EDB relations via `facts` (predicate -> rows) so the planner sees
/// real cardinalities like Engine::Run does.
std::unique_ptr<Compiled> CompileWithPlanner(
    const char* text,
    const std::vector<std::pair<std::string, std::vector<std::vector<int64_t>>>>&
        facts = {},
    bool use_planner = true) {
  auto c = std::make_unique<Compiled>();
  auto prog = ParseProgram(&c->store, text);
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  c->program = std::move(prog).value();
  auto analysis = AnalyzeStages(c->program);
  EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
  c->analysis = std::move(analysis).value();
  for (const auto& [pred, rows] : facts) {
    for (const auto& row : rows) {
      const PredicateId id =
          c->catalog.Ensure(pred, static_cast<uint32_t>(row.size()));
      std::vector<Value> vals;
      for (int64_t v : row) vals.push_back(Value::Int(v));
      c->catalog.relation(id).Insert(
          TupleView(vals.data(), static_cast<uint32_t>(vals.size())));
    }
  }
  JoinPlanner planner(&c->catalog);
  CompileProgramOptions opts;
  if (use_planner) opts.planner = &planner;
  auto rules = CompileProgram(c->program, c->analysis, &c->catalog, &c->store,
                              opts);
  EXPECT_TRUE(rules.ok()) << rules.status().ToString();
  c->rules = std::move(rules).value();
  return c;
}

/// The compiled rule whose head is `head` ("pred/arity"). Fact rules are
/// loaded directly, so compiled indices do not track program positions.
const CompiledRule& RuleFor(const Compiled& c, const std::string& head) {
  for (const CompiledRule& r : c.rules) {
    if (c.catalog.DisplayName(r.head_pred) == head) return r;
  }
  ADD_FAILURE() << "no compiled rule with head " << head;
  static CompiledRule none;
  return none;
}

/// Scan goals of the rule's generator plan, as predicate display names
/// in plan order.
std::vector<std::string> ScanOrder(const Compiled& c, size_t rule) {
  std::vector<std::string> order;
  for (const CompiledLiteral& lit : c.rules[rule].generator) {
    if (lit.kind == CompiledLiteral::Kind::kScan && !lit.scan.negated) {
      order.push_back(c.catalog.DisplayName(lit.scan.pred));
    }
  }
  return order;
}

TEST(JoinPlannerCompile, OrdersBySelectivityNotParserOrder) {
  // big/2 has 100 rows, small/2 has 2; both are unbound at the start, so
  // the planner must lead with small even though big is written first.
  std::vector<std::vector<int64_t>> big, small;
  for (int64_t i = 0; i < 100; ++i) big.push_back({i, i % 10});
  small = {{1, 2}, {3, 4}};
  auto c = CompileWithPlanner("out(X, Z) <- big(X, Y), small(Y, Z).",
                              {{"big", big}, {"small", small}});
  EXPECT_EQ(ScanOrder(*c, 0),
            (std::vector<std::string>{"small/2", "big/2"}));
  // Parser order is kept without the planner.
  auto u = CompileWithPlanner("out(X, Z) <- big(X, Y), small(Y, Z).",
                              {{"big", big}, {"small", small}},
                              /*use_planner=*/false);
  EXPECT_EQ(ScanOrder(*u, 0),
            (std::vector<std::string>{"big/2", "small/2"}));
  EXPECT_TRUE(u->rules[0].plan_decisions.empty());
}

TEST(JoinPlannerCompile, BoundProbeBeatsSmallerUnboundScan) {
  // After edge(X, Y) binds Y, probing big/2 on its first column
  // (est 1000/1000 = 1) is cheaper than scanning mid/1 (est 50).
  std::vector<std::vector<int64_t>> big, mid, edge;
  for (int64_t i = 0; i < 1000; ++i) big.push_back({i, i});
  for (int64_t i = 0; i < 50; ++i) mid.push_back({i});
  edge = {{1, 2}};
  auto c = CompileWithPlanner("out(X, Z) <- edge(X, Y), mid(W), big(Y, Z).",
                              {{"big", big}, {"mid", mid}, {"edge", edge}});
  EXPECT_EQ(ScanOrder(*c, 0),
            (std::vector<std::string>{"edge/2", "big/2", "mid/1"}));
  // The recorded decisions mirror the chosen order, with the boundness
  // the picker saw.
  const auto& dec = c->rules[0].plan_decisions;
  ASSERT_EQ(dec.size(), 3u);
  EXPECT_EQ(dec[0].goal, "edge/2");
  EXPECT_EQ(dec[0].bound_cols, 0u);
  EXPECT_EQ(dec[1].goal, "big/2");
  EXPECT_EQ(dec[1].bound_cols, 1u);
  EXPECT_EQ(dec[2].goal, "mid/1");
}

TEST(JoinPlannerCompile, AutoCreatesTheIndexEachReorderedGoalNeeds) {
  std::vector<std::vector<int64_t>> big, small;
  for (int64_t i = 0; i < 100; ++i) big.push_back({i, i % 10});
  small = {{1, 2}, {3, 4}};
  auto c = CompileWithPlanner("out(X, Z) <- big(Y, X), small(Y, Z).",
                              {{"big", big}, {"small", small}});
  // small leads; big is then probed on its *first* column (bound Y), so
  // the compiler must have created a column-0 index on big and picked it.
  ASSERT_EQ(ScanOrder(*c, 0),
            (std::vector<std::string>{"small/2", "big/2"}));
  const CompiledLiteral& probe = c->rules[0].generator.back();
  ASSERT_EQ(probe.kind, CompiledLiteral::Kind::kScan);
  EXPECT_EQ(probe.scan.bound_cols, std::vector<uint32_t>{0});
  ASSERT_GE(probe.scan.index_id, 0);
  const Relation& big_rel =
      c->catalog.relation(c->catalog.Lookup("big", 2));
  ASSERT_GT(big_rel.num_indices(), static_cast<size_t>(probe.scan.index_id));
  EXPECT_EQ(big_rel.index(static_cast<size_t>(probe.scan.index_id)).columns(),
            std::vector<uint32_t>{0});
}

TEST(JoinPlannerCompile, FiltersStayAheadOfScans) {
  std::vector<std::vector<int64_t>> e = {{1, 2}, {2, 3}};
  auto c = CompileWithPlanner("out(X, Z) <- e(X, Y), Z = Y + 1, e(Y, W).",
                              {{"e", e}});
  const auto& plan = c->rules[0].generator;
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].kind, CompiledLiteral::Kind::kScan);
  // The assignment becomes ready right after the first scan and must be
  // placed before the next scan, whatever its estimate.
  EXPECT_EQ(plan[1].kind, CompiledLiteral::Kind::kCompare);
  EXPECT_EQ(plan[2].kind, CompiledLiteral::Kind::kScan);
}

TEST(JoinPlannerCompile, SingleGoalBodyIsUntouched) {
  auto c = CompileWithPlanner("out(X) <- e(X, X).", {{"e", {{1, 1}}}});
  EXPECT_EQ(ScanOrder(*c, 0), (std::vector<std::string>{"e/2"}));
  ASSERT_EQ(c->rules[0].plan_decisions.size(), 1u);
  EXPECT_DOUBLE_EQ(c->rules[0].plan_decisions[0].est_rows, 1.0);
}

TEST(JoinPlannerCompile, CrossProductPicksSmallerSideFirst) {
  // No shared variables: a genuine cross product. The planner leads with
  // the smaller relation; the product still enumerates completely.
  std::vector<std::vector<int64_t>> big, small;
  for (int64_t i = 0; i < 64; ++i) big.push_back({i});
  small = {{100}, {200}};
  auto c = CompileWithPlanner("pair(X, Y) <- big(X), small(Y).",
                              {{"big", big}, {"small", small}});
  EXPECT_EQ(ScanOrder(*c, 0),
            (std::vector<std::string>{"small/1", "big/1"}));
  // Both scans stay full scans: nothing ever bounds their columns.
  for (const CompiledLiteral& lit : c->rules[0].generator) {
    EXPECT_TRUE(lit.scan.bound_cols.empty());
  }
}

TEST(JoinPlannerCompile, AllUnboundIdbGoalsKeepParserOrder) {
  // Two empty IDB atoms tie on the default estimate; the greedy pick
  // must fall back to the first ready goal, i.e. parser order — keeping
  // planned compiles of IDB-only rules stable.
  auto c = CompileWithPlanner(R"(
    a(1). b(2).
    out(X, Y) <- a(X), b(Y).
  )");
  std::vector<std::string> order;
  for (const CompiledLiteral& lit : RuleFor(*c, "out/2").generator) {
    if (lit.kind == CompiledLiteral::Kind::kScan) {
      order.push_back(c->catalog.DisplayName(lit.scan.pred));
    }
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a/1", "b/1"}));
}

TEST(JoinPlannerCompile, DeltaAtomStaysPinnedInDeltaPlans) {
  // Seminaive variants must keep the delta occurrence leading, planner
  // or not: the delta window is the smallest input by construction.
  std::vector<std::vector<int64_t>> edge;
  for (int64_t i = 0; i < 30; ++i) edge.push_back({i, i + 1});
  auto c = CompileWithPlanner(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Z) <- tc(X, Y), edge(Y, Z).
  )", {{"edge", edge}});
  const CompiledRule& rec = c->rules[1];
  ASSERT_EQ(rec.delta_plans.size(), 1u);
  const CompiledLiteral& lead = rec.delta_plans[0].front();
  ASSERT_EQ(lead.kind, CompiledLiteral::Kind::kScan);
  EXPECT_EQ(lead.scan.clique_occurrence, 0u);
  EXPECT_EQ(c->catalog.DisplayName(lead.scan.pred), "tc/2");
}

}  // namespace
}  // namespace gdlog
