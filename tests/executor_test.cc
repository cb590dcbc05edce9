// The plan executor against hand-written models, and its allocation
// discipline: a rule application allocates when a buffer grows, not per
// solution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>

#include "analysis/stage.h"
#include "api/engine.h"
#include "eval/rule_compiler.h"
#include "eval/seminaive.h"
#include "greedy/graph.h"
#include "greedy/prim.h"
#include "parser/parser.h"
#include "storage/tuple.h"
#include "workload/graph_gen.h"

// Counts global operator new calls, so a test can bound the allocations
// of one Run.
namespace {
size_t g_allocations = 0;
}  // namespace

// GCC treats the replaced operator new as the builtin and flags the
// free() in the matching replaced delete as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gdlog {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Each row of pred/arity rendered as "(v1, v2, ...)".
std::set<std::string> Rows(Engine& e, std::string_view pred, uint32_t arity) {
  std::set<std::string> out;
  for (const auto& row : e.Query(pred, arity)) {
    out.insert(TupleToString(e.store(), TupleView(row)));
  }
  return out;
}

// tests/fixtures/column_ops.dl has one rule per kind of column op the
// compiler resolves; each relation is compared with its model by hand.
TEST(Executor, ColumnOpsMatchHandWrittenModel) {
  Engine e;
  const std::string program =
      ReadFile(std::string(GDLOG_SOURCE_DIR) + "/tests/fixtures/column_ops.dl");
  ASSERT_FALSE(program.empty());
  ASSERT_TRUE(e.LoadProgram(program).ok());
  ASSERT_TRUE(e.Run().ok());
  using S = std::set<std::string>;
  // A repeated variable in one atom.
  EXPECT_EQ(Rows(e, "loop", 1), (S{"(1)", "(3)"}));
  // Integer and symbol constant columns.
  EXPECT_EQ(Rows(e, "from1", 1), (S{"(1)", "(2)"}));
  EXPECT_EQ(Rows(e, "tagged", 1), (S{"(1)"}));
  // Functor and tuple destructuring.
  EXPECT_EQ(Rows(e, "fst", 1), (S{"(1)", "(2)"}));
  EXPECT_EQ(Rows(e, "sum2", 1), (S{"(3)", "(7)"}));
  // An arithmetic term inside a body atom (a probe-key column).
  EXPECT_EQ(Rows(e, "succ", 1), (S{"(1)", "(2)"}));
  // Int-int and mixed-kind comparisons: ints order before symbols, and
  // symbols (strings among them) by name.
  EXPECT_EQ(Rows(e, "lt", 2), (S{"(1, 2)", "(1, 3)", "(2, 3)"}));
  EXPECT_EQ(Rows(e, "small", 1), (S{"(1)"}));
  // A negated atom with a constant column.
  EXPECT_EQ(Rows(e, "notred", 1), (S{"(2)", "(3)"}));
  // A 0-ary head and a constructed head term.
  EXPECT_EQ(Rows(e, "has_loop", 0), (S{"()"}));
  EXPECT_EQ(Rows(e, "wrap", 1), (S{"(f(1))", "(f(2))", "(f(3))"}));
  // A variable bound by a plain column and read inside a functor column
  // of the same atom, and one bound inside a functor column and read
  // inside another atom's.
  EXPECT_EQ(Rows(e, "selfref", 1), (S{"(1)"}));
  EXPECT_EQ(Rows(e, "shared", 2), (S{"(1, 1)"}));
}

TEST(Executor, EnumerateKeepsBindingFlagsExact) {
  // Scans flag the slots they bind once per invocation instead of per
  // row. At every solution exactly the plan's bound variables must read
  // as bound (not the negated atom's local _ nor the negated
  // conjunction's W), and Enumerate must hand the frame back unbound.
  ValueStore store;
  auto program = ParseProgram(&store, R"(
    e(1, 2). e(2, 3). e(3, 4). e(4, 9).
    q(X, Z) <- e(X, Y), e(Y, Z), not e(_, X), not (e(Z, W), W > 5).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto analysis = AnalyzeStages(*program);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  Catalog catalog;
  auto rules = CompileProgram(*program, *analysis, &catalog, &store);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  for (const FactBatch& batch : program->facts) {
    Relation& rel =
        catalog.relation(catalog.Ensure(batch.predicate, batch.arity));
    for (size_t i = 0; i < batch.count; ++i) {
      rel.Insert(TupleView(batch.rows.data() + i * batch.arity, batch.arity));
    }
  }
  ASSERT_EQ(rules->size(), 1u);
  const CompiledRule& rule = rules->front();
  const auto slot_of = [&](const std::string& name) {
    const auto it = std::find(rule.slot_names.begin(), rule.slot_names.end(),
                              name);
    return static_cast<uint32_t>(it - rule.slot_names.begin());
  };
  PlanExecutor exec(&catalog, &store);
  BindingFrame frame(rule.num_slots);
  std::set<std::pair<int64_t, int64_t>> solutions;
  exec.Enumerate(rule, rule.generator, CompiledScan::kNoOccurrence, &frame,
                 [&](BindingFrame& f) {
                   std::set<std::string> bound;
                   for (uint32_t s = 0; s < rule.num_slots; ++s) {
                     if (f.IsBound(s)) bound.insert(rule.slot_names[s]);
                   }
                   EXPECT_EQ(bound, (std::set<std::string>{"X", "Y", "Z"}));
                   solutions.insert({f.Get(slot_of("X")).AsInt(),
                                     f.Get(slot_of("Z")).AsInt()});
                   return true;
                 });
  // X = 1 has no in-edge; Z = 3 has no out-edge above 5.
  EXPECT_EQ(solutions, (std::set<std::pair<int64_t, int64_t>>{{1, 3}}));
  for (uint32_t s = 0; s < rule.num_slots; ++s) {
    EXPECT_FALSE(frame.IsBound(s)) << rule.slot_names[s];
  }
}

TEST(Executor, HornRunAllocatesPerGrowthNotPerSolution) {
  // Transitive closure of a 200-node chain with skip edges i -> i + 2:
  // 40,389 solutions. The rule applications reuse one frame and one flat
  // head buffer, so Run allocates as its relations, indices and buffers
  // grow, a few hundred times, not once or more per solution.
  constexpr int64_t kNodes = 200;
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Z) <- tc(X, Y), edge(Y, Z).
  )").ok());
  for (int64_t i = 0; i + 1 < kNodes; ++i) {
    ASSERT_TRUE(e.AddFact("edge", {Value::Int(i), Value::Int(i + 1)}).ok());
  }
  for (int64_t i = 0; i + 2 < kNodes; ++i) {
    ASSERT_TRUE(e.AddFact("edge", {Value::Int(i), Value::Int(i + 2)}).ok());
  }
  const size_t before = g_allocations;
  ASSERT_TRUE(e.Run().ok());
  const size_t allocations = g_allocations - before;
  ASSERT_NE(e.stats(), nullptr);
  EXPECT_EQ(e.stats()->exec.solutions, 40389u);
  EXPECT_EQ(e.Query("tc", 2).size(),
            static_cast<size_t>(kNodes * (kNodes - 1) / 2));
  EXPECT_LT(allocations, 1000u);
}

TEST(Executor, PrimRunAllocatesPerGrowthNotPerFiring) {
  // Example 4 on 2,000 nodes: new_g runs through ApplyRule twice per
  // firing, the γ post plan once per pop.
  GraphGenOptions gen;
  gen.seed = 1;
  const Graph g = ConnectedRandomGraph(2000, 2000, gen);
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kPrimProgramRules).ok());
  GraphLoadOptions load;
  load.exclude_target = 0;
  ASSERT_TRUE(LoadGraphEdges(&e, g, load).ok());
  ASSERT_TRUE(e.AddFact("prm", {Value::Nil(), Value::Int(0), Value::Int(0),
                                Value::Int(0)})
                  .ok());
  const size_t before = g_allocations;
  ASSERT_TRUE(e.Run().ok());
  const size_t allocations = g_allocations - before;
  EXPECT_EQ(e.Query("prm", 4).size(), 2000u);  // root seed + 1,999 edges
  EXPECT_LT(allocations, 2000u);
}

}  // namespace
}  // namespace gdlog
