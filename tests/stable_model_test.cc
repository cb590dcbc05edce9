// Tests for the Gelfond-Lifschitz stable-model checker itself —
// including that it REJECTS sets that are not stable models (the
// positive cases are covered throughout the greedy tests).
#include "eval/stable_model.h"

#include <gtest/gtest.h>

#include "api/engine.h"
#include "parser/parser.h"

namespace gdlog {
namespace {

TEST(StableModel, AcceptsHornLeastModel) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    edge(1, 2). edge(2, 3).
    tc(X, Y) <- edge(X, Y).
    tc(X, Z) <- tc(X, Y), edge(Y, Z).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  auto check = e.VerifyStableModel();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->stable);
}

TEST(StableModel, AcceptsStratifiedNegation) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    node(1). node(2). node(3).
    edge(1, 2).
    reach(1).
    reach(Y) <- reach(X), edge(X, Y).
    iso(X) <- node(X), not reach(X).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  auto check = e.VerifyStableModel();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->stable);
}

TEST(StableModel, RejectsTamperedModel) {
  // Run a Horn program, then check a DIFFERENT catalog with an extra
  // unsupported fact: the reduct cannot re-derive it.
  ValueStore store;
  auto prog = ParseProgram(&store, R"(
    edge(1, 2).
    tc(X, Y) <- edge(X, Y).
  )");
  ASSERT_TRUE(prog.ok());
  Catalog model;
  const PredicateId edge = model.Ensure("edge", 2);
  const PredicateId tc = model.Ensure("tc", 2);
  std::vector<Value> e12{Value::Int(1), Value::Int(2)};
  std::vector<Value> t12{Value::Int(1), Value::Int(2)};
  std::vector<Value> t99{Value::Int(9), Value::Int(9)};  // unsupported
  model.relation(edge).Insert(TupleView(e12));
  model.relation(tc).Insert(TupleView(t12));
  model.relation(tc).Insert(TupleView(t99));
  std::vector<size_t> watermarks{1, 0};  // edge fact is the only seed
  auto check = CheckStableModel(*prog, model, &store, {}, watermarks);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_FALSE(check->stable);
  EXPECT_NE(check->diagnostic.find("tc"), std::string::npos);
}

TEST(StableModel, RejectsIncompleteModel) {
  // A model missing a derivable fact is not a model of the reduct.
  ValueStore store;
  auto prog = ParseProgram(&store, R"(
    edge(1, 2).
    tc(X, Y) <- edge(X, Y).
  )");
  ASSERT_TRUE(prog.ok());
  Catalog model;
  const PredicateId edge = model.Ensure("edge", 2);
  model.Ensure("tc", 2);  // empty: tc(1,2) missing
  std::vector<Value> e12{Value::Int(1), Value::Int(2)};
  model.relation(edge).Insert(TupleView(e12));
  std::vector<size_t> watermarks{1, 0};
  auto check = CheckStableModel(*prog, model, &store, {}, watermarks);
  ASSERT_TRUE(check.ok());
  EXPECT_FALSE(check->stable);
}

TEST(StableModel, RejectsChoiceViolatingFd) {
  // Claim BOTH takes-tuples for course engl were chosen: violates the
  // FD, so diffChoice refutes one chosen tuple and the reduct shrinks.
  ValueStore store;
  auto prog = ParseProgram(&store, R"(
    takes(andy, engl). takes(mark, engl).
    a_st(St, Crs) <- takes(St, Crs), choice(Crs, St).
  )");
  ASSERT_TRUE(prog.ok());
  Catalog model;
  const PredicateId takes = model.Ensure("takes", 2);
  const PredicateId a_st = model.Ensure("a_st", 2);
  const Value andy = store.MakeSymbol("andy");
  const Value mark = store.MakeSymbol("mark");
  const Value engl = store.MakeSymbol("engl");
  for (Value st : {andy, mark}) {
    std::vector<Value> row{st, engl};
    model.relation(takes).Insert(TupleView(row));
    model.relation(a_st).Insert(TupleView(row));
  }
  // chosen$0 carries (Crs, St) for both students — FD Crs -> St broken.
  std::vector<std::vector<Value>> chosen0 = {{engl, andy}, {engl, mark}};
  std::vector<size_t> watermarks{2, 0};
  auto check = CheckStableModel(*prog, model, &store, {chosen0}, watermarks);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_FALSE(check->stable);
}

TEST(StableModel, ChecksLeastSemantics) {
  // A "model" where the extremum picked a non-minimal tuple is rejected.
  ValueStore store;
  auto prog = ParseProgram(&store, R"(
    v(a, 5). v(b, 3).
    m(X, C) <- v(X, C), least(C).
  )");
  ASSERT_TRUE(prog.ok());
  Catalog model;
  const PredicateId v = model.Ensure("v", 2);
  const PredicateId m = model.Ensure("m", 2);
  const Value a = store.MakeSymbol("a");
  const Value b = store.MakeSymbol("b");
  std::vector<Value> va{a, Value::Int(5)};
  std::vector<Value> vb{b, Value::Int(3)};
  model.relation(v).Insert(TupleView(va));
  model.relation(v).Insert(TupleView(vb));
  model.relation(m).Insert(TupleView(va));  // wrong: 5 is not minimal
  std::vector<size_t> watermarks{2, 0};
  auto check = CheckStableModel(*prog, model, &store, {}, watermarks);
  ASSERT_TRUE(check.ok());
  EXPECT_FALSE(check->stable);
}

// A negated atom with an anonymous variable is existentially quantified:
// the checker tests it against the fixed model as the negated
// conjunction not (e(_, X)), not as a membership test of a non-ground
// tuple.
constexpr char kAnonymousNegation[] = R"(
  e(1, 2). e(2, 3). e(3, 1). e(4, 5).
  src(1). src(4).
  p(X) <- src(X), not e(_, X).
)";

TEST(StableModel, AcceptsNegatedAtomWithAnonymousVariable) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kAnonymousNegation).ok());
  ASSERT_TRUE(e.Run().ok());
  const auto p = e.Query("p", 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0][0], Value::Int(4));
  auto check = e.VerifyStableModel();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->stable) << check->diagnostic;
}

TEST(StableModel, RejectsModelViolatingAnonymousNegation) {
  // p(1) is unsupported: e(3, 1) enters 1.
  ValueStore store;
  auto prog = ParseProgram(&store, kAnonymousNegation);
  ASSERT_TRUE(prog.ok());
  Catalog model;
  const PredicateId e = model.Ensure("e", 2);
  const PredicateId src = model.Ensure("src", 1);
  const PredicateId p = model.Ensure("p", 1);
  for (auto [a, b] : {std::pair{1, 2}, {2, 3}, {3, 1}, {4, 5}}) {
    std::vector<Value> row{Value::Int(a), Value::Int(b)};
    model.relation(e).Insert(TupleView(row));
  }
  for (int x : {1, 4}) {
    std::vector<Value> row{Value::Int(x)};
    model.relation(src).Insert(TupleView(row));
    model.relation(p).Insert(TupleView(row));
  }
  std::vector<size_t> watermarks{4, 2, 0};
  auto check = CheckStableModel(*prog, model, &store, {}, watermarks);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_FALSE(check->stable);
  EXPECT_EQ(check->diagnostic, "in model but not re-derived: p(1)");
}

TEST(StableModel, StopsAtAFactOutsideAnInfiniteReduct) {
  // The reduct's least model is every natural number. nat(1) is derived
  // but not in the model, and the check must stop there.
  ValueStore store;
  auto prog = ParseProgram(&store, "nat(0). nat(M) <- nat(N), M = N + 1.");
  ASSERT_TRUE(prog.ok());
  Catalog model;
  const PredicateId nat = model.Ensure("nat", 1);
  std::vector<Value> zero{Value::Int(0)};
  model.relation(nat).Insert(TupleView(zero));
  std::vector<size_t> watermarks{1};
  auto check = CheckStableModel(*prog, model, &store, {}, watermarks);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_FALSE(check->stable);
  EXPECT_EQ(check->diagnostic, "derived but not in model: nat(1)");
  EXPECT_EQ(check->reduct_facts, 2u);
}

TEST(StableModel, ReportsFactCounts) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram("p(1). q(X) <- p(X).").ok());
  ASSERT_TRUE(e.Run().ok());
  auto check = e.VerifyStableModel();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->stable);
  EXPECT_EQ(check->model_facts, check->reduct_facts);
  EXPECT_GE(check->model_facts, 2u);
}

}  // namespace
}  // namespace gdlog
