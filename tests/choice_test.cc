// Tests for the choice construct: FD enforcement, multiple choice
// models across seeds, choice in recursion, and the chosen memo.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "api/engine.h"
#include "greedy/matching.h"
#include "workload/graph_gen.h"

namespace gdlog {
namespace {

constexpr char kExample1[] = R"(
  takes(andy, engl, 4).
  takes(mark, engl, 2).
  takes(ann, math, 3).
  takes(mark, math, 2).
  a_st(St, Crs, G) <- takes(St, Crs, G), choice(Crs, St), choice(St, Crs).
)";

std::set<std::pair<std::string, std::string>> Assignment(const Engine& e) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& row : e.Query("a_st", 3)) {
    out.insert({std::string(e.store().SymbolName(row[0])),
                std::string(e.store().SymbolName(row[1]))});
  }
  return out;
}

TEST(Choice, Example1ModelsMatchThePaper) {
  // The paper lists exactly three choice models M1, M2, M3.
  const std::set<std::set<std::pair<std::string, std::string>>> valid = {
      {{"andy", "engl"}, {"ann", "math"}},
      {{"mark", "engl"}, {"ann", "math"}},
      {{"andy", "engl"}, {"mark", "math"}},
  };
  std::set<std::set<std::pair<std::string, std::string>>> seen;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    EngineOptions opts;
    opts.eval.choice_seed = seed;
    Engine e(opts);
    ASSERT_TRUE(e.LoadProgram(kExample1).ok());
    ASSERT_TRUE(e.Run().ok());
    const auto model = Assignment(e);
    EXPECT_TRUE(valid.count(model)) << "invalid choice model for seed "
                                    << seed;
    seen.insert(model);
  }
  // Different seeds should reach more than one of the three models.
  EXPECT_GE(seen.size(), 2u);
}

TEST(Choice, EveryModelIsStable) {
  for (uint64_t seed : {0u, 1u, 2u, 3u}) {
    EngineOptions opts;
    opts.eval.choice_seed = seed;
    Engine e(opts);
    ASSERT_TRUE(e.LoadProgram(kExample1).ok());
    ASSERT_TRUE(e.Run().ok());
    auto check = e.VerifyStableModel();
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_TRUE(check->stable) << check->diagnostic;
  }
}

TEST(Choice, SingleFdOnly) {
  // One student per course, but students may take several courses.
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    takes(a, c1). takes(b, c1). takes(a, c2). takes(b, c2).
    pick(St, Crs) <- takes(St, Crs), choice(Crs, St).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  const auto rows = e.Query("pick", 2);
  EXPECT_EQ(rows.size(), 2u);  // one per course
  std::set<Value> courses;
  for (const auto& r : rows) courses.insert(r[1]);
  EXPECT_EQ(courses.size(), 2u);
}

TEST(Choice, EmptyKeySelectsGlobalWitness) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    item(1). item(2). item(3).
    one(X) <- item(X), choice((), X).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("one", 1).size(), 1u);
}

TEST(Choice, CompoundKeyTuple) {
  // FD (A, B) -> C.
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    t(1, 1, 10). t(1, 1, 20). t(1, 2, 30). t(2, 1, 40).
    f(A, B, C) <- t(A, B, C), choice((A, B), C).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(e.Query("f", 3).size(), 3u);  // one of the (1,1) pair survives
}

TEST(Choice, RecursiveChoiceReachesEverything) {
  // Example 3-style: each reachable node adopted exactly once.
  Engine e;
  ASSERT_TRUE(e.LoadProgram(R"(
    root(0).
    edge(0, 1). edge(0, 2). edge(1, 3). edge(2, 3). edge(3, 4).
    tree(nil, R) <- root(R).
    tree(X, Y) <- tree(_, X), edge(X, Y), choice(Y, X).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  const auto rows = e.Query("tree", 2);
  // nil->0 plus one entry per node 1..4.
  EXPECT_EQ(rows.size(), 5u);
  std::set<Value> entered;
  for (const auto& r : rows) EXPECT_TRUE(entered.insert(r[1]).second);
}

TEST(Choice, StatsCountChosenTuples) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kExample1).ok());
  ASSERT_TRUE(e.Run().ok());
  ASSERT_NE(e.stats(), nullptr);
  EXPECT_EQ(e.stats()->gamma_firings, 2u);
  const CandidateQueueStats* qs = e.QueueStats(0);
  ASSERT_NE(qs, nullptr);
  EXPECT_EQ(qs->inserted, 4u);   // all takes tuples become candidates
  EXPECT_EQ(qs->fired, 2u);      // two admissible firings
  EXPECT_EQ(qs->redundant, 2u);  // two FD-blocked candidates
}

TEST(Choice, MatchingInternsNothingPerCandidate) {
  // Congruence keys and the tuple-valued FD side W of next's synthesized
  // choice(I, W) / choice(W, I) are hashed by their components, so the
  // γ path adds no terms to the ValueStore: the count after a run is the
  // same for a small and a large arc set.
  auto terms_after_run = [](uint32_t nodes, uint32_t arcs) -> size_t {
    auto result = GreedyMatching(BipartiteGraph(nodes, nodes, arcs));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return 0;
    EXPECT_GT(result->arcs.size(), 0u);
    return result->engine->store().num_terms();
  };
  const size_t small = terms_after_run(100, 500);
  const size_t large = terms_after_run(800, 4000);
  EXPECT_EQ(small, large);
}

TEST(Choice, RewrittenProgramTextMentionsChosen) {
  Engine e;
  ASSERT_TRUE(e.LoadProgram(kExample1).ok());
  auto text = e.RewrittenProgramText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("chosen$0"), std::string::npos);
  EXPECT_NE(text->find("not diffChoice$0"), std::string::npos);
}

// -- FDs that L does not imply ------------------------------------------------
//
// A goal whose left side reads the queue's whole class key (or the stage)
// keeps no FD table: L fires each class once. The FDs below read less
// than that, so only their tables can reject.

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(GDLOG_SOURCE_DIR) + "/tests/fixtures/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The rejected_fd count of each audited firing, in firing order.
std::vector<uint64_t> FdRejections(const Engine& e) {
  std::vector<uint64_t> out;
  for (const ChoiceAuditEntry& entry : e.ChoiceAudit()->entries()) {
    out.push_back(entry.rejected_fd);
  }
  return out;
}

TEST(Choice, NextChoiceWIRejectsWhenWDoesNotFixTheClass) {
  // W = (X) is a strict part of the class (X, C): without next's
  // choice(W, I) the second a would fire too, as s(a, 2).
  EngineOptions opts;
  opts.provenance = true;
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgram(ReadFixture("next_fd_rejects.dl")).ok());
  ASSERT_TRUE(e.Run().ok());
  std::set<std::pair<std::string, int64_t>> s;
  for (const auto& row : e.Query("s", 2)) {
    s.insert({e.store().ToString(row[0]), row[1].AsInt()});
  }
  EXPECT_EQ(s, (std::set<std::pair<std::string, int64_t>>{
                   {"nil", 0}, {"a", 1}, {"b", 2}}));
  EXPECT_EQ(FdRejections(e), (std::vector<uint64_t>{0, 1}));
  auto check = e.VerifyStableModel();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->stable) << check->diagnostic;
}

TEST(Choice, MergedRuleRejectsOnAStrictPartOfItsClassKey) {
  // Example 7's shape, which runs in merge mode: the choice keys (X, Y)
  // and the cost C cover the candidate, so the class key is (X, Y) and
  // each goal's left side is a strict part of it. After (1, 10) fires,
  // (2, 10) fails choice(Y, X) and (1, 11) fails choice(X, Y).
  EngineOptions opts;
  opts.provenance = true;
  Engine e(opts);
  ASSERT_TRUE(e.LoadProgram(R"(
    m(nil, nil, 0, 0).
    m(X, Y, C, I) <- next(I), g(X, Y, C), least(C, I),
                     choice(Y, X), choice(X, Y).
    g(1, 10, 1). g(2, 10, 2). g(1, 11, 3). g(2, 11, 4).
  )").ok());
  ASSERT_TRUE(e.Run().ok());
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const auto& row : e.Query("m", 4)) {
    if (row[0].is_int()) pairs.insert({row[0].AsInt(), row[1].AsInt()});
  }
  EXPECT_EQ(pairs, (std::set<std::pair<int64_t, int64_t>>{{1, 10}, {2, 11}}));
  EXPECT_EQ(FdRejections(e), (std::vector<uint64_t>{0, 2}));
  auto check = e.VerifyStableModel();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->stable) << check->diagnostic;
}

}  // namespace
}  // namespace gdlog
