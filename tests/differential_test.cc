// Differential harness: every shipped programs/ example must produce the
// same model (bit-identical, same insertion order, same choice
// decisions) with and without the join planner and with and without
// provenance, the hand-derived fixture models must come out under both
// seminaive and naive evaluation, and every greedy wrapper's computed
// cost must equal its procedural baseline — so an evaluation bug cannot
// hide behind "still a valid stable model".
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "baselines/dijkstra.h"
#include "baselines/heapsort.h"
#include "baselines/huffman.h"
#include "baselines/kruskal.h"
#include "baselines/matching.h"
#include "baselines/prim.h"
#include "baselines/tsp.h"
#include "greedy/dijkstra.h"
#include "greedy/huffman.h"
#include "greedy/kruskal.h"
#include "greedy/matching.h"
#include "greedy/prim.h"
#include "greedy/sort.h"
#include "greedy/tsp.h"
#include "workload/graph_gen.h"
#include "workload/relation_gen.h"
#include "workload/text_gen.h"

namespace gdlog {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string ProgramPath(const std::string& name) {
  return std::string(GDLOG_SOURCE_DIR) + "/programs/" + name;
}

/// The full model as ordered text: every predicate mentioned by the
/// program, tuples in relation insertion order. Captures not just the
/// fact set but the order the engine derived it in.
std::vector<std::string> DumpModel(const Engine& e) {
  std::vector<std::string> lines;
  for (const auto& ref : e.program()->AllPredicates()) {
    for (const auto& tuple : e.Query(ref.name, ref.arity)) {
      std::string line = ref.name;
      line += '(';
      for (size_t i = 0; i < tuple.size(); ++i) {
        if (i) line += ',';
        line += e.store().ToString(tuple[i]);
      }
      line += ')';
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

std::vector<std::string> RunProgram(const std::string& text) {
  Engine e;
  auto load = e.LoadProgram(text);
  EXPECT_TRUE(load.ok()) << load.ToString();
  auto run = e.Run();
  EXPECT_TRUE(run.ok()) << run.ToString();
  return DumpModel(e);
}

class ProgramDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(ProgramDifferential, PlannerAndProvenancePreserveTheModel) {
  // The planner only reorders goals and provenance only annotates rows:
  // on the shipped programs every combination, including planner off
  // with provenance on, must derive the default run's tuples in the
  // default run's order.
  const std::string text = ReadFileOrDie(ProgramPath(GetParam()));
  const std::vector<std::string> expected = RunProgram(text);
  ASSERT_FALSE(expected.empty());
  for (bool planner : {true, false}) {
    for (bool provenance : {false, true}) {
      EngineOptions opts;
      opts.eval.use_join_planner = planner;
      opts.provenance = provenance;
      Engine e(opts);
      ASSERT_TRUE(e.LoadProgram(text).ok());
      ASSERT_TRUE(e.Run().ok());
      EXPECT_EQ(DumpModel(e), expected)
          << GetParam() << " planner=" << planner
          << " provenance=" << provenance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, ProgramDifferential,
                         ::testing::Values("course_assignment.dl",
                                           "huffman.dl", "kruskal.dl",
                                           "prim.dl", "sort.dl"));

// -- Fixtures with hand-derived models -----------------------------------
//
// The only inputs with a negated conjunction nested inside another one
// and with a 65-literal body. Their models are worked out by hand in the
// fixture headers; both seminaive and naive evaluation must reach them.

std::vector<std::string> SortedRows(const Engine& e, const char* pred) {
  std::vector<std::string> rows;
  for (const auto& tuple : e.Query(pred, 1)) {
    rows.push_back(e.store().ToString(tuple[0]));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(FixtureModels, NestedNotAndWideRuleMatchHandDerivedModels) {
  using Rows = std::vector<std::string>;
  for (bool seminaive : {true, false}) {
    EngineOptions opts;
    opts.eval.use_seminaive = seminaive;
    const std::string dir = std::string(GDLOG_SOURCE_DIR) + "/tests/fixtures/";

    Engine nested(opts);
    ASSERT_TRUE(nested.LoadProgram(ReadFileOrDie(dir + "nested_not.dl")).ok());
    ASSERT_TRUE(nested.Run().ok());
    EXPECT_EQ(SortedRows(nested, "blocked"), (Rows{"1", "3"})) << seminaive;
    EXPECT_EQ(SortedRows(nested, "reach"), (Rows{"0", "1", "2", "3"}))
        << seminaive;

    Engine wide(opts);
    ASSERT_TRUE(wide.LoadProgram(ReadFileOrDie(dir + "wide_rule.dl")).ok());
    ASSERT_TRUE(wide.Run().ok());
    EXPECT_EQ(SortedRows(wide, "big"), (Rows{"1"})) << seminaive;
    EXPECT_EQ(SortedRows(wide, "narrow"), (Rows{"1"})) << seminaive;
  }
}

// -- Greedy wrappers vs procedural baselines ----------------------------

TEST(GreedyVsBaseline, PrimCostEqualsBaseline) {
  GraphGenOptions opts;
  opts.seed = 17;
  const Graph g = ConnectedRandomGraph(30, 60, opts);
  auto r = PrimMst(g, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->total_cost, BaselinePrim(g, 0).total_cost);
}

TEST(GreedyVsBaseline, KruskalCostEqualsBaseline) {
  GraphGenOptions opts;
  opts.seed = 23;
  const Graph g = ConnectedRandomGraph(20, 40, opts);
  auto r = KruskalMst(g);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->total_cost, BaselineKruskal(g).total_cost);
}

TEST(GreedyVsBaseline, DijkstraDistancesEqualBaseline) {
  GraphGenOptions opts;
  opts.seed = 31;
  const Graph g = ConnectedRandomGraph(25, 70, opts);
  auto r = DijkstraSssp(g, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<int64_t> base = BaselineDijkstra(g, 0);
  ASSERT_EQ(r->settled.size(), g.num_nodes);
  for (const SettledNode& s : r->settled) {
    EXPECT_EQ(s.distance, base[static_cast<size_t>(s.node)])
        << "node " << s.node;
  }
}

TEST(GreedyVsBaseline, HuffmanCostEqualsBaseline) {
  TextGenOptions opts;
  opts.seed = 11;
  const auto freqs = ZipfLetterFrequencies(10, opts);
  auto r = HuffmanTree(freqs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->total_cost, BaselineHuffman(freqs).total_cost);
}

TEST(GreedyVsBaseline, MatchingCostEqualsBaseline) {
  GraphGenOptions opts;
  opts.seed = 41;
  const Graph g = BipartiteGraph(12, 12, 60, opts);
  auto r = GreedyMatching(g);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->total_cost, BaselineGreedyMatching(g).total_cost);
}

TEST(GreedyVsBaseline, SortEqualsHeapSort) {
  RelationGenOptions opts;
  opts.seed = 53;
  const auto tuples = RandomCostedRelation(120, opts);
  auto r = SortRelation(tuples);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sorted, BaselineHeapSort(tuples));
}

TEST(GreedyVsBaseline, TspCostEqualsBaseline) {
  GraphGenOptions opts;
  opts.seed = 61;
  const Graph g = CompleteGraph(9, opts);
  auto r = GreedyTspChain(g);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->total_cost, BaselineGreedyTsp(g).total_cost);
}

}  // namespace
}  // namespace gdlog
