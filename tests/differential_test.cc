// Differential harness: every shipped programs/ example must produce the
// same model (bit-identical, same insertion order, same choice
// decisions) with and without the join planner and on both rule
// backends, and every greedy wrapper's computed cost must equal its
// procedural baseline — so an evaluation bug cannot hide behind "still a
// valid stable model".
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "baselines/dijkstra.h"
#include "eval/ir/ir.h"
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

TEST_P(ProgramDifferential, PlannerPreservesTheModel) {
  const std::string text = ReadFileOrDie(ProgramPath(GetParam()));
  EngineOptions unplanned;
  unplanned.eval.use_join_planner = false;
  Engine e(unplanned);
  ASSERT_TRUE(e.LoadProgram(text).ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(DumpModel(e), RunProgram(text)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Programs, ProgramDifferential,
                         ::testing::Values("course_assignment.dl",
                                           "huffman.dl", "kruskal.dl",
                                           "prim.dl", "sort.dl"));

// -- Cross-backend fleet: bytecode VM vs interpreter oracle -------------
//
// The interpreter is the semantics oracle for the VM: for every shipped
// program, every combination of backend × join-planner × provenance must
// produce the default interpreter's model bit-identically (same tuples,
// same insertion order), and with provenance on, the choice-audit trails
// must pick the same winners for the same reasons.

EngineOptions BackendOpts(EvalBackend backend, bool planner,
                          bool provenance) {
  EngineOptions opts;
  opts.eval.backend = backend;
  opts.eval.use_join_planner = planner;
  opts.provenance = provenance;
  return opts;
}

class BackendDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendDifferential, VmModelBitIdenticalToInterpreterEverywhere) {
  const std::string text = ReadFileOrDie(ProgramPath(GetParam()));
  Engine oracle(BackendOpts(EvalBackend::kInterp, true, false));
  ASSERT_TRUE(oracle.LoadProgram(text).ok());
  ASSERT_TRUE(oracle.Run().ok());
  EXPECT_EQ(oracle.VmCoverage(), nullptr) << "interp run reported VM coverage";
  const std::vector<std::string> expected = DumpModel(oracle);
  ASSERT_FALSE(expected.empty());
  for (bool planner : {true, false}) {
    for (bool provenance : {false, true}) {
      const auto label = [&](const char* backend) {
        std::ostringstream os;
        os << GetParam() << " backend=" << backend << " planner=" << planner
           << " provenance=" << provenance;
        return os.str();
      };
      Engine interp(BackendOpts(EvalBackend::kInterp, planner, provenance));
      ASSERT_TRUE(interp.LoadProgram(text).ok());
      ASSERT_TRUE(interp.Run().ok());
      EXPECT_EQ(DumpModel(interp), expected) << label("interp");

      Engine vm(BackendOpts(EvalBackend::kVm, planner, provenance));
      ASSERT_TRUE(vm.LoadProgram(text).ok());
      ASSERT_TRUE(vm.Run().ok());
      EXPECT_EQ(DumpModel(vm), expected) << label("vm");
      // The sweep must actually exercise the bytecode: a lowering
      // regression that rejected every rule would silently turn this
      // fleet into interp-vs-interp.
      ASSERT_NE(vm.VmCoverage(), nullptr) << label("vm");
      EXPECT_GT(vm.VmCoverage()->rules_lowered, 0u) << label("vm");
    }
  }
}

TEST_P(BackendDifferential, ChoiceAuditWinnersMatchInterpreter) {
  const std::string text = ReadFileOrDie(ProgramPath(GetParam()));
  Engine interp(BackendOpts(EvalBackend::kInterp, true, true));
  ASSERT_TRUE(interp.LoadProgram(text).ok());
  ASSERT_TRUE(interp.Run().ok());
  auto expected = interp.ChoiceAuditText();
  ASSERT_TRUE(expected.ok());
  Engine vm(BackendOpts(EvalBackend::kVm, true, true));
  ASSERT_TRUE(vm.LoadProgram(text).ok());
  ASSERT_TRUE(vm.Run().ok());
  auto got = vm.ChoiceAuditText();
  ASSERT_TRUE(got.ok());
  // Full-text equality: same firings in the same order, same winners,
  // same candidate-set sizes, pops, ties and rejection tallies — the VM
  // must not merely reach the same model but make the same decisions for
  // the same reasons.
  EXPECT_EQ(*got, *expected) << GetParam() << " audit diverged";
}

INSTANTIATE_TEST_SUITE_P(Programs, BackendDifferential,
                         ::testing::Values("course_assignment.dl",
                                           "huffman.dl", "kruskal.dl",
                                           "prim.dl", "sort.dl"));

TEST(BackendFallback, RejectedRulesFallBackToInterpreterAndAgree) {
  // Mixed programs: one rule trips a lowering limit (nested negated
  // conjunction / literal cap) and must keep interpreting, while its
  // neighbors run on the VM — one engine, both executors, one model.
  for (const char* name :
       {"vm_reject_nested_not.dl", "vm_reject_wide_rule.dl"}) {
    const std::string text = ReadFileOrDie(std::string(GDLOG_SOURCE_DIR) +
                                           "/tests/fixtures/" + name);
    Engine interp(BackendOpts(EvalBackend::kInterp, true, false));
    ASSERT_TRUE(interp.LoadProgram(text).ok()) << name;
    ASSERT_TRUE(interp.Run().ok()) << name;
    Engine vm(BackendOpts(EvalBackend::kVm, true, false));
    ASSERT_TRUE(vm.LoadProgram(text).ok()) << name;
    ASSERT_TRUE(vm.Run().ok()) << name;
    EXPECT_EQ(DumpModel(vm), DumpModel(interp)) << name;
    ASSERT_NE(vm.VmCoverage(), nullptr) << name;
    EXPECT_FALSE(vm.VmCoverage()->rejections.empty())
        << name << " no longer trips the lowering limit it documents";
    EXPECT_GT(vm.VmCoverage()->rules_lowered, 0u) << name;
    EXPECT_LT(vm.VmCoverage()->rules_lowered, vm.VmCoverage()->rules_total)
        << name;
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
