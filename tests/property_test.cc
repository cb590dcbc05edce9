// Parameterized property sweeps: for many random seeds, the declarative
// engine must agree with the procedural baselines, and every produced
// fact set must satisfy the algorithms' invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "api/engine.h"
#include "baselines/heapsort.h"
#include "common/rng.h"
#include "baselines/huffman.h"
#include "baselines/kruskal.h"
#include "baselines/matching.h"
#include "baselines/prim.h"
#include "baselines/tsp.h"
#include "baselines/union_find.h"
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

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, PrimEqualsBaseline) {
  GraphGenOptions opts;
  opts.seed = GetParam();
  const Graph g = ConnectedRandomGraph(35, 70, opts);
  auto result = PrimMst(g, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_cost, BaselinePrim(g, 0).total_cost);
  EXPECT_EQ(result->edges.size(), g.num_nodes - 1);
}

TEST_P(SeedSweep, KruskalEqualsBaselineAndPrim) {
  GraphGenOptions opts;
  opts.seed = GetParam();
  const Graph g = ConnectedRandomGraph(25, 50, opts);
  auto kruskal = KruskalMst(g);
  ASSERT_TRUE(kruskal.ok());
  const int64_t base = BaselineKruskal(g).total_cost;
  EXPECT_EQ(kruskal->total_cost, base);
  auto prim = PrimMst(g, 0);
  ASSERT_TRUE(prim.ok());
  EXPECT_EQ(prim->total_cost, base);
}

TEST_P(SeedSweep, KruskalProducesAcyclicSpanningForest) {
  GraphGenOptions opts;
  opts.seed = GetParam();
  const Graph g = ConnectedRandomGraph(20, 30, opts);
  auto result = KruskalMst(g);
  ASSERT_TRUE(result.ok());
  UnionFind uf(g.num_nodes);
  for (const MstEdge& e : result->edges) {
    EXPECT_TRUE(uf.Union(static_cast<uint32_t>(e.parent),
                         static_cast<uint32_t>(e.node)));
  }
  EXPECT_EQ(uf.num_components(), 1u);
}

TEST_P(SeedSweep, SortEqualsHeapSort) {
  RelationGenOptions opts;
  opts.seed = GetParam();
  const auto tuples = RandomCostedRelation(150, opts);
  auto result = SortRelation(tuples);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sorted, BaselineHeapSort(tuples));
}

TEST_P(SeedSweep, MatchingEqualsBaseline) {
  GraphGenOptions opts;
  opts.seed = GetParam();
  const Graph g = BipartiteGraph(18, 18, 100, opts);
  auto result = GreedyMatching(g);
  ASSERT_TRUE(result.ok());
  const BaselineMatching base = BaselineGreedyMatching(g);
  EXPECT_EQ(result->total_cost, base.total_cost);
  EXPECT_EQ(result->arcs.size(), base.arcs.size());
}

TEST_P(SeedSweep, HuffmanEqualsBaselineCost) {
  TextGenOptions opts;
  opts.seed = GetParam();
  const auto freqs = ZipfLetterFrequencies(9, opts);
  auto result = HuffmanTree(freqs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_cost, BaselineHuffman(freqs).total_cost);
  EXPECT_EQ(result->merges, freqs.size() - 1);
}

TEST_P(SeedSweep, TspEqualsBaseline) {
  GraphGenOptions opts;
  opts.seed = GetParam();
  const Graph g = CompleteGraph(10, opts);
  auto result = GreedyTspChain(g);
  ASSERT_TRUE(result.ok());
  const BaselineTspChain base = BaselineGreedyTsp(g);
  EXPECT_EQ(result->total_cost, base.total_cost);
  EXPECT_EQ(result->chain.size(), base.arcs.size());
}

TEST_P(SeedSweep, GridGraphMst) {
  GraphGenOptions opts;
  opts.seed = GetParam();
  const Graph g = GridGraph(6, 6, opts);
  auto prim = PrimMst(g, 0);
  ASSERT_TRUE(prim.ok());
  EXPECT_EQ(prim->total_cost, BaselinePrim(g, 0).total_cost);
}

TEST_P(SeedSweep, ChoiceSeedStillOptimalForPrim) {
  // Tie-break seeds change which stable model the engine constructs, but
  // with unique weights the MST weight is invariant.
  GraphGenOptions gopts;
  gopts.seed = GetParam();
  const Graph g = ConnectedRandomGraph(20, 40, gopts);
  const int64_t expected = BaselinePrim(g, 0).total_cost;
  EngineOptions eopts;
  eopts.eval.choice_seed = GetParam() * 7919 + 13;
  auto result = PrimMst(g, 0, eopts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_cost, expected);
}

TEST_P(SeedSweep, SmallInstancesAreStableModels) {
  GraphGenOptions opts;
  opts.seed = GetParam();
  const Graph g = ConnectedRandomGraph(6, 5, opts);
  auto prim = PrimMst(g, 0);
  ASSERT_TRUE(prim.ok());
  auto check = prim->engine->VerifyStableModel();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->stable) << check->diagnostic;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233));

// -- Randomized stratified programs -------------------------------------
//
// A generated family: random EDBs, a recursive clique, a comparison
// filter, and a stratified negation — with the body goal order itself
// randomized, so the planner has real reordering work on every seed.
// These programs have a unique model (no choice), so planned and
// unplanned, seminaive and naive runs must all derive the same facts.

struct RandomProgram {
  std::string text;
  std::vector<std::vector<int64_t>> e1, e2;  // EDB tuples
};

RandomProgram MakeRandomStratifiedProgram(uint64_t seed) {
  Rng rng(seed);
  RandomProgram p;
  const int64_t domain = rng.NextInt(6, 14);
  const int e1_rows = static_cast<int>(rng.NextInt(5, 30));
  const int e2_rows = static_cast<int>(rng.NextInt(5, 30));
  for (int i = 0; i < e1_rows; ++i) {
    p.e1.push_back({rng.NextInt(0, domain), rng.NextInt(0, domain)});
  }
  for (int i = 0; i < e2_rows; ++i) {
    p.e2.push_back({rng.NextInt(0, domain), rng.NextInt(0, domain)});
  }
  std::ostringstream out;
  out << "path(X, Y) <- e1(X, Y).\n";
  // Randomize the recursive rule's goal order: the delta atom must stay
  // pinned regardless of where it is written.
  if (rng.NextBounded(2)) {
    out << "path(X, Z) <- path(X, Y), e2(Y, Z).\n";
  } else {
    out << "path(X, Z) <- e2(Y, Z), path(X, Y).\n";
  }
  if (rng.NextBounded(2)) {
    out << "join(X, Z) <- e1(X, Y), e2(Y, Z), X < Z.\n";
  } else {
    out << "join(X, Z) <- e2(Y, Z), X < Z, e1(X, Y).\n";
  }
  out << "lonely(X) <- path(X, Y), not e2(Y, X).\n";
  if (rng.NextBounded(2)) {
    out << "tri(X, Y, Z) <- e1(X, Y), e1(Y, Z), e1(Z, X).\n";
  }
  p.text = out.str();
  return p;
}

/// Ordered model dump: the cross-backend contract is bit-identity, not
/// just set equality.
std::vector<std::string> DumpOrderedModel(const Engine& e) {
  std::vector<std::string> lines;
  for (const auto& ref : e.program()->AllPredicates()) {
    for (const auto& tuple : e.Query(ref.name, ref.arity)) {
      std::string line = ref.name;
      for (const Value& v : tuple) {
        line += ' ';
        line += e.store().ToString(v);
      }
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

void AddEdbFacts(Engine* e, const RandomProgram& p) {
  for (const auto& row : p.e1) {
    EXPECT_TRUE(
        e->AddFact("e1", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
  for (const auto& row : p.e2) {
    EXPECT_TRUE(
        e->AddFact("e2", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
}

std::vector<std::string> RunRandomProgramWith(const RandomProgram& p,
                                             EngineOptions opts) {
  Engine e(opts);
  auto load = e.LoadProgram(p.text);
  EXPECT_TRUE(load.ok()) << load.ToString() << "\n" << p.text;
  AddEdbFacts(&e, p);
  auto run = e.Run();
  EXPECT_TRUE(run.ok()) << run.ToString() << "\n" << p.text;
  return DumpOrderedModel(e);
}

std::vector<std::string> RunRandomProgram(const RandomProgram& p,
                                          bool use_planner) {
  EngineOptions opts;
  opts.eval.use_join_planner = use_planner;
  return RunRandomProgramWith(p, opts);
}

TEST_P(SeedSweep, RandomStratifiedPlannerPreservesModel) {
  const RandomProgram p = MakeRandomStratifiedProgram(GetParam() * 131 + 3);
  // Unique-model programs: the planner may change goal order inside a
  // body (and with it the enumeration, hence insertion, order) but never
  // the derived fact set.
  auto unplanned = RunRandomProgram(p, /*use_planner=*/false);
  auto planned = RunRandomProgram(p, /*use_planner=*/true);
  std::sort(unplanned.begin(), unplanned.end());
  std::sort(planned.begin(), planned.end());
  EXPECT_EQ(unplanned, planned) << p.text;
}

TEST_P(SeedSweep, RandomStratifiedSeminaiveEqualsNaive) {
  // Naive evaluation re-runs every recursive rule over full windows each
  // round, so it never touches the delta windows: an oracle for the
  // seminaive hot path that shares none of its windowing. Insertion
  // order may differ between the two; the fact set may not.
  const RandomProgram p = MakeRandomStratifiedProgram(GetParam() * 613 + 29);
  EngineOptions naive_opts;
  naive_opts.eval.use_seminaive = false;
  auto naive = RunRandomProgramWith(p, naive_opts);
  auto seminaive = RunRandomProgramWith(p, EngineOptions{});
  ASSERT_FALSE(seminaive.empty());
  std::sort(naive.begin(), naive.end());
  std::sort(seminaive.begin(), seminaive.end());
  EXPECT_EQ(naive, seminaive) << p.text;
}

// -- Cross-backend property sweep: bytecode VM vs interpreter -----------
//
// The same randomized stratified family plus a randomized choice family
// (stage loop with least + FIFO choice FD), now also swept across the
// rule-execution backend. The interpreter is the oracle: every VM run
// must reproduce its model bit-identically, and bounded stops
// (GD201/GD202/GD203 — tuple, stage, iteration limits) must trip at the
// same point with the same partial state.

TEST_P(SeedSweep, RandomStratifiedVmMatchesInterpreter) {
  const RandomProgram p = MakeRandomStratifiedProgram(GetParam() * 389 + 19);
  const auto oracle = RunRandomProgram(p, /*use_planner=*/true);
  ASSERT_FALSE(oracle.empty());
  for (bool planner : {true, false}) {
    EngineOptions opts;
    opts.eval.backend = EvalBackend::kVm;
    opts.eval.use_join_planner = planner;
    if (planner) {
      EXPECT_EQ(RunRandomProgramWith(p, opts), oracle) << p.text;
    } else {
      // The planner changes enumeration order; compare against the
      // interpreter under the same plans instead.
      EXPECT_EQ(RunRandomProgramWith(p, opts), RunRandomProgram(p, false))
          << p.text;
    }
  }
}

/// Randomized choice family: a sort-style stage loop (least over items
/// with deliberately colliding costs, so FIFO tie-breaks matter), a
/// stratified join over the stage order, and a FIFO choice FD.
struct RandomChoiceProgram {
  std::string text;
  std::vector<std::vector<int64_t>> items;  // item(X, C)
  std::vector<std::vector<int64_t>> cands;  // cand(X, Y)
};

RandomChoiceProgram MakeRandomChoiceProgram(uint64_t seed) {
  Rng rng(seed);
  RandomChoiceProgram p;
  const int64_t n = rng.NextInt(4, 12);
  for (int64_t i = 0; i < n; ++i) {
    // Cost collisions are deliberate: ties exercise the deterministic
    // pop order both backends must share.
    p.items.push_back({i, rng.NextInt(0, 8)});
  }
  const int64_t domain = rng.NextInt(3, 8);
  const int64_t pairs = rng.NextInt(4, 20);
  for (int64_t i = 0; i < pairs; ++i) {
    p.cands.push_back({rng.NextInt(0, domain), rng.NextInt(0, domain)});
  }
  std::ostringstream out;
  out << "sorted(nil, 0, 0).\n"
      << "sorted(X, C, I) <- next(I), item(X, C), least(C, I).\n"
      << "ord(X, Y) <- sorted(X, _, I), sorted(Y, _, J), I < J.\n"
      << "sel(X, Y) <- cand(X, Y), choice(X, Y).\n";
  if (rng.NextBounded(2)) {
    out << "mutual(X, Y) <- sel(X, Y), sel(Y, X).\n";
  }
  p.text = out.str();
  return p;
}

struct BackendRunResult {
  TerminationReason reason = TerminationReason::kCompleted;
  std::string status;
  std::vector<std::string> model;
};

BackendRunResult RunChoiceProgram(const RandomChoiceProgram& p,
                                  EvalBackend backend, RunLimits limits = {}) {
  EngineOptions opts;
  opts.eval.backend = backend;
  opts.limits = limits;
  Engine e(opts);
  auto load = e.LoadProgram(p.text);
  EXPECT_TRUE(load.ok()) << load.ToString() << "\n" << p.text;
  for (const auto& row : p.items) {
    EXPECT_TRUE(
        e.AddFact("item", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
  for (const auto& row : p.cands) {
    EXPECT_TRUE(
        e.AddFact("cand", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
  BackendRunResult r;
  // A bounded stop returns non-OK by design; parity of the outcome is
  // what the test asserts, so no EXPECT here.
  r.status = e.Run().ToString();
  r.reason = e.outcome().reason;
  r.model = DumpOrderedModel(e);
  return r;
}

TEST_P(SeedSweep, RandomChoiceVmMatchesInterpreter) {
  const RandomChoiceProgram p = MakeRandomChoiceProgram(GetParam() * 523 + 41);
  const BackendRunResult oracle = RunChoiceProgram(p, EvalBackend::kInterp);
  ASSERT_EQ(oracle.reason, TerminationReason::kCompleted) << oracle.status;
  ASSERT_FALSE(oracle.model.empty());
  const BackendRunResult vm = RunChoiceProgram(p, EvalBackend::kVm);
  EXPECT_EQ(vm.status, oracle.status);
  EXPECT_EQ(vm.model, oracle.model) << p.text;
}

TEST_P(SeedSweep, BoundedStopParityAcrossBackends) {
  // Deterministic guardrails only (tuple/stage/iteration caps — the
  // wall-clock and memory limits are not run-to-run reproducible). Both
  // backends must trip the same limit at the same derivation and leave
  // the same queryable partial state.
  Rng rng(GetParam() * 787 + 53);
  const RandomChoiceProgram p = MakeRandomChoiceProgram(GetParam() * 523 + 41);
  RunLimits tuple_cap;
  tuple_cap.max_tuples = static_cast<uint64_t>(rng.NextInt(1, 12));
  RunLimits stage_cap;
  stage_cap.max_stages = static_cast<uint64_t>(rng.NextInt(1, 5));
  RunLimits iter_cap;
  iter_cap.max_iterations = static_cast<uint64_t>(rng.NextInt(1, 3));
  for (const RunLimits& limits : {tuple_cap, stage_cap, iter_cap}) {
    const BackendRunResult interp =
        RunChoiceProgram(p, EvalBackend::kInterp, limits);
    const BackendRunResult vm = RunChoiceProgram(p, EvalBackend::kVm, limits);
    EXPECT_EQ(static_cast<int>(vm.reason), static_cast<int>(interp.reason))
        << p.text;
    EXPECT_EQ(vm.status, interp.status) << p.text;
    EXPECT_EQ(vm.model, interp.model) << p.text;
  }
}

// -- Abstract-interpretation soundness --------------------------------------
// The analyzer's verdicts are claims about *every* run; here they face
// actual runs over random inputs.

TEST_P(SeedSweep, RandomStratifiedAnalysisIsSound) {
  const RandomProgram p = MakeRandomStratifiedProgram(GetParam() * 577 + 5);
  Engine e;
  ASSERT_TRUE(e.LoadProgram(p.text).ok());
  for (const auto& row : p.e1) {
    ASSERT_TRUE(
        e.AddFact("e1", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
  for (const auto& row : p.e2) {
    ASSERT_TRUE(
        e.AddFact("e2", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
  ASSERT_TRUE(e.Run().ok()) << p.text;
  const absint::AnalysisResult* r = e.absint();
  ASSERT_NE(r, nullptr);
  // This family is type-clean by construction: error-class analysis
  // findings (GD300/GD301) would be false positives.
  for (const Diagnostic& d : r->diagnostics) {
    EXPECT_NE(d.severity, DiagSeverity::kError)
        << d.code << ": " << d.message << "\n" << p.text;
  }
  // Soundness: every stored row lies within the inferred signature, and
  // actual relation sizes respect the cardinality bounds.
  for (const absint::PredicateSignature& sig : r->signatures) {
    const Relation* rel = e.Find(sig.name, sig.arity);
    if (rel == nullptr) continue;
    if (!sig.populated) {
      EXPECT_EQ(rel->size(), 0u) << sig.DisplayName() << "\n" << p.text;
      continue;
    }
    EXPECT_TRUE(sig.card.Contains(rel->size()))
        << sig.DisplayName() << " rows=" << rel->size() << "\n" << p.text;
    for (RowId row = 0; row < rel->size(); ++row) {
      const TupleView t = rel->Row(row);
      for (uint32_t c = 0; c < sig.arity; ++c) {
        ASSERT_TRUE(sig.args[c].types.Has(t[c].kind()))
            << sig.DisplayName() << " col " << c << "\n" << p.text;
        if (t[c].is_int()) {
          ASSERT_TRUE(sig.args[c].iv.Contains(t[c].AsInt()))
              << sig.DisplayName() << " col " << c << " = " << t[c].AsInt()
              << "\n" << p.text;
        }
      }
    }
  }
}

TEST_P(SeedSweep, GuaranteedOverflowIsFlaggedAndDerivesNothing) {
  // Random near-limit EDB plus a shift that provably overflows: GD013
  // must fire, and the run must agree by deriving zero rows.
  Rng rng(GetParam() * 263 + 17);
  const int64_t base = Value::kMaxInt - rng.NextInt(0, 50);
  const int64_t shift = rng.NextInt(51, 500);
  Engine e;
  const std::string text =
      "boom(Y) <- m(X), Y = X + " + std::to_string(shift) + ".\n";
  ASSERT_TRUE(e.LoadProgram(text).ok());
  ASSERT_TRUE(e.AddFact("m", {Value::Int(base)}).ok());
  auto lint = e.Lint();
  ASSERT_TRUE(lint.ok());
  EXPECT_TRUE(std::any_of(
      lint->diagnostics.begin(), lint->diagnostics.end(),
      [](const Diagnostic& d) { return d.code == diag::kGuaranteedOverflow; }))
      << text;
  ASSERT_TRUE(e.Run().ok());
  EXPECT_TRUE(e.Query("boom", 1).empty()) << text;
}

TEST_P(SeedSweep, NearOverflowStaysQuietAndDerives) {
  // The same shape with an in-range shift: no GD013, and the derived
  // value lands inside the inferred interval.
  Rng rng(GetParam() * 709 + 29);
  const int64_t base = Value::kMaxInt - rng.NextInt(100, 1000);
  const int64_t shift = rng.NextInt(0, 100);
  Engine e;
  const std::string text =
      "ok(Y) <- m(X), Y = X + " + std::to_string(shift) + ".\n";
  ASSERT_TRUE(e.LoadProgram(text).ok());
  ASSERT_TRUE(e.AddFact("m", {Value::Int(base)}).ok());
  auto lint = e.Lint();
  ASSERT_TRUE(lint.ok());
  EXPECT_FALSE(std::any_of(
      lint->diagnostics.begin(), lint->diagnostics.end(),
      [](const Diagnostic& d) { return d.code == diag::kGuaranteedOverflow; }))
      << text;
  ASSERT_TRUE(e.Run().ok());
  ASSERT_EQ(e.Query("ok", 1).size(), 1u);
  const absint::PredicateSignature* sig = e.absint()->Find("ok", 1);
  ASSERT_NE(sig, nullptr);
  EXPECT_TRUE(sig->args[0].iv.Contains(base + shift)) << text;
}

}  // namespace
}  // namespace gdlog
