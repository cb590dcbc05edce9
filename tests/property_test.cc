// Parameterized property sweeps: for many random seeds, the declarative
// engine must agree with the procedural baselines, and every produced
// fact set must satisfy the algorithms' invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "analysis/diagnostics.h"
#include "analysis/lint.h"
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

/// The model as text, one list per predicate (in AllPredicates order),
/// each in relation insertion order.
std::vector<std::vector<std::string>> RelationRows(const Engine& e) {
  std::vector<std::vector<std::string>> rels;
  for (const auto& ref : e.program()->AllPredicates()) {
    std::vector<std::string>& rows = rels.emplace_back();
    for (const auto& tuple : e.Query(ref.name, ref.arity)) {
      std::string line = ref.name;
      for (const Value& v : tuple) {
        line += ' ';
        line += e.store().ToString(v);
      }
      rows.push_back(std::move(line));
    }
  }
  return rels;
}

/// The whole model in insertion order, predicate by predicate.
std::vector<std::string> DumpOrderedModel(const Engine& e) {
  std::vector<std::string> lines;
  for (std::vector<std::string>& rows : RelationRows(e)) {
    lines.insert(lines.end(), rows.begin(), rows.end());
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

// -- Randomized choice programs -----------------------------------------
//
// A choice family (stage loop with least + FIFO choice FD) judged by
// oracles outside the fixpoint driver: the Gelfond-Lifschitz checker for
// completed runs, and the uncapped run for bounded stops.

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
    // Cost collisions are deliberate: ties exercise the seeded
    // tie-break of the least queue.
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

/// Loads `p` with its EDB into a fresh engine.
std::unique_ptr<Engine> LoadChoiceProgram(const RandomChoiceProgram& p,
                                          EngineOptions opts) {
  auto e = std::make_unique<Engine>(opts);
  auto load = e->LoadProgram(p.text);
  EXPECT_TRUE(load.ok()) << load.ToString() << "\n" << p.text;
  for (const auto& row : p.items) {
    EXPECT_TRUE(
        e->AddFact("item", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
  for (const auto& row : p.cands) {
    EXPECT_TRUE(
        e->AddFact("cand", {Value::Int(row[0]), Value::Int(row[1])}).ok());
  }
  return e;
}

TEST_P(SeedSweep, RandomChoiceModelsAreStable) {
  // Theorem 1: whichever model a choice seed picks, it is stable. The
  // checker evaluates the program's first-order rewriting naively
  // against the fixed model, without the candidate queues, the choice
  // runtime or the seminaive windows.
  const RandomChoiceProgram p = MakeRandomChoiceProgram(GetParam() * 523 + 41);
  for (uint64_t choice_seed : {0, 1, 7}) {
    EngineOptions opts;
    opts.eval.choice_seed = choice_seed;
    const std::unique_ptr<Engine> e = LoadChoiceProgram(p, opts);
    const Status run = e->Run();
    ASSERT_TRUE(run.ok()) << run.ToString() << "\n" << p.text;
    auto check = e->VerifyStableModel();
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_TRUE(check->stable)
        << "choice_seed=" << choice_seed << ": " << check->diagnostic << "\n"
        << p.text;
  }
}

TEST_P(SeedSweep, BoundedStopLeavesAPrefixOfTheFullRun) {
  // Deterministic guardrails only (tuple/stage/iteration caps — the
  // wall-clock and memory limits are not run-to-run reproducible). A cap
  // either never trips, and the run derives the full model, or it stops
  // the run with its own reason. Either way the state stays queryable
  // and every relation holds a prefix of the uncapped run's rows, in
  // the same insertion order: a stop cuts evaluation short but never
  // changes what was derived before it.
  Rng rng(GetParam() * 787 + 53);
  const RandomChoiceProgram p = MakeRandomChoiceProgram(GetParam() * 523 + 41);
  const std::unique_ptr<Engine> full = LoadChoiceProgram(p, EngineOptions{});
  ASSERT_TRUE(full->Run().ok()) << p.text;
  const std::vector<std::vector<std::string>> full_rows = RelationRows(*full);

  struct Cap {
    RunLimits limits;
    TerminationReason reason;
  };
  const Cap caps[] = {
      {{.max_tuples = static_cast<uint64_t>(rng.NextInt(1, 12))},
       TerminationReason::kTupleLimit},
      {{.max_stages = static_cast<uint64_t>(rng.NextInt(1, 5))},
       TerminationReason::kStageLimit},
      {{.max_iterations = static_cast<uint64_t>(rng.NextInt(1, 3))},
       TerminationReason::kIterationLimit},
  };
  for (const Cap& cap : caps) {
    EngineOptions opts;
    opts.limits = cap.limits;
    const std::unique_ptr<Engine> e = LoadChoiceProgram(p, opts);
    const Status run = e->Run();
    const std::string label = std::string(TerminationReasonName(cap.reason)) +
                              " " + run.ToString() + "\n" + p.text;
    ASSERT_TRUE(e->has_run()) << label;
    if (run.ok()) {
      EXPECT_EQ(e->outcome().reason, TerminationReason::kCompleted) << label;
    } else {
      EXPECT_EQ(e->outcome().reason, cap.reason) << label;
    }
    const std::vector<std::vector<std::string>> rows = RelationRows(*e);
    ASSERT_EQ(rows.size(), full_rows.size()) << label;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (run.ok()) {
        EXPECT_EQ(rows[r], full_rows[r]) << label;
        continue;
      }
      ASSERT_LE(rows[r].size(), full_rows[r].size()) << label;
      EXPECT_TRUE(std::equal(rows[r].begin(), rows[r].end(),
                             full_rows[r].begin()))
          << label;
    }
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
  auto analysis = e.StaticAnalysis();
  ASSERT_TRUE(analysis.ok());
  const absint::AnalysisResult* r = *analysis;
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
  auto analysis = e.StaticAnalysis();
  ASSERT_TRUE(analysis.ok());
  const absint::PredicateSignature* sig = (*analysis)->Find("ok", 1);
  ASSERT_NE(sig, nullptr);
  EXPECT_TRUE(sig->args[0].iv.Contains(base + shift)) << text;
}

// -- Lint and Run decide rule safety alike ----------------------------------
//
// Random rule bodies over a small EDB: positive and negated atoms with
// variable, functor, arithmetic, constant and anonymous arguments,
// comparisons and `=`, negated conjunctions, least/most with groupings,
// choice, and next rules whose goals may read the stage variable. Lint
// and the rule compiler share one binding analysis, so whenever a
// program loads, lint reports GD001/GD002/GD008 exactly when Run refuses
// the program, with that diagnostic's text, whichever goal order the
// join planner would pick.

std::string RandomSafetyVar(Rng& rng) {
  static const char* const kVars[] = {"X", "Y", "Z", "W"};
  return kVars[rng.NextBounded(4)];
}

std::string RandomSafetyArg(Rng& rng) {
  switch (rng.NextBounded(7)) {
    case 0:
      return "t(" + RandomSafetyVar(rng) + ")";
    case 1:
      return RandomSafetyVar(rng) + " + 1";
    case 2:
      return std::to_string(rng.NextBounded(3));
    case 3:
      return "_";
    default:
      return RandomSafetyVar(rng);
  }
}

// Each draw is its own statement, so every compiler draws in one order.
std::string RandomSafetyAtom(Rng& rng) {
  static const char* const kPreds[] = {"e", "f"};
  if (rng.NextBounded(4) == 0) return "g(" + RandomSafetyArg(rng) + ")";
  const std::string pred = kPreds[rng.NextBounded(2)];
  const std::string a = RandomSafetyArg(rng);
  const std::string b = RandomSafetyArg(rng);
  return pred + "(" + a + ", " + b + ")";
}

std::string RandomSafetyComparison(Rng& rng) {
  static const char* const kOps[] = {"<", "!=", "=", "="};
  const auto side = [&rng] {
    return rng.NextBounded(3) == 0 ? RandomSafetyVar(rng) + " + 1"
                                   : RandomSafetyVar(rng);
  };
  const std::string lhs = side();
  const std::string op = kOps[rng.NextBounded(4)];
  return lhs + " " + op + " " + side();
}

std::string RandomSafetyGoal(Rng& rng, int depth) {
  switch (rng.NextBounded(depth > 0 ? 6 : 5)) {
    case 0:
    case 1:
      return RandomSafetyAtom(rng);
    case 2:
      return "not " + RandomSafetyAtom(rng);
    case 3:
    case 4:
      return RandomSafetyComparison(rng);
    default: {
      const std::string first = RandomSafetyGoal(rng, depth - 1);
      return "not (" + first + ", " + RandomSafetyGoal(rng, depth - 1) + ")";
    }
  }
}

std::string RandomSafetyGrouping(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:
      return "_";
    case 1: {
      const std::string first = RandomSafetyVar(rng);
      return "(" + first + ", " + RandomSafetyVar(rng) + ")";
    }
    default:
      return RandomSafetyVar(rng);
  }
}

/// One random rule (a next rule one time in four) over the EDB.
std::string RandomSafetyProgram(Rng& rng) {
  std::string text =
      "e(0, 1). e(1, 2). e(2, 0). e(1, 1). f(t(1), 2). f(t(2), 0).\n"
      "g(1). g(2).\n";
  std::vector<std::string> body;
  const int goals = static_cast<int>(rng.NextInt(1, 4));
  for (int i = 0; i < goals; ++i) body.push_back(RandomSafetyGoal(rng, 1));
  // Atoms that bind every variable, most of the time, so that the
  // family has safe rules too.
  if (rng.NextBounded(3) != 0) body.push_back("e(X, Y)");
  if (rng.NextBounded(3) != 0) body.push_back("e(Z, W)");
  const std::string v1 = RandomSafetyVar(rng);
  const std::string v2 = RandomSafetyVar(rng);
  std::string head;
  if (rng.NextBounded(4) == 0) {
    text += "s(nil, 0, 0).\n";
    head = "s(" + v1 + ", " + v2 + ", I)";
    body.push_back("next(I)");
    // A goal that reads the stage variable runs after the stage is
    // known; the cost may depend on it.
    if (rng.NextBounded(2)) {
      body.push_back("e(" + RandomSafetyVar(rng) + ", I)");
    }
    body.push_back("least(" + RandomSafetyVar(rng) + ", I)");
  } else {
    head = "h(" + v1 + ", " + v2 + ")";
    const uint64_t extremum = rng.NextBounded(4);  // least, most, none
    if (extremum < 2) {
      const std::string cost = RandomSafetyVar(rng);
      body.push_back((extremum == 0 ? "least(" : "most(") + cost + ", " +
                     RandomSafetyGrouping(rng) + ")");
    }
  }
  if (rng.NextBounded(3) == 0) {
    const std::string left = RandomSafetyVar(rng);
    body.push_back("choice(" + left + ", " + RandomSafetyVar(rng) + ")");
  }
  rng.Shuffle(&body);
  text += head + " <-";
  for (size_t i = 0; i < body.size(); ++i) {
    text += (i == 0 ? " " : ", ") + body[i];
  }
  return text + ".\n";
}

bool IsSafetyCode(std::string_view code) {
  return code == diag::kUnsafeHeadVar || code == diag::kUnsafeBodyVar ||
         code == diag::kUnboundExtremaCost;
}

TEST_P(SeedSweep, LintAndRunAgreeOnRuleSafety) {
  Rng rng(GetParam() * 887 + 11);
  int loaded = 0, refused = 0, ran = 0;
  for (int n = 0; n < 60; ++n) {
    const std::string text = RandomSafetyProgram(rng);
    for (bool planner : {true, false}) {
      EngineOptions opts;
      opts.eval.use_join_planner = planner;
      opts.limits.max_stages = 64;
      opts.limits.max_tuples = 10000;
      Engine e(opts);
      if (!e.LoadProgram(text).ok()) continue;
      ++loaded;
      auto lint = e.Lint();
      ASSERT_TRUE(lint.ok()) << lint.status().ToString();
      const bool lint_unsafe = std::any_of(
          lint->diagnostics.begin(), lint->diagnostics.end(),
          [](const Diagnostic& d) { return IsSafetyCode(d.code); });
      const Status run = e.Run();
      const bool run_unsafe = IsSafetyCode(DiagCodeOfStatus(run));
      EXPECT_EQ(lint_unsafe, run_unsafe)
          << text << "planner=" << planner << ": " << run.ToString() << "\n"
          << RenderDiagnostics(lint->diagnostics, "");
      // Every refusal carries a code.
      EXPECT_TRUE(run.ok() || !DiagCodeOfStatus(run).empty())
          << text << run.ToString();
      if (run_unsafe) {
        ++refused;
        EXPECT_TRUE(std::any_of(lint->diagnostics.begin(),
                                lint->diagnostics.end(),
                                [&](const Diagnostic& d) {
                                  return DiagnosticToStatus(d).ToString() ==
                                         run.ToString();
                                }))
            << text << run.ToString();
      }
      if (!run.ok()) continue;
      ++ran;
      auto check = e.VerifyStableModel();
      EXPECT_NE(check.status().code(), StatusCode::kAnalysisError)
          << text << "planner=" << planner << ": "
          << check.status().ToString();
    }
  }
  // The family exercises both verdicts.
  EXPECT_GT(refused, 0);
  EXPECT_GT(ran, 0);
  EXPECT_GT(loaded, refused);
}

// -- Load and lint decide program structure alike ---------------------------
//
// Rules like the safety family's, sometimes given a second next goal or
// extremum, a cost that is not a variable or lies in its grouping, a
// meta goal inside `not (...)` or a stage variable missing from the
// head, and sometimes a second rule that gives the stage predicate
// another stage position, mixes a flat recursive rule into its clique,
// places stage variables at two head positions, or recurses through
// negation. AnalyzeStages decides program structure once, so a
// LoadProgram refusal is a diagnostic lint reports for the program, and
// a program that loads has no structural error in lint.

/// An extremum goal over the rule's variables: its cost a variable, or
/// one time in five a constant or arithmetic term; its grouping the
/// cost itself one time in six.
std::string RandomStructureExtremum(Rng& rng, const std::string& grouping) {
  const std::string kind = rng.NextBounded(2) ? "least(" : "most(";
  std::string cost = RandomSafetyVar(rng);
  if (rng.NextBounded(5) == 0) {
    cost = rng.NextBounded(2) ? "1" : cost + " + 1";
  }
  const std::string group =
      rng.NextBounded(6) == 0 ? "(" + cost + ", " + grouping + ")" : grouping;
  return kind + cost + ", " + group + ")";
}

std::string RandomStructureProgram(Rng& rng) {
  std::string text =
      "e(0, 1). e(1, 2). e(2, 0). e(1, 1). f(t(1), 2). f(t(2), 0).\n"
      "g(1). g(2).\n";
  std::vector<std::string> body = {"e(X, Y)", "e(Z, W)"};
  const int goals = static_cast<int>(rng.NextInt(1, 3));
  for (int i = 0; i < goals; ++i) body.push_back(RandomSafetyGoal(rng, 1));
  const bool next_rule = rng.NextBounded(2) == 0;
  std::string head;
  if (next_rule) {
    text += "s(nil, 0, 0).\n";
    head = rng.NextBounded(8) == 0 ? "s(X, Y, Z)" : "s(X, Y, I)";
    body.push_back("next(I)");
    if (rng.NextBounded(8) == 0) body.push_back("next(J)");
  } else {
    head = "h(X, Y)";
  }
  const std::string grouping = next_rule ? "I" : RandomSafetyGrouping(rng);
  if (rng.NextBounded(3) != 0) {
    body.push_back(RandomStructureExtremum(rng, grouping));
    if (rng.NextBounded(6) == 0) {
      body.push_back(RandomStructureExtremum(rng, grouping));
    }
  }
  if (rng.NextBounded(4) == 0) {
    const std::string left = RandomSafetyVar(rng);
    body.push_back("choice(" + left + ", " + RandomSafetyVar(rng) + ")");
  }
  if (rng.NextBounded(5) == 0) {
    static const char* const kMeta[] = {"choice(X, V)", "least(V, X)",
                                        "most(V, ())", "next(K)"};
    body.push_back("not (e(X, V), " +
                   std::string(kMeta[rng.NextBounded(4)]) + ")");
  }
  rng.Shuffle(&body);
  text += head + " <-";
  for (size_t i = 0; i < body.size(); ++i) {
    text += (i == 0 ? " " : ", ") + body[i];
  }
  text += ".\n";
  if (next_rule) {
    switch (rng.NextBounded(5)) {
      case 0:  // s's stage at position 0 as well as 2: GD106
        text += "s(I, X, Y) <- next(I), e(X, Y).\n";
        break;
      case 1:  // a flat recursive rule beside the next rule: GD108
        text += "s(X, Y, I) <- s(X, Y, J), I = J + 1, J < 3.\n";
        break;
      case 2:  // t's stage variable at two head positions: GD107
        text += "s(X, Y, I) <- next(I), t(X, J, _), e(J, Y), J < I.\n"
                "t(X, I, I) <- s(X, _, I).\n";
        break;
      default:
        break;
    }
  } else if (rng.NextBounded(4) == 0) {
    text += "h(X, Y) <- e(X, Y), not h(Y, X).\n";  // GD009
  }
  return text;
}

bool IsStructureCode(std::string_view code) {
  return code == diag::kNotStageStratified || code == diag::kMetaInNegation ||
         (code >= diag::kMultipleNext && code <= diag::kMissingStageArg);
}

TEST_P(SeedSweep, LintAndLoadAgreeOnProgramStructure) {
  Rng rng(GetParam() * 613 + 5);
  int loaded = 0, refused = 0;
  for (int n = 0; n < 60; ++n) {
    const std::string text = RandomStructureProgram(rng);
    EngineOptions opts;
    opts.limits.max_stages = 64;
    opts.limits.max_tuples = 10000;
    Engine e(opts);
    const Status load = e.LoadProgram(text);
    if (!load.ok()) {
      ++refused;
      ASSERT_EQ(load.code(), StatusCode::kAnalysisError) << text;
      ValueStore store;
      const LintResult lint = LintSource(&store, text);
      EXPECT_TRUE(std::any_of(lint.diagnostics.begin(),
                              lint.diagnostics.end(),
                              [&](const Diagnostic& d) {
                                return DiagnosticToStatus(d).ToString() ==
                                       load.ToString();
                              }))
          << text << load.ToString() << "\n"
          << RenderDiagnostics(lint.diagnostics, "");
      continue;
    }
    ++loaded;
    auto lint = e.Lint();
    ASSERT_TRUE(lint.ok()) << lint.status().ToString();
    for (const Diagnostic& d : lint->diagnostics) {
      EXPECT_FALSE(d.severity == DiagSeverity::kError &&
                   IsStructureCode(d.code))
          << text << RenderDiagnostic(d, "");
    }
    // Whatever loads runs, or is refused with a code.
    const Status run = e.Run();
    EXPECT_TRUE(run.ok() || !DiagCodeOfStatus(run).empty())
        << text << run.ToString();
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace gdlog
