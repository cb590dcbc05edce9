// The stage loop's accounting: how many saturation rounds a greedy stage
// costs, which flight events a long run keeps, and that the metrics the
// evaluator stages in plain fields reach the registry with exact counts.
//
//   * Prim's new_g rows reach the queue in the sweep that derives them
//     (chained deltas), so each firing costs one round: rounds =
//     firings + 1, the extra one saturating the seed.
//   * Sort and Example 7 matching have no flat rule a firing could feed,
//     so the loop fires without saturating: one round in all, for the
//     seed fact.
//   * A next rule fires only once some stage value is in play: its stage
//     I needs a predecessor I - 1.
//   * Each firing's head row counts as a derived tuple, so the tuple cap
//     stops a stage loop.
//   * round, stage, gamma-fire and choice-reject events are kept one by
//     one for the first 256 of each kind in a run, then one in 64.
//   * choice.pops_per_fire, choice.admissible/inadmissible and goal.fanout
//     match counts kept elsewhere, after a full run and after a bounded
//     stop alike.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "baselines/prim.h"
#include "greedy/graph.h"
#include "greedy/matching.h"
#include "greedy/prim.h"
#include "greedy/sort.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workload/graph_gen.h"
#include "workload/relation_gen.h"

namespace gdlog {
namespace {

/// Events of one thinned kind the recorder keeps out of `offered`: each
/// of the first 256, then every 64th.
uint64_t KeptEvents(uint64_t offered) {
  uint64_t kept = 0;
  for (uint64_t k = 1; k <= offered; ++k) {
    if (k <= 256 || k % 64 == 0) ++kept;
  }
  return kept;
}

/// An engine with `program` and `graph`'s edges loaded, as PrimMst and
/// GreedyMatching load them, not yet run.
std::unique_ptr<Engine> LoadGraphProgram(const char* program,
                                         const Graph& graph,
                                         const GraphLoadOptions& load,
                                         const EngineOptions& options) {
  auto engine = std::make_unique<Engine>(options);
  EXPECT_TRUE(engine->LoadProgram(program).ok());
  EXPECT_TRUE(LoadGraphEdges(engine.get(), graph, load).ok());
  return engine;
}

/// Example 4 from root 0. The engine is kept even when the run stops
/// early.
std::unique_ptr<Engine> RunPrim(const Graph& graph,
                                const EngineOptions& options,
                                Status* run_status) {
  GraphLoadOptions load;
  load.exclude_target = 0;
  auto engine = LoadGraphProgram(kPrimProgramRules, graph, load, options);
  EXPECT_TRUE(engine
                  ->AddFact("prm", {Value::Nil(), Value::Int(0), Value::Int(0),
                                    Value::Int(0)})
                  .ok());
  *run_status = engine->Run();
  return engine;
}

/// Example 7 on directed arcs; its seed fact is in the program text.
std::unique_ptr<Engine> RunMatching(const Graph& graph,
                                    const EngineOptions& options,
                                    Status* run_status) {
  GraphLoadOptions load;
  load.both_directions = false;
  auto engine = LoadGraphProgram(kMatchingProgram, graph, load, options);
  *run_status = engine->Run();
  return engine;
}

TEST(StageLoop, PrimRunsOneRoundPerFiring) {
  GraphGenOptions opts;
  opts.seed = 1;
  const Graph g = ConnectedRandomGraph(2000, 2000, opts);
  auto result = PrimMst(g, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_cost, BaselinePrim(g, 0).total_cost);
  const FixpointStats& s = *result->engine->stats();
  EXPECT_EQ(s.gamma_firings, 1999u);
  EXPECT_EQ(s.saturation_rounds, s.gamma_firings + 1);
}

TEST(StageLoop, SortRunsOneRound) {
  RelationGenOptions opts;
  opts.seed = 3;
  auto result = SortRelation(RandomCostedRelation(1000, opts));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FixpointStats& s = *result->engine->stats();
  EXPECT_EQ(s.gamma_firings, 1000u);
  EXPECT_EQ(s.saturation_rounds, 1u);
}

TEST(StageLoop, MatchingRunsOneRound) {
  GraphGenOptions opts;
  opts.seed = 4;
  auto result = GreedyMatching(BipartiteGraph(100, 100, 1500, opts));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FixpointStats& s = *result->engine->stats();
  EXPECT_GT(s.gamma_firings, 50u);
  EXPECT_EQ(s.saturation_rounds, 1u);
}

TEST(StageLoop, NextRuleWaitsForAStageValue) {
  // No fact or rule puts a stage value in sp, so the rewriting's
  // sp(_, _, S), I = S + 1 never holds: the only stable model leaves sp
  // empty, and the next rule must not fire.
  constexpr char kUnseeded[] = R"(
    sp(X, C, I) <- next(I), p(X, C), least(C, I).
    p(a, 5). p(b, 2). p(c, 9).
  )";
  Engine unseeded;
  ASSERT_TRUE(unseeded.LoadProgram(kUnseeded).ok());
  ASSERT_TRUE(unseeded.Run().ok());
  EXPECT_TRUE(unseeded.Query("sp", 3).empty());
  EXPECT_EQ(unseeded.stats()->gamma_firings, 0u);
  auto check = unseeded.VerifyStableModel();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->stable) << check->diagnostic;

  // A seed fact puts stage 0 in play, and all three fire after it.
  Engine seeded;
  ASSERT_TRUE(seeded.LoadProgram(std::string(kUnseeded) + "sp(nil, 0, 0).")
                  .ok());
  ASSERT_TRUE(seeded.Run().ok());
  EXPECT_EQ(seeded.Query("sp", 3).size(), 4u);
  EXPECT_EQ(seeded.stats()->gamma_firings, 3u);
}

TEST(StageLoop, TupleLimitStopsAStageLoop) {
  // Every next-rule firing counts as a derived tuple, so the tuple cap
  // stops a sort after its fifth stage.
  EngineOptions options;
  options.limits.max_tuples = 5;
  options.obs.recorder_dump_on_stop = false;
  Engine e(options);
  ASSERT_TRUE(e.LoadProgram(kSortProgram).ok());
  std::vector<Value> facts;
  for (int64_t i = 0; i < 20; ++i) {
    facts.insert(facts.end(), {Value::Int(i), Value::Int((i * 7) % 20)});
  }
  ASSERT_TRUE(e.AddFacts("p", 2, facts).ok());
  EXPECT_FALSE(e.Run().ok());
  EXPECT_EQ(e.outcome().reason, TerminationReason::kTupleLimit);
  EXPECT_EQ(e.stats()->exec.inserts, 5u);
  EXPECT_EQ(e.Query("sp", 3).size(), 6u);  // five stages and the seed
}

TEST(StageLoop, LongRunKeepsThinnedEventsAndExactTermination) {
  // A ring of 1000 nodes: 999 stages, each one firing and one round.
  constexpr uint32_t kNodes = 1000;
  Graph ring;
  ring.num_nodes = kNodes;
  for (uint32_t i = 0; i < kNodes; ++i) {
    ring.edges.push_back({i, (i + 1) % kNodes, static_cast<int64_t>(i % 7)});
  }
  EngineOptions options;
  options.obs.recorder_capacity = 1u << 16;
  Status st;
  auto engine = RunPrim(ring, options, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const FixpointStats& s = *engine->stats();
  ASSERT_EQ(s.stages_assigned, kNodes - 1);
  const FlightRecorder& rec = *engine->flight_recorder();
  ASSERT_LE(rec.recorded(), rec.capacity());
  uint64_t stages = 0, rounds = 0, fires = 0;
  for (const FlightRecorder::Event& ev : rec.Snapshot()) {
    stages += ev.kind == FlightEventKind::kStage;
    rounds += ev.kind == FlightEventKind::kRound;
    fires += ev.kind == FlightEventKind::kGammaFire;
  }
  EXPECT_EQ(stages, KeptEvents(s.stages_assigned));
  EXPECT_EQ(rounds, KeptEvents(s.saturation_rounds));
  EXPECT_EQ(fires, 0u);  // next rules record stage events, not gamma-fire
  const FlightRecorder::Event last = rec.Snapshot().back();
  ASSERT_EQ(last.kind, FlightEventKind::kTermination);
  EXPECT_EQ(last.run.round, s.saturation_rounds);
  EXPECT_EQ(last.run.gamma_firings, s.gamma_firings);
  EXPECT_EQ(last.run.stages, s.stages_assigned);
  EXPECT_EQ(last.run.tuples, s.exec.inserts);
}

/// Checks the staged metrics of a run against counts kept outside them:
/// the firings, the choice audit's FD rejections, and EXPLAIN ANALYZE's
/// probes. The audit must hold every FD check: each firing made one
/// admitted check after its rejected ones, and no check followed the
/// last firing (a bounded stop, or a queue left with nothing to pop).
void ExpectStagedMetricsExact(const Engine& e, int expected_goals) {
  const FixpointStats& s = *e.stats();
  const MetricsRegistry& m = *e.metrics();
  const Histogram* pops = m.FindHistogram("choice.pops_per_fire");
  ASSERT_NE(pops, nullptr);
  EXPECT_EQ(pops->count(), s.gamma_firings);

  const ChoiceAuditTrail* audit = e.ChoiceAudit();
  ASSERT_NE(audit, nullptr);
  ASSERT_EQ(audit->entries().size(), s.gamma_firings);
  uint64_t fd_checks = 0, fd_rejects = 0;
  for (const ChoiceAuditEntry& entry : audit->entries()) {
    fd_checks += entry.rejected_fd + 1;
    fd_rejects += entry.rejected_fd;
  }
  const Counter* admissible = m.FindCounter("choice.admissible");
  const Counter* inadmissible = m.FindCounter("choice.inadmissible");
  ASSERT_NE(admissible, nullptr);
  ASSERT_NE(inadmissible, nullptr);
  EXPECT_EQ(admissible->value() + inadmissible->value(), fd_checks);
  EXPECT_EQ(inadmissible->value(), fd_rejects);

  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson(*report);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::vector<RuleProfile>& profiles = *e.RuleProfiles();
  int goals = 0;
  for (const JsonValue& rule : doc->Find("plans")->items) {
    const auto idx = static_cast<size_t>(rule.Find("rule")->number);
    for (const JsonValue& goal : rule.Find("goals")->items) {
      const JsonValue* id = goal.Find("goal_id");
      if (id == nullptr) continue;
      const Histogram* fanout = m.FindHistogram(
          "goal.fanout",
          {{"rule", profiles[idx].head + "#" + std::to_string(idx)},
           {"goal", std::to_string(static_cast<int>(id->number))}});
      ASSERT_NE(fanout, nullptr);
      const auto probes =
          static_cast<uint64_t>(goal.Find("actual")->Find("probes")->number);
      EXPECT_GT(probes, 0u);
      EXPECT_EQ(fanout->count(), probes)
          << "rule " << idx << " goal " << id->number;
      ++goals;
    }
  }
  EXPECT_EQ(goals, expected_goals);
}

EngineOptions AuditedOptions(uint64_t max_stages) {
  EngineOptions options;
  options.provenance = true;  // the choice audit
  options.limits.max_stages = max_stages;
  options.obs.recorder_dump_on_stop = false;
  return options;
}

TEST(StageLoop, StagedMetricsAreExactAfterAFullRun) {
  // Prim with congruence merging: a candidate whose node already entered
  // the tree is dropped at push, so nothing is left to pop at the end.
  GraphGenOptions opts;
  opts.seed = 1;
  Status st;
  auto engine = RunPrim(ConnectedRandomGraph(2000, 2000, opts),
                        AuditedOptions(0), &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectStagedMetricsExact(*engine, 3);  // new_g; prm and g
}

TEST(StageLoop, StagedMetricsAreExactAfterAStageLimitStop) {
  GraphGenOptions opts;
  opts.seed = 1;
  Status st;
  auto prim = RunPrim(ConnectedRandomGraph(2000, 2000, opts),
                      AuditedOptions(700), &st);
  ASSERT_EQ(prim->outcome().reason, TerminationReason::kStageLimit)
      << st.ToString();
  EXPECT_EQ(prim->stats()->stages_assigned, 700u);
  ExpectStagedMetricsExact(*prim, 3);

  // Matching rejects most pops by its two FDs.
  auto matching = RunMatching(BipartiteGraph(100, 100, 1500, opts),
                              AuditedOptions(60), &st);
  ASSERT_EQ(matching->outcome().reason, TerminationReason::kStageLimit)
      << st.ToString();
  EXPECT_GT(matching->metrics()->FindCounter("choice.inadmissible")->value(),
            0u);
  ExpectStagedMetricsExact(*matching, 1);  // g
}

}  // namespace
}  // namespace gdlog
