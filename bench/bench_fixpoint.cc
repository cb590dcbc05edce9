// Experiment E9 — polynomial data complexity of the Choice Fixpoint
// (Lemma 2 / Theorem 2).
//
// "The data complexity of computing a stable model for P is polynomial
// time." The table scales three program shapes — a Horn transitive
// closure (the seminaive substrate), a stage program (sort), and a
// choice program (Example 1) — and reports the fitted exponents, all of
// which must be small constants.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "api/engine.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "greedy/prim.h"
#include "workload/graph_gen.h"
#include "greedy/sort.h"
#include "workload/relation_gen.h"

namespace gdlog {
namespace {

/// Transitive closure of a chain of length n (|tc| = n(n+1)/2 — the
/// quadratic output is the lower bound here).
double RunChainTc(uint32_t n) {
  return bench::MeasureSeconds([&] {
    Engine e;
    GDLOG_CHECK(e.LoadProgram(R"(
      tc(X, Y) <- edge(X, Y).
      tc(X, Z) <- tc(X, Y), edge(Y, Z).
    )").ok());
    for (uint32_t i = 0; i + 1 < n; ++i) {
      GDLOG_CHECK(e.AddFact("edge", {Value::Int(i), Value::Int(i + 1)}).ok());
    }
    GDLOG_CHECK(e.Run().ok());
    GDLOG_CHECK_EQ(e.Query("tc", 2).size(), size_t{n} * (n - 1) / 2);
  }, /*reps=*/2);
}

double RunSort(uint32_t n) {
  RelationGenOptions opts;
  opts.seed = 1;
  const auto input = RandomCostedRelation(n, opts);
  return bench::MeasureSeconds([&] {
    auto r = SortRelation(input);
    GDLOG_CHECK(r.ok());
  }, /*reps=*/2);
}

double RunChoice(uint32_t n) {
  return bench::MeasureSeconds([&] {
    Engine e;
    GDLOG_CHECK(e.LoadProgram(R"(
      a(X, Y) <- t(X, Y), choice(X, Y), choice(Y, X).
    )").ok());
    Rng rng(2);
    for (uint32_t i = 0; i < 4 * n; ++i) {
      GDLOG_CHECK(e.AddFact("t", {Value::Int(rng.NextBounded(n)),
                                  Value::Int(rng.NextBounded(n))}).ok());
    }
    GDLOG_CHECK(e.Run().ok());
  }, /*reps=*/2);
}

void PrintExperimentTable() {
  bench::ExperimentTable table(
      "E9: polynomial data complexity — Horn TC (quadratic output), "
      "stage sort, flat choice",
      "n", {"tc_chain_ms", "sort_ms", "choice_ms"});
  for (uint32_t n : {250u, 500u, 1000u, 2000u, 4000u}) {
    table.AddRow(n, {RunChainTc(n) * 1e3, RunSort(n) * 1e3,
                     RunChoice(n) * 1e3});
  }
  table.Print();
}

/// E13: the abstract's other ingredient — "through seminaive refinements
/// and suitable storage structures ... low asymptotic complexity".
/// Declarative Prim with and without the seminaive delta discipline.
void PrintSeminaiveAblation() {
  bench::ExperimentTable table(
      "E13: seminaive ablation — declarative Prim with delta-driven "
      "rounds vs naive full re-evaluation (e = 4n)",
      "n", {"seminaive_ms", "naive_ms", "naive_over_seminaive"});
  for (uint32_t n : {100u, 200u, 400u, 800u, 1600u}) {
    GraphGenOptions gopts;
    gopts.seed = 45;
    const Graph g = ConnectedRandomGraph(n, 3 * n, gopts);
    int64_t expected = -1;
    const auto ms = [](bench::RepStats s) {
      return bench::RepStats{s.min * 1e3, s.median * 1e3, s.max * 1e3};
    };
    const bench::RepStats semi = bench::MeasureRepStats([&] {
      auto r = PrimMst(g, 0);
      GDLOG_CHECK(r.ok());
      expected = r->total_cost;
    }, /*reps=*/2);
    EngineOptions naive;
    naive.eval.use_seminaive = false;
    const bench::RepStats naive_r = bench::MeasureRepStats([&] {
      auto r = PrimMst(g, 0, naive);
      GDLOG_CHECK_EQ(r->total_cost, expected);
    }, /*reps=*/1);
    table.AddRow(n, {semi.min * 1e3, naive_r.min * 1e3,
                     naive_r.min / semi.min},
                 {ms(semi), ms(naive_r)});
  }
  table.Print();
}

/// Chain TC with the EDB routed through a durable store (WAL + fsync
/// policy). The durable run pays one WAL append per edge; the fixpoint
/// itself is identical, so the delta against the in-memory run is the
/// durability overhead.
double RunChainTcDurable(uint32_t n, const char* fsync) {
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("gdlog_bench_wal_" + std::to_string(::getpid()));
  const double secs = bench::MeasureSeconds([&] {
    std::filesystem::remove_all(dir);  // each rep starts a fresh database
    EngineOptions opts;
    opts.durability.dir = dir;
    opts.durability.fsync = fsync;
    Engine e(opts);
    GDLOG_CHECK(e.LoadProgram(R"(
      tc(X, Y) <- edge(X, Y).
      tc(X, Z) <- tc(X, Y), edge(Y, Z).
    )").ok());
    for (uint32_t i = 0; i + 1 < n; ++i) {
      GDLOG_CHECK(e.AddFact("edge", {Value::Int(i), Value::Int(i + 1)}).ok());
    }
    GDLOG_CHECK(e.Run().ok());
    GDLOG_CHECK_EQ(e.Query("tc", 2).size(), size_t{n} * (n - 1) / 2);
  }, /*reps=*/2);
  std::filesystem::remove_all(dir);
  return secs;
}

/// E15: WAL-append overhead (docs/DURABILITY.md) — the same chain TC
/// with the EDB in memory, behind a batch-fsync WAL, and behind an
/// fsync-per-append WAL. The batch column is what a durable engine pays
/// by default; it must stay within noise of the in-memory run since the
/// n WAL appends are dwarfed by the O(n^2) derivation.
void PrintDurabilityOverhead() {
  bench::ExperimentTable table(
      "E15: WAL-append overhead — chain TC in memory vs durable EDB "
      "(fsync=batch / fsync=always)",
      "n", {"mem_ms", "wal_batch_ms", "wal_always_ms",
            "wal_batch_over_mem"});
  for (uint32_t n : {250u, 500u, 1000u}) {
    const double mem = RunChainTc(n);
    const double batch = RunChainTcDurable(n, "batch");
    const double always = RunChainTcDurable(n, "always");
    table.AddRow(n, {mem * 1e3, batch * 1e3, always * 1e3, batch / mem});
  }
  table.Print();
}

/// One obs-enabled Prim run recorded into ProcessMetrics(), so the JSON
/// report embeds a representative engine metrics snapshot alongside the
/// timing tables.
void RecordInstrumentedRun() {
  EngineOptions opts;
  opts.obs.enabled = true;
  opts.obs.metrics = &bench::ProcessMetrics();
  GraphGenOptions gopts;
  gopts.seed = 45;
  const Graph g = ConnectedRandomGraph(400, 1200, gopts);
  auto r = PrimMst(g, 0, opts);
  GDLOG_CHECK(r.ok());
  // A direct engine run whose guardrail outcome (termination reason,
  // tracked peak memory) lands in the report's "runs" array.
  Engine e(opts);
  GDLOG_CHECK(e.LoadProgram(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Z) <- tc(X, Y), edge(Y, Z).
  )").ok());
  for (uint32_t i = 0; i + 1 < 400; ++i) {
    GDLOG_CHECK(e.AddFact("edge", {Value::Int(i), Value::Int(i + 1)}).ok());
  }
  GDLOG_CHECK(e.Run().ok());
  const RunOutcome& o = e.outcome();
  bench::RecordRunOutcome("tc_chain_400", TerminationReasonName(o.reason),
                          o.status.ok(), o.guard_checks,
                          o.peak_memory_bytes);
}

void BM_TransitiveClosure(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunChainTc(static_cast<uint32_t>(state.range(0))));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TransitiveClosure)->Arg(250)->Arg(1000)->Arg(2000)
    ->Complexity();

}  // namespace
}  // namespace gdlog

int main(int argc, char** argv) {
  gdlog::bench::InitBenchReport(&argc, argv);
  gdlog::PrintExperimentTable();
  gdlog::PrintSeminaiveAblation();
  gdlog::PrintDurabilityOverhead();
  if (gdlog::bench::JsonReportEnabled()) gdlog::RecordInstrumentedRun();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
