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
#include <unordered_set>

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

/// Eval-phase seconds (median over `reps` fresh engines) of `program`
/// under one evaluation backend. Parse/load are untimed: E16 isolates
/// the rule-match hot loop that the bytecode VM replaces (docs/VM.md);
/// the fixpoint outputs are cross-checked against `expect` tuples.
double MedianEvalSeconds(EvalBackend backend, const char* program,
                         const std::function<void(Engine&)>& add_facts,
                         const char* head, uint32_t head_arity,
                         size_t* expect, int reps = 7) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    EngineOptions opts;
    opts.eval.backend = backend;
    Engine e(opts);
    GDLOG_CHECK(e.LoadProgram(program).ok());
    add_facts(e);
    GDLOG_CHECK(e.Run().ok());
    const size_t got = e.Query(head, head_arity).size();
    if (*expect == SIZE_MAX) {
      *expect = got;  // first run of the pair records the oracle count
    } else {
      GDLOG_CHECK_EQ(got, *expect);  // backends must agree
    }
    secs.push_back(static_cast<double>(e.phase_times().eval_ns) * 1e-9);
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

/// E16 workload 1 — the E9 Horn-join substrate: oriented triangle
/// enumeration (e = 20n random edges), probe-bound like the TC delta
/// join, with the order filters the VM fuses into the scan loops.
constexpr char kTriangleProgram[] = R"(
  tri(X, Y, Z) <- e(X, Y), X < Y, e(Y, Z), Y < Z, e(Z, X).
)";

void AddTriangleFacts(Engine& e, uint32_t n) {
  Rng rng(7);
  const uint32_t target = 20 * n;
  std::unordered_set<uint64_t> seen;
  while (seen.size() < target) {
    const uint32_t a = rng.NextBounded(n);
    const uint32_t b = rng.NextBounded(n);
    if (a == b || !seen.insert((uint64_t{a} << 32) | b).second) continue;
    GDLOG_CHECK(e.AddFact("e", {Value::Int(a), Value::Int(b)}).ok());
  }
}

/// E16 workload 2 — the E13 Prim substrate: one frontier-expansion
/// round (candidate = cheap edge out of the tree), scan/filter-bound
/// with a fused cost filter and a negated membership probe.
constexpr char kCandidateProgram[] = R"(
  cand(X, Y, C) <- frontier(X), e(X, Y, C), C < 200, not tree(Y).
)";

void AddCandidateFacts(Engine& e, uint32_t n) {
  Rng rng(11);
  for (uint32_t x = 0; x < n; ++x) {
    GDLOG_CHECK(e.AddFact("frontier", {Value::Int(x)}).ok());
    if (x % 2 == 0) {
      GDLOG_CHECK(e.AddFact("tree", {Value::Int(x)}).ok());
    }
  }
  for (uint32_t x = 0; x < n; ++x) {
    for (uint32_t d = 0; d < 64; ++d) {
      GDLOG_CHECK(e.AddFact("e", {Value::Int(x), Value::Int(rng.NextBounded(n)),
                                  Value::Int(rng.NextBounded(1000))}).ok());
    }
  }
}

/// E16: backend ablation — the rule-match hot loops of E9 (Horn join)
/// and E13 (Prim candidate selection) under the interpreter vs the
/// bytecode VM (docs/VM.md). Inserts and storage are shared between
/// backends, so the loop-heavy shapes isolate what the VM changes; the
/// speedup columns are ratios and never gate (tools/bench_compare.py).
/// Sizes keep the probe working set cache-resident: past that, both
/// backends hit the same memory-latency floor and the ablation measures
/// the cache, not the loop.
void PrintBackendAblation() {
  bench::ExperimentTable table(
      "E16: backend ablation — interpreter vs bytecode VM on the E9/E13 "
      "rule-match hot loops (oriented-triangle join at n=200·s, Prim "
      "candidate filter at n=1000·s; eval phase only)",
      "s",
      {"tri_interp_ms", "tri_vm_ms", "tri_interp_over_vm",
       "cand_interp_ms", "cand_vm_ms", "cand_interp_over_vm"});
  for (uint32_t s : {1u, 2u, 4u}) {
    const uint32_t tri_n = 200 * s;
    size_t tri_expect = SIZE_MAX;
    const auto tri_facts = [tri_n](Engine& e) { AddTriangleFacts(e, tri_n); };
    const double ti = MedianEvalSeconds(EvalBackend::kInterp, kTriangleProgram,
                                        tri_facts, "tri", 3, &tri_expect);
    const double tv = MedianEvalSeconds(EvalBackend::kVm, kTriangleProgram,
                                        tri_facts, "tri", 3, &tri_expect);
    const uint32_t cand_n = 1000 * s;
    size_t cand_expect = SIZE_MAX;
    const auto cand_facts = [cand_n](Engine& e) {
      AddCandidateFacts(e, cand_n);
    };
    const double ci = MedianEvalSeconds(EvalBackend::kInterp,
                                        kCandidateProgram, cand_facts, "cand",
                                        3, &cand_expect);
    const double cv = MedianEvalSeconds(EvalBackend::kVm, kCandidateProgram,
                                        cand_facts, "cand", 3, &cand_expect);
    table.AddRow(s, {ti * 1e3, tv * 1e3, ti / tv, ci * 1e3, cv * 1e3,
                     ci / cv});
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
  gdlog::PrintBackendAblation();
  gdlog::PrintDurabilityOverhead();
  if (gdlog::bench::JsonReportEnabled()) gdlog::RecordInstrumentedRun();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
