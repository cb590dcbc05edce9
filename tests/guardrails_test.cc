// Execution guardrails: every RunLimits cap, cooperative cancellation,
// graceful OOM, the deterministic fault injector, and the termination
// section of the run report. The common fixture is a runaway program —
// one new tuple per saturation round, effectively unbounded — that only
// a guardrail can stop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "analysis/diagnostics.h"
#include "api/engine.h"
#include "common/guardrails.h"
#include "greedy/graph.h"
#include "greedy/matching.h"
#include "workload/graph_gen.h"

namespace gdlog {
namespace {

constexpr const char* kRunaway = R"(
  c(0).
  c(M) <- c(N), M = N + 1, N < 2000000000.
)";

// One stage per p fact: the paper's declarative sort (Example 5).
constexpr const char* kStaged = R"(
  sp(nil, 0, 0).
  sp(X, C, I) <- next(I), p(X, C), least(C, I).
)";

std::unique_ptr<Engine> MakeRunaway(RunLimits limits,
                                    std::string faults = "") {
  EngineOptions options;
  options.limits = limits;
  options.faults = std::move(faults);
  auto engine = std::make_unique<Engine>(options);
  EXPECT_TRUE(engine->LoadProgram(kRunaway).ok());
  return engine;
}

// ---------------------------------------------------------------------------
// Unit: FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, ParsesSpecAndFiresOnce) {
  auto inj = FaultInjector::Parse("alloc@3,parse");
  ASSERT_TRUE(inj.ok());
  EXPECT_TRUE(inj->ArmedFor(FaultInjector::kAlloc));
  EXPECT_TRUE(inj->ArmedFor(FaultInjector::kParse));
  EXPECT_FALSE(inj->ArmedFor(FaultInjector::kCompile));
  // alloc fires on the 3rd hit, exactly once.
  EXPECT_FALSE(inj->Hit(FaultInjector::kAlloc));
  EXPECT_FALSE(inj->Hit(FaultInjector::kAlloc));
  EXPECT_TRUE(inj->Hit(FaultInjector::kAlloc));
  EXPECT_FALSE(inj->Hit(FaultInjector::kAlloc));
  EXPECT_EQ(inj->hits(FaultInjector::kAlloc), 4u);
  // parse defaults to the first hit.
  EXPECT_TRUE(inj->Hit(FaultInjector::kParse));
}

TEST(FaultInjector, RejectsBadSpecs) {
  EXPECT_FALSE(FaultInjector::Parse("no-such-probe").ok());
  EXPECT_FALSE(FaultInjector::Parse("alloc@0").ok());
  EXPECT_FALSE(FaultInjector::Parse("alloc@x").ok());
  EXPECT_FALSE(FaultInjector::Parse(",").ok());
  EXPECT_FALSE(FaultInjector::Parse("").ok());
}

TEST(FaultInjector, CatalogCoversEveryNamedProbe) {
  const auto& catalog = FaultInjector::ProbeCatalog();
  for (std::string_view probe :
       {FaultInjector::kParse, FaultInjector::kAnalyze, FaultInjector::kCompile,
        FaultInjector::kEvalSaturate, FaultInjector::kEvalGamma,
        FaultInjector::kAlloc, FaultInjector::kDeadline}) {
    EXPECT_NE(std::find(catalog.begin(), catalog.end(), probe), catalog.end())
        << probe;
  }
}

// ---------------------------------------------------------------------------
// Unit: MemoryBudget
// ---------------------------------------------------------------------------

TEST(MemoryBudget, TracksChargesAndPeak) {
  MemoryBudget budget;
  size_t a = 0, b = 0;
  budget.Update(&a, 1000);
  budget.Update(&b, 500);
  EXPECT_EQ(budget.used(), 1500u);
  EXPECT_EQ(budget.peak(), 1500u);
  budget.Update(&a, 200);  // shrink
  EXPECT_EQ(budget.used(), 700u);
  EXPECT_EQ(budget.peak(), 1500u);
  EXPECT_EQ(a, 200u);
  budget.Update(&a, 0);
  budget.Update(&b, 0);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudget, AllocProbeThrowsBadAllocOnGrowth) {
  auto inj = FaultInjector::Parse("alloc@2");
  ASSERT_TRUE(inj.ok());
  MemoryBudget budget;
  budget.set_fault_injector(&*inj);
  size_t charged = 0;
  budget.Update(&charged, 100);                       // hit 1
  EXPECT_THROW(budget.Update(&charged, 200), std::bad_alloc);  // hit 2
  budget.Update(&charged, 50);  // shrink never hits the probe
}

// ---------------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------------

TEST(Guardrails, DeadlineStopsRunawayRun) {
  RunLimits limits;
  limits.deadline_ms = 100;
  auto engine = MakeRunaway(limits);
  const Status st = engine->Run();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kDeadlineExceeded);
  EXPECT_EQ(engine->outcome().reason, TerminationReason::kDeadline);
  // The partial state is queryable.
  EXPECT_TRUE(engine->has_run());
  EXPECT_GT(engine->Query("c", 1).size(), 0u);
}

TEST(Guardrails, TupleLimitStopsRunawayRun) {
  RunLimits limits;
  limits.max_tuples = 1000;
  auto engine = MakeRunaway(limits);
  const Status st = engine->Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kTupleLimit);
  EXPECT_EQ(engine->outcome().reason, TerminationReason::kTupleLimit);
  // Checks happen at round boundaries, so the cap may overshoot by at
  // most one round's production — here one tuple per round.
  const size_t n = engine->Query("c", 1).size();
  EXPECT_GE(n, 1000u);
  EXPECT_LE(n, 1100u);
}

TEST(Guardrails, IterationLimitStopsRunawayRun) {
  RunLimits limits;
  limits.max_iterations = 10;
  auto engine = MakeRunaway(limits);
  const Status st = engine->Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kIterationLimit);
  EXPECT_EQ(engine->outcome().reason, TerminationReason::kIterationLimit);
  EXPECT_LE(engine->stats()->saturation_rounds, 11u);
}

TEST(Guardrails, MemoryBudgetStopsRunawayRun) {
  RunLimits limits;
  limits.max_memory_bytes = 1 << 20;
  auto engine = MakeRunaway(limits);
  const Status st = engine->Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kMemoryLimit);
  EXPECT_EQ(engine->outcome().reason, TerminationReason::kMemoryLimit);
  EXPECT_GE(engine->outcome().peak_memory_bytes, 1u << 20);
  EXPECT_GT(engine->Query("c", 1).size(), 0u);
}

TEST(Guardrails, MemoryBudgetSeesTheCandidateQueue) {
  // Example 7 matching over AddFact'ed arcs: every arc becomes a live
  // candidate at round 0. The (R,Q,L) queue and FD memo are charged to
  // the run's MemoryBudget, so a cap the EDB fits under but the queue
  // does not stops the run with GD204 — and the partial state answers.
  const Graph graph = BipartiteGraph(2000, 2000, 20000);
  auto load = [&graph](Engine* engine) {
    ASSERT_TRUE(engine->LoadProgram(kMatchingProgram).ok());
    GraphLoadOptions arcs;
    arcs.both_directions = false;
    ASSERT_TRUE(LoadGraphEdges(engine, graph, arcs).ok());
  };
  Engine probe;
  load(&probe);
  const size_t edb_bytes = probe.tracked_memory_bytes();
  // A queue entry costs at least a 32-byte heap entry plus its snapshot
  // and class row; half of that per arc stays below the queue's charge.
  const size_t queue_floor = graph.edges.size() * 48;

  EngineOptions options;
  options.limits.max_memory_bytes = edb_bytes + queue_floor;
  Engine engine(options);
  load(&engine);
  EXPECT_EQ(engine.tracked_memory_bytes(), edb_bytes);
  const Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kMemoryLimit);
  EXPECT_EQ(engine.outcome().reason, TerminationReason::kMemoryLimit);
  EXPECT_GE(engine.outcome().peak_memory_bytes, edb_bytes + queue_floor);
  // The stop came before the greedy loop ran to its end.
  ASSERT_NE(engine.stats(), nullptr);
  EXPECT_LT(engine.stats()->gamma_firings, graph.edges.size() / 10);
  EXPECT_GE(engine.Query("matching", 4).size(), 1u);  // the seed at least
  EXPECT_EQ(engine.Query("g", 3).size(), graph.edges.size());
}

TEST(Guardrails, AllocFaultsInTheGammaPathAreGracefulOom) {
  // The queue, the FD memo and the extremum filter charge their growth to
  // the MemoryBudget, so an injected allocation failure can fire inside a
  // candidate push or an FD commit. Sweep the trigger over every growth
  // event of a matching load and run: each stop is a graceful OOM that
  // leaves the engine queryable.
  const Graph graph = BipartiteGraph(40, 40, 300);
  GraphLoadOptions arcs;
  arcs.both_directions = false;
  uint64_t load_hits = 0, total_hits = 0;
  {
    EngineOptions options;
    options.faults = "alloc@1000000";  // armed, never reached: counts hits
    Engine engine(options);
    ASSERT_TRUE(engine.LoadProgram(kMatchingProgram).ok());
    ASSERT_TRUE(LoadGraphEdges(&engine, graph, arcs).ok());
    load_hits = engine.fault_injector()->hits(FaultInjector::kAlloc);
    ASSERT_TRUE(engine.Run().ok());
    total_hits = engine.fault_injector()->hits(FaultInjector::kAlloc);
  }
  ASSERT_GT(total_hits, load_hits);
  uint64_t queryable_stops = 0;
  for (uint64_t k = load_hits + 1; k <= total_hits; ++k) {
    EngineOptions options;
    options.faults = "alloc@" + std::to_string(k);
    Engine engine(options);
    ASSERT_TRUE(engine.LoadProgram(kMatchingProgram).ok());
    ASSERT_TRUE(LoadGraphEdges(&engine, graph, arcs).ok());
    const Status st = engine.Run();
    EXPECT_EQ(st.code(), StatusCode::kOutOfMemory) << "alloc@" << k;
    // A failure while compiling (before the fixpoint driver exists)
    // leaves no run behind; one during evaluation keeps it queryable.
    if (!engine.has_run()) continue;
    ++queryable_stops;
    EXPECT_EQ(engine.Query("g", 3).size(), graph.edges.size())
        << "alloc@" << k;
    EXPECT_GE(engine.Query("matching", 4).size(), 1u) << "alloc@" << k;
    EXPECT_TRUE(engine.RunReport().ok()) << "alloc@" << k;
  }
  EXPECT_GT(queryable_stops, 0u);
}

TEST(Guardrails, AllocFaultInsideARuleBatchCountsTheRowsItAdded) {
  // Each seminaive round inserts a rule's buffered heads one after the
  // other, and any of those inserts may grow a capacity and trip the
  // alloc probe. Sweep the trigger over every growth of a transitive
  // closure run, with and without provenance: the OOM event's tuple
  // count must cover every tc row the stopped run added, save the one
  // whose own insert tripped the probe (it is stored, but its Insert
  // never returns to be counted).
  constexpr const char* kTc = R"(
    tc(X, Y) <- e(X, Y).
    tc(X, Z) <- tc(X, Y), e(Y, Z).
  )";
  for (const bool provenance : {false, true}) {
    auto make = [&](const std::string& faults) {
      EngineOptions options;
      options.faults = faults;
      options.provenance = provenance;
      auto engine = std::make_unique<Engine>(options);
      EXPECT_TRUE(engine->LoadProgram(kTc).ok());
      for (int64_t i = 0; i < 60; ++i) {
        EXPECT_TRUE(
            engine->AddFact("e", {engine->Int(i), engine->Int(i + 1)}).ok());
        EXPECT_TRUE(
            engine->AddFact("e", {engine->Int(i), engine->Int(i + 3)}).ok());
      }
      return engine;
    };
    uint64_t load_hits = 0, total_hits = 0;
    {
      auto engine = make("alloc@1000000");  // armed, never reached
      load_hits = engine->fault_injector()->hits(FaultInjector::kAlloc);
      ASSERT_TRUE(engine->Run().ok());
      total_hits = engine->fault_injector()->hits(FaultInjector::kAlloc);
    }
    ASSERT_GT(total_hits, load_hits);
    uint64_t stops_with_rows = 0;
    for (uint64_t k = load_hits + 1; k <= total_hits; ++k) {
      auto engine = make("alloc@" + std::to_string(k));
      EXPECT_EQ(engine->Run().code(), StatusCode::kOutOfMemory)
          << "alloc@" << k;
      if (!engine->has_run()) continue;
      ASSERT_NE(engine->flight_recorder(), nullptr);
      const auto events = engine->flight_recorder()->Snapshot();
      const auto oom = std::find_if(
          events.rbegin(), events.rend(), [](const FlightRecorder::Event& e) {
            return e.kind == FlightEventKind::kOom;
          });
      ASSERT_NE(oom, events.rend()) << "alloc@" << k;
      const size_t rows = engine->Query("tc", 2).size();
      EXPECT_LE(oom->run.tuples, rows);
      EXPECT_GE(oom->run.tuples + 1, rows)
          << "alloc@" << k << " provenance=" << provenance;
      if (rows > 0) ++stops_with_rows;
    }
    EXPECT_GT(stops_with_rows, 10u);
  }
}

TEST(Guardrails, StageLimitStopsStagedProgram) {
  RunLimits limits;
  limits.max_stages = 5;
  EngineOptions options;
  options.limits = limits;
  Engine engine(options);
  ASSERT_TRUE(engine.LoadProgram(kStaged).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        engine.AddFact("p", {engine.Sym("e" + std::to_string(i)),
                             engine.Int(i)}).ok());
  }
  const Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kStageLimit);
  EXPECT_EQ(engine.outcome().reason, TerminationReason::kStageLimit);
  // Stages checked at gamma boundaries: at most one extra firing.
  EXPECT_LE(engine.stats()->stages_assigned, 6u);
}

TEST(Guardrails, UnlimitedRunStillCompletes) {
  // Sanity: guardrail plumbing must not perturb a normal bounded program.
  EngineOptions options;
  options.limits.deadline_ms = 60000;
  options.limits.max_tuples = 1000000;
  Engine engine(options);
  ASSERT_TRUE(engine.LoadProgram("c(0). c(M) <- c(N), M = N + 1, N < 50.")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.outcome().reason, TerminationReason::kCompleted);
  EXPECT_EQ(engine.Query("c", 1).size(), 51u);
  EXPECT_GT(engine.outcome().guard_checks, 0u);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Guardrails, CancelFromSecondThreadStopsRun) {
  auto engine = MakeRunaway(RunLimits{});
  std::thread canceller([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine->RequestCancel();
  });
  const Status st = engine->Run();
  canceller.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kRunCancelled);
  EXPECT_EQ(engine->outcome().reason, TerminationReason::kCancelled);
  EXPECT_TRUE(engine->has_run());
  EXPECT_GT(engine->Query("c", 1).size(), 0u);
}

// ---------------------------------------------------------------------------
// OOM and fault injection
// ---------------------------------------------------------------------------

TEST(Guardrails, InjectedAllocFailureIsGracefulOom) {
  // The alloc probe counts *growth events* (capacity changes), which are
  // logarithmic in data size — keep the trigger small so it fires early.
  // The deadline is only a hang backstop and must stay far above the
  // probe's trigger time even under TSan's ~30x slowdown.
  RunLimits backstop;
  backstop.deadline_ms = 180000;
  auto engine = MakeRunaway(backstop, "alloc@30");
  const Status st = engine->Run();
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kOutOfMemory);
  EXPECT_EQ(engine->outcome().reason, TerminationReason::kOom);
  // Graceful: the partial state survived the unwound allocation.
  EXPECT_TRUE(engine->has_run());
  (void)engine->Query("c", 1);
  EXPECT_TRUE(engine->RunReport().ok());
}

TEST(Guardrails, MalformedFaultSpecFailsLoad) {
  EngineOptions options;
  options.faults = "bogus-probe";
  Engine engine(options);
  const Status st = engine.LoadProgram(kRunaway);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(Guardrails, FaultSweepNeverCrashesTheEngine) {
  // Chaos sweep: arm every probe in the catalog, one engine each, over a
  // small valid program. Each run must end in a Status — never a crash —
  // and the engine object must stay destructible/usable.
  for (std::string_view probe : FaultInjector::ProbeCatalog()) {
    EngineOptions options;
    options.faults = std::string(probe);
    options.limits.deadline_ms = 10000;  // backstop, not the subject
    Engine engine(options);
    const Status load =
        engine.LoadProgram("c(0). c(M) <- c(N), M = N + 1, N < 100.");
    if (!load.ok()) {
      // parse/analyze probes fail the load with GD207; the alloc probe
      // can fire during parse-time interning, which is a graceful OOM.
      if (probe == FaultInjector::kAlloc) {
        EXPECT_EQ(load.code(), StatusCode::kOutOfMemory) << probe;
      } else {
        EXPECT_EQ(DiagCodeOfStatus(load), diag::kInjectedFault) << probe;
      }
      continue;
    }
    const Status run = engine.Run();
    const bool durability_probe =
        probe == FaultInjector::kWalAppend ||
        probe == FaultInjector::kWalFsync ||
        probe == FaultInjector::kCheckpointWrite ||
        probe == FaultInjector::kRecoveryReplay;
    if (durability_probe) {
      // Inert on an in-memory engine — the durable paths never execute.
      // durability_test.cc sweeps their failure modes; here an armed
      // probe must simply not perturb a normal run.
      EXPECT_TRUE(run.ok()) << probe;
    } else if (probe == FaultInjector::kAlloc) {
      EXPECT_EQ(run.code(), StatusCode::kOutOfMemory) << probe;
    } else if (probe == FaultInjector::kDeadline) {
      EXPECT_EQ(run.code(), StatusCode::kDeadlineExceeded) << probe;
    } else {
      EXPECT_FALSE(run.ok()) << probe;
      EXPECT_EQ(DiagCodeOfStatus(run), diag::kInjectedFault) << probe;
    }
    if (engine.has_run()) {
      (void)engine.Query("c", 1);
      EXPECT_TRUE(engine.RunReport().ok()) << probe;
    }
  }
}

TEST(Guardrails, EnvVarArmsInjector) {
  setenv("GDLOG_FAULTS", "parse", 1);
  Engine engine;
  const Status st = engine.LoadProgram("c(0).");
  unsetenv("GDLOG_FAULTS");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kInjectedFault);
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

TEST(Guardrails, RunReportCarriesTerminationSection) {
  RunLimits limits;
  limits.max_tuples = 100;
  auto engine = MakeRunaway(limits);
  EXPECT_FALSE(engine->Run().ok());
  auto report = engine->RunReport();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("\"termination\""), std::string::npos);
  EXPECT_NE(report->find("\"reason\":\"tuple-limit\""), std::string::npos)
      << *report;
  EXPECT_NE(report->find("[GD201]"), std::string::npos);
  EXPECT_NE(report->find("\"peak_memory_bytes\""), std::string::npos);
  EXPECT_NE(report->find("\"max_tuples\":100"), std::string::npos);
}

TEST(Guardrails, CompletedRunReportsCompleted) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("c(0). c(M) <- c(N), M = N + 1, N < 10.")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  auto report = engine.RunReport();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("\"reason\":\"completed\""), std::string::npos);
  // Memory tracking is always on; a completed run still reports a peak.
  EXPECT_GT(engine.outcome().peak_memory_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Converted abort paths (satellite: no user-reachable LOG(FATAL)/CHECK)
// ---------------------------------------------------------------------------

TEST(Guardrails, ArithmeticOverflowFailsTheMatchNotTheProcess) {
  Engine engine;
  // kMaxInt squared overflows both int64 and the 61-bit payload; the
  // body term must simply not match.
  ASSERT_TRUE(engine
                  .LoadProgram("big(1152921504606846975)."
                               "r(X) <- big(A), X = A * A."
                               "s(X) <- big(A), X = A + 1.")
                  .ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.Query("r", 1).size(), 0u);
  EXPECT_EQ(engine.Query("s", 1).size(), 0u);
}

TEST(Guardrails, HugeIntegerLiteralIsAParseError) {
  Engine engine;
  // In int64 range but outside Value's 61-bit inline-int payload.
  const Status st = engine.LoadProgram("c(4611686018427387904).");
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kIntLiteralRange);
  // The boundary literal still parses.
  Engine ok_engine;
  EXPECT_TRUE(ok_engine.LoadProgram("c(1152921504606846975).").ok());
}

TEST(Guardrails, TerminationReasonNamesAreStable) {
  EXPECT_EQ(TerminationReasonName(TerminationReason::kCompleted), "completed");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kDeadline), "deadline");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kTupleLimit),
            "tuple-limit");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kStageLimit),
            "stage-limit");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kIterationLimit),
            "iteration-limit");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kMemoryLimit),
            "memory-limit");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kCancelled), "cancelled");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kOom), "oom");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kFault), "fault");
}

}  // namespace
}  // namespace gdlog
