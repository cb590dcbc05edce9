// Flight-recorder chaos sweep: every bounded-stop path (GD200 deadline,
// GD201 tuple limit, GD202 stage limit, GD203 iteration limit, GD204
// memory limit, GD205 cancel, GD206 OOM, GD207 injected fault) must
// leave a dumpable black box holding the guard trip and the termination
// event — and dumping must never crash, including concurrently with the
// signal-path cancel that SIGINT takes in the shell. A completed run
// records one event per fixpoint step.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "api/engine.h"
#include "common/guardrails.h"

namespace gdlog {
namespace {

constexpr const char* kRunaway = R"(
  c(0).
  c(M) <- c(N), M = N + 1, N < 2000000000.
)";

// One stage per p fact (declarative sort) — the only fixture that can
// trip the stage limit.
constexpr const char* kStaged = R"(
  sp(nil, 0, 0).
  sp(X, C, I) <- next(I), p(X, C), least(C, I).
)";

/// Asserts the post-stop black box invariant: a dump that renders, the
/// trip (or OOM) marker, and a final termination event carrying the
/// reason the outcome reports.
void ExpectBlackBox(const Engine& engine, TerminationReason reason) {
  ASSERT_EQ(engine.outcome().reason, reason);
  const FlightRecorder* rec = engine.flight_recorder();
  ASSERT_NE(rec, nullptr);
  const auto events = rec->Snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_stop_marker = false;
  const FlightRecorder::Event* termination = nullptr;
  for (const auto& ev : events) {
    if (ev.kind == FlightEventKind::kGuardTrip ||
        ev.kind == FlightEventKind::kOom ||
        ev.kind == FlightEventKind::kCancelRequested) {
      saw_stop_marker = true;
    }
    if (ev.kind == FlightEventKind::kTermination) termination = &ev;
  }
  EXPECT_TRUE(saw_stop_marker);
  ASSERT_NE(termination, nullptr);
  EXPECT_EQ(termination->a0, static_cast<int64_t>(reason));
  EXPECT_EQ(termination->a1, 0);  // a bounded stop is a non-OK status
  const std::string dump = engine.DumpFlightRecorder();
  EXPECT_NE(dump.find("termination"), std::string::npos) << dump;
}

std::unique_ptr<Engine> StoppedRunaway(RunLimits limits,
                                       std::string faults = "") {
  EngineOptions options;
  options.limits = limits;
  options.faults = std::move(faults);
  // Keep the auto-dump quiet in test logs; DumpFlightRecorder still works.
  options.obs.recorder_dump_on_stop = false;
  auto engine = std::make_unique<Engine>(options);
  EXPECT_TRUE(engine->LoadProgram(kRunaway).ok());
  EXPECT_FALSE(engine->Run().ok());
  return engine;
}

TEST(FlightRecorderChaos, DeadlineStopLeavesBlackBox) {  // GD200
  RunLimits limits;
  limits.deadline_ms = 50;
  ExpectBlackBox(*StoppedRunaway(limits), TerminationReason::kDeadline);
}

TEST(FlightRecorderChaos, TupleLimitStopLeavesBlackBox) {  // GD201
  RunLimits limits;
  limits.max_tuples = 500;
  ExpectBlackBox(*StoppedRunaway(limits), TerminationReason::kTupleLimit);
}

TEST(FlightRecorderChaos, StageLimitStopLeavesBlackBox) {  // GD202
  RunLimits limits;
  limits.max_stages = 3;
  EngineOptions options;
  options.limits = limits;
  options.obs.recorder_dump_on_stop = false;
  Engine engine(options);
  ASSERT_TRUE(engine.LoadProgram(kStaged).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.AddFact("p", {engine.Sym("e" + std::to_string(i)),
                                     engine.Int(i)})
                    .ok());
  }
  ASSERT_FALSE(engine.Run().ok());
  ExpectBlackBox(engine, TerminationReason::kStageLimit);
}

TEST(FlightRecorderChaos, IterationLimitStopLeavesBlackBox) {  // GD203
  RunLimits limits;
  limits.max_iterations = 10;
  ExpectBlackBox(*StoppedRunaway(limits),
                 TerminationReason::kIterationLimit);
}

TEST(FlightRecorderChaos, MemoryLimitStopLeavesBlackBox) {  // GD204
  RunLimits limits;
  limits.max_memory_bytes = 1 << 20;
  ExpectBlackBox(*StoppedRunaway(limits), TerminationReason::kMemoryLimit);
}

TEST(FlightRecorderChaos, SignalPathCancelLeavesBlackBox) {  // GD205
  // RequestCancel is exactly what the shell's SIGINT handler calls; the
  // recorder event it emits must survive to the post-stop dump.
  EngineOptions options;
  options.obs.recorder_dump_on_stop = false;
  Engine engine(options);
  ASSERT_TRUE(engine.LoadProgram(kRunaway).ok());
  std::thread canceller([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    engine.RequestCancel();
  });
  ASSERT_FALSE(engine.Run().ok());
  canceller.join();
  ExpectBlackBox(engine, TerminationReason::kCancelled);
  bool saw_cancel_event = false;
  for (const auto& ev : engine.flight_recorder()->Snapshot()) {
    if (ev.kind == FlightEventKind::kCancelRequested) {
      saw_cancel_event = true;
    }
  }
  EXPECT_TRUE(saw_cancel_event);
}

TEST(FlightRecorderChaos, GracefulOomLeavesBlackBox) {  // GD206
  RunLimits backstop;
  backstop.deadline_ms = 180000;  // hang backstop only (TSan headroom)
  ExpectBlackBox(*StoppedRunaway(backstop, "alloc@30"),
                 TerminationReason::kOom);
}

TEST(FlightRecorderChaos, InjectedFaultStopLeavesBlackBox) {  // GD207
  RunLimits backstop;
  backstop.deadline_ms = 180000;
  ExpectBlackBox(*StoppedRunaway(backstop, "eval.saturate"),
                 TerminationReason::kFault);
}

TEST(FlightRecorderChaos, DumpingWhileCancellingNeverCrashes) {
  // The dump path must be callable at any moment — here hammered from a
  // second thread while the run is being cancelled mid-flight, the worst
  // interleaving the SIGINT handler can produce.
  EngineOptions options;
  options.obs.recorder_dump_on_stop = false;
  options.obs.recorder_capacity = 32;  // force constant lapping
  Engine engine(options);
  ASSERT_TRUE(engine.LoadProgram(kRunaway).ok());
  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string dump = engine.DumpFlightRecorder();
      ASSERT_FALSE(dump.empty());
    }
  });
  std::thread canceller([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.RequestCancel();
  });
  ASSERT_FALSE(engine.Run().ok());
  canceller.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();
  ExpectBlackBox(engine, TerminationReason::kCancelled);
}

TEST(FlightRecorderChaos, CompletedRunRecordsOkTermination) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) <- q(X). q(1).").ok());
  ASSERT_TRUE(engine.Run().ok());
  const auto events = engine.flight_recorder()->Snapshot();
  ASSERT_FALSE(events.empty());
  const auto& last = events.back();
  EXPECT_EQ(last.kind, FlightEventKind::kTermination);
  EXPECT_EQ(last.a0,
            static_cast<int64_t>(TerminationReason::kCompleted));
  EXPECT_EQ(last.a1, 1);
}

TEST(FlightRecorderChaos, ShippedProgramsRecordOneEventPerStep) {
  // Every shipped program, on a ring large enough to keep everything:
  // one run-start, one round per saturation round, one stage per stage
  // assigned, one termination — each stamped with the run's counters,
  // whose insert count is the rules' derived tuples.
  int programs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(GDLOG_SOURCE_DIR) + "/programs")) {
    if (entry.path().extension() != ".dl") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ++programs;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    EngineOptions options;
    options.obs.recorder_capacity = 1u << 16;
    Engine engine(options);
    ASSERT_TRUE(engine.LoadProgram(text.str()).ok());
    ASSERT_TRUE(engine.Run().ok());
    const FixpointStats& stats = *engine.stats();
    const FlightRecorder& rec = *engine.flight_recorder();
    ASSERT_LE(rec.recorded(), rec.capacity());
    std::map<FlightEventKind, uint64_t> count;
    uint64_t rounds_seen = 0;
    for (const auto& ev : rec.Snapshot()) {
      ++count[ev.kind];
      if (ev.kind == FlightEventKind::kRound) {
        EXPECT_EQ(ev.run.round, ++rounds_seen);
      }
    }
    EXPECT_EQ(count[FlightEventKind::kRunStart], 1u);
    EXPECT_EQ(count[FlightEventKind::kRound], stats.saturation_rounds);
    EXPECT_EQ(count[FlightEventKind::kStage], stats.stages_assigned);
    EXPECT_EQ(count[FlightEventKind::kTermination], 1u);
    const FlightRecorder::Event last = rec.Snapshot().back();
    ASSERT_EQ(last.kind, FlightEventKind::kTermination);
    EXPECT_EQ(last.run.round, stats.saturation_rounds);
    EXPECT_EQ(last.run.gamma_firings, stats.gamma_firings);
    EXPECT_EQ(last.run.stages, stats.stages_assigned);
    EXPECT_EQ(last.run.tuples, stats.exec.inserts);
    // Each new head row is counted once, γ firings included.
    uint64_t rule_tuples = 0;
    for (const RuleProfile& p : *engine.RuleProfiles()) {
      rule_tuples += p.tuples;
    }
    EXPECT_EQ(stats.exec.inserts, rule_tuples);
  }
  EXPECT_GE(programs, 5);
}

}  // namespace
}  // namespace gdlog
