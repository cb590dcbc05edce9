// Always-on observability must stay cheap: this test times bench
// kernels with default observability (metrics + flight recorder on)
// against a fully-off build of the same engine, and asserts the median
// overhead stays under 5%. The kernels are the E7 choice-assignment
// workload (flat choice, no stage loop) and two stage loops, where the
// per-firing path is what observability must stay off: Example 5 sort
// (next + least, no flat rule) and Example 4 Prim (one flat rule fed by
// every firing). A third E7 arm adds provenance + choice audit, which is
// opt-in and allowed its own documented budget (60%, see
// docs/OBSERVABILITY.md) — it annotates every insert and audits every
// gamma firing — while leaving the provenance-off path at the always-on
// bound.
//
// Methodology: interleaved repetitions across all arms (so clock drift
// and thermal state hit the arms equally) with one warmup per arm,
// compared by median — the statistic bench_compare.py enforces in CI. A
// small absolute epsilon keeps the ratio meaningful if the machine is
// fast enough to push medians toward the timer floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "api/engine.h"
#include "greedy/graph.h"
#include "greedy/prim.h"
#include "greedy/sort.h"
#include "workload/graph_gen.h"
#include "workload/relation_gen.h"

namespace gdlog {
namespace {

constexpr uint32_t kStudents = 1200;
constexpr int kEnrolmentsPer = 4;
constexpr int kReps = 5;

enum class Arm {
  kObsOff,   // metrics + recorder disabled
  kObsOn,    // default always-on observability, provenance off
  kProvOn,   // observability + provenance + choice audit
  kServe,    // obs on + HTTP endpoint enabled but never scraped
};

/// Example 1 at scale: n students x n courses, bi-injective assignment.
double RunKernelSeconds(Arm arm) {
  EngineOptions opts;
  if (arm == Arm::kObsOff) {
    opts.obs.metrics_enabled = false;
    opts.obs.recorder_enabled = false;
  }
  if (arm == Arm::kProvOn) opts.provenance = true;
  if (arm == Arm::kServe) {
    opts.obs_http.enabled = true;
    opts.obs_http.port = 0;
  }
  Engine e(opts);
  EXPECT_TRUE(e.LoadProgram(R"(
    a_st(St, Crs) <- takes(St, Crs), choice(Crs, St), choice(St, Crs).
  )").ok());
  // Deterministic enrolments (xorshift), identical across arms and reps.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (uint32_t st = 0; st < kStudents; ++st) {
    for (int k = 0; k < kEnrolmentsPer; ++k) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      const auto crs = static_cast<int64_t>(state % kStudents);
      EXPECT_TRUE(
          e.AddFact("takes", {Value::Int(st), Value::Int(crs)}).ok());
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(e.Run().ok());
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_GT(e.Query("a_st", 2).size(), 0u);
  return std::chrono::duration<double>(t1 - t0).count();
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// The stage-loop arms: default observability vs fully off, interleaved.
// Their runs take 50-100 ms, so a shared host's load bursts span several
// runs: many reps, alternating which arm runs first, keep the medians
// level.
constexpr int kStageReps = 21;

EngineOptions StageArmOptions(bool obs_on) {
  EngineOptions opts;
  opts.obs.metrics_enabled = obs_on;
  opts.obs.recorder_enabled = obs_on;
  return opts;
}

double TimedRunSeconds(Engine* e) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(e->Run().ok());
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Example 5 over 64k seeded random costs: 64k firings of one pop each,
/// with no flat rule between them.
double RunSortSeconds(bool obs_on) {
  Engine e(StageArmOptions(obs_on));
  EXPECT_TRUE(e.LoadProgram(kSortProgram).ok());
  RelationGenOptions gen;
  gen.seed = 11;
  for (const auto& [id, cost] : RandomCostedRelation(1u << 16, gen)) {
    EXPECT_TRUE(e.AddFact("p", {Value::Int(id), Value::Int(cost)}).ok());
  }
  const double s = TimedRunSeconds(&e);
  EXPECT_EQ(e.stats()->gamma_firings, 1u << 16);
  return s;
}

/// Example 4 on a connected random graph of 16k nodes: 16k stages, each
/// a firing plus a sweep of the new_g rule it feeds.
double RunPrimSeconds(bool obs_on) {
  static const Graph graph = [] {
    GraphGenOptions gen;
    gen.seed = 11;
    return ConnectedRandomGraph(16000, 16000, gen);
  }();
  Engine e(StageArmOptions(obs_on));
  EXPECT_TRUE(e.LoadProgram(kPrimProgramRules).ok());
  GraphLoadOptions load;
  load.exclude_target = 0;
  EXPECT_TRUE(LoadGraphEdges(&e, graph, load).ok());
  EXPECT_TRUE(e.AddFact("prm", {Value::Nil(), Value::Int(0), Value::Int(0),
                                Value::Int(0)})
                  .ok());
  const double s = TimedRunSeconds(&e);
  EXPECT_EQ(e.stats()->gamma_firings, 15999u);
  return s;
}

/// Medians of kStageReps interleaved runs per arm, after one warmup each.
void ExpectStageLoopUnderFivePercent(double (*run)(bool), const char* arm) {
  (void)run(true);
  (void)run(false);
  std::vector<double> on, off;
  for (int i = 0; i < kStageReps; ++i) {
    if (i % 2 == 0) {
      on.push_back(run(true));
      off.push_back(run(false));
    } else {
      off.push_back(run(false));
      on.push_back(run(true));
    }
  }
  const double median_on = Median(on);
  const double median_off = Median(off);
  EXPECT_LE(median_on, median_off * 1.05 + 0.003)
      << arm << ": obs-on median " << median_on * 1e3
      << " ms vs obs-off median " << median_off * 1e3 << " ms";
}

TEST(ObsOverhead, AlwaysOnObservabilityStaysUnderFivePercent) {
  // Warmup every arm (allocator, page cache, branch predictors).
  (void)RunKernelSeconds(Arm::kObsOn);
  (void)RunKernelSeconds(Arm::kObsOff);
  (void)RunKernelSeconds(Arm::kProvOn);
  std::vector<double> on, off, prov;
  for (int i = 0; i < kReps; ++i) {
    on.push_back(RunKernelSeconds(Arm::kObsOn));
    off.push_back(RunKernelSeconds(Arm::kObsOff));
    prov.push_back(RunKernelSeconds(Arm::kProvOn));
  }
  const double median_on = Median(on);
  const double median_off = Median(off);
  const double median_prov = Median(prov);
  // 5% relative plus a 3ms absolute epsilon: below the epsilon the
  // workload is inside scheduler noise and the ratio is meaningless.
  // With provenance still off this bound must hold unchanged — the
  // annotation path has to cost nothing when not asked for.
  EXPECT_LE(median_on, median_off * 1.05 + 0.003)
      << "obs-on median " << median_on * 1e3 << " ms vs obs-off median "
      << median_off * 1e3 << " ms";
  // Provenance + choice audit are opt-in and pay for row annotation and
  // the audit trail; docs/OBSERVABILITY.md promises at most 60% over the
  // provenance-off engine on choice-heavy workloads.
  EXPECT_LE(median_prov, median_on * 1.60 + 0.005)
      << "provenance median " << median_prov * 1e3
      << " ms vs obs-on median " << median_on * 1e3 << " ms";
}

TEST(ObsOverhead, SortStageLoopStaysUnderFivePercent) {
  ExpectStageLoopUnderFivePercent(&RunSortSeconds, "sort (next + least)");
}

TEST(ObsOverhead, PrimStageLoopStaysUnderFivePercent) {
  ExpectStageLoopUnderFivePercent(&RunPrimSeconds, "prim");
}

TEST(ObsOverhead, IdleHttpServerStaysWithinAlwaysOnBound) {
  // The live endpoint's threads block in accept()/queue-wait when no
  // client is connected, so an enabled-but-unscraped server must fit
  // the same always-on budget as plain observability.
  (void)RunKernelSeconds(Arm::kServe);
  (void)RunKernelSeconds(Arm::kObsOff);
  std::vector<double> serve, off;
  for (int i = 0; i < kReps; ++i) {
    serve.push_back(RunKernelSeconds(Arm::kServe));
    off.push_back(RunKernelSeconds(Arm::kObsOff));
  }
  const double median_serve = Median(serve);
  const double median_off = Median(off);
  EXPECT_LE(median_serve, median_off * 1.05 + 0.003)
      << "serve-idle median " << median_serve * 1e3
      << " ms vs obs-off median " << median_off * 1e3 << " ms";
}

}  // namespace
}  // namespace gdlog
