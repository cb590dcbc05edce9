// Execution guardrails: the pieces that make a run bounded, stoppable,
// and failure-reporting instead of an open-ended fixpoint.
//
//   RunLimits     — caps a run may not exceed (wall clock, derived
//                   tuples, stages, fixpoint iterations, tracked memory).
//   CancelToken   — signal-safe cooperative cancellation flag; a SIGINT
//                   handler or another thread sets it, the fixpoint
//                   driver polls it at iteration boundaries.
//   MemoryBudget  — shared byte counter charged by the arenas and the
//                   relation storage as they grow; the guard compares it
//                   against the limit at safe boundaries (it never throws
//                   by itself), so a memory stop is graceful.
//   FaultInjector — deterministic, probe-point-driven failure injection
//                   (GDLOG_FAULTS env or EngineOptions::faults) so every
//                   error path above is testable on demand.
//   RunGuard      — ties the four together: one Check() call at each
//                   fixpoint boundary returns a Status tagged with the
//                   TerminationReason that first tripped.
//
// See docs/ROBUSTNESS.md for the probe-point catalog and the semantics
// of partial (truncated) fixpoints.
#ifndef GDLOG_COMMON_GUARDRAILS_H_
#define GDLOG_COMMON_GUARDRAILS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gdlog {

/// Why a run ended. kCompleted is a genuine fixpoint; every other value
/// is a bounded stop whose partial state stays queryable.
enum class TerminationReason : uint8_t {
  kCompleted = 0,
  kDeadline,        // wall-clock deadline expired (RunLimits::deadline_ms)
  kTupleLimit,      // derived-tuple cap hit (RunLimits::max_tuples)
  kStageLimit,      // next-stage cap hit (RunLimits::max_stages)
  kIterationLimit,  // saturation-round cap hit (RunLimits::max_iterations)
  kMemoryLimit,     // tracked-memory budget exceeded (max_memory_bytes)
  kCancelled,       // CancelToken requested (SIGINT / RequestCancel)
  kOom,             // std::bad_alloc escaped to the Run boundary
  kFault,           // deterministic fault injected at an eval probe point
};

/// Stable lowercase name ("completed", "deadline", "tuple-limit", ...)
/// used in RunReport JSON and shell output.
std::string_view TerminationReasonName(TerminationReason r);

/// Resource caps for one run. Zero means unlimited. Limits are enforced
/// at fixpoint-iteration and gamma-step boundaries, so a single long
/// saturation round may overshoot before the stop lands (documented in
/// docs/ROBUSTNESS.md).
struct RunLimits {
  uint64_t deadline_ms = 0;       // wall-clock budget for Run()
  uint64_t max_tuples = 0;        // derived (rule-produced) tuple cap
  uint64_t max_stages = 0;        // next-rule stage advances
  uint64_t max_iterations = 0;    // saturation rounds
  uint64_t max_memory_bytes = 0;  // MemoryBudget-tracked bytes

  bool any() const {
    return deadline_ms | max_tuples | max_stages | max_iterations |
           max_memory_bytes;
  }
};

/// Cooperative cancellation flag. Request() performs one relaxed atomic
/// store and is async-signal-safe; the evaluator polls cancelled() at
/// iteration boundaries.
class CancelToken {
 public:
  void Request() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

class FaultInjector;

/// Shared counter of engine-tracked allocations (value-store arenas,
/// relation rows, hash sets, indices). Trackers keep a per-container
/// charged figure and call Update with the current approximation; the
/// budget maintains the total and its high-water mark. Reads may come
/// from other threads (reports), hence the relaxed atomics.
class MemoryBudget {
 public:
  /// Adjusts the total by (now_bytes - *charged) and stores now_bytes
  /// back into *charged. With a FaultInjector attached, growth hits the
  /// "alloc" probe, which simulates allocation failure by throwing
  /// std::bad_alloc (caught at the Engine::Run boundary).
  void Update(size_t* charged, size_t now_bytes);

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

 private:
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  FaultInjector* injector_ = nullptr;
};

/// Deterministic fault injection. A spec is a comma-separated list of
/// probes, each optionally with a 1-based trigger count:
///
///   "alloc@100"          the 100th tracked-allocation growth throws
///   "parse"              LoadProgram fails before parsing (count 1)
///   "compile@2,deadline" second Run-compile fails; deadline reads expired
///
/// Probe catalog (docs/ROBUSTNESS.md): parse, analyze, compile,
/// eval.saturate, eval.gamma, alloc, deadline. Counters are pure hit
/// counts — no clocks, no randomness — so a failing configuration
/// replays exactly.
class FaultInjector {
 public:
  static constexpr std::string_view kParse = "parse";
  static constexpr std::string_view kAnalyze = "analyze";
  static constexpr std::string_view kCompile = "compile";
  static constexpr std::string_view kEvalSaturate = "eval.saturate";
  static constexpr std::string_view kEvalGamma = "eval.gamma";
  static constexpr std::string_view kAlloc = "alloc";
  static constexpr std::string_view kDeadline = "deadline";
  // Durability probes (docs/DURABILITY.md). wal.append leaves a genuinely
  // torn record on disk; the others fail the surrounding operation.
  static constexpr std::string_view kWalAppend = "wal.append";
  static constexpr std::string_view kWalFsync = "wal.fsync";
  static constexpr std::string_view kCheckpointWrite = "checkpoint.write";
  static constexpr std::string_view kRecoveryReplay = "recovery.replay";

  /// Every recognized probe name, for sweep tests and docs.
  static const std::vector<std::string_view>& ProbeCatalog();

  /// Parses a spec; rejects unknown probe names and malformed counts.
  static Result<FaultInjector> Parse(std::string_view spec);

  /// Records one hit of `probe`; true exactly when an armed probe reaches
  /// its trigger count (it stays silent afterwards — one shot).
  bool Hit(std::string_view probe);

  bool ArmedFor(std::string_view probe) const;
  /// Hits recorded so far for `probe` (armed or not).
  uint64_t hits(std::string_view probe) const;
  const std::string& spec() const { return spec_; }

 private:
  // Hit counters are relaxed atomics, like MemoryBudget's totals, so
  // reading them (hits(), the run report) from another thread while a
  // run is hitting probes is not a data race. The copy constructor
  // exists only so Parse can return by value and the engine can store
  // the injector — never copy one that is being hit.
  struct Probe {
    std::string name;
    uint64_t trigger = 0;  // 0 = not armed; N = fire on the Nth hit
    std::atomic<uint64_t> count{0};
    std::atomic<bool> fired{false};

    Probe(std::string n, uint64_t t) : name(std::move(n)), trigger(t) {}
    Probe(const Probe& o)
        : name(o.name),
          trigger(o.trigger),
          count(o.count.load(std::memory_order_relaxed)),
          fired(o.fired.load(std::memory_order_relaxed)) {}
    Probe& operator=(const Probe& o) {
      name = o.name;
      trigger = o.trigger;
      count.store(o.count.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      fired.store(o.fired.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };
  Probe* FindProbe(std::string_view name);
  const Probe* FindProbe(std::string_view name) const;

  std::string spec_;
  std::vector<Probe> probes_;
};

/// Counters sampled at each guard check; the driver fills them from its
/// running statistics.
struct GuardCounters {
  uint64_t tuples = 0;      // derived tuples so far
  uint64_t stages = 0;      // next-stages assigned so far
  uint64_t iterations = 0;  // saturation rounds so far
};

/// One guard per run: latches the first limit violation and reports the
/// same reason/Status on every later check, so a stop propagates cleanly
/// out of nested loops.
class RunGuard {
 public:
  RunGuard(const RunLimits& limits, const CancelToken* cancel,
           MemoryBudget* budget, FaultInjector* injector);

  /// Stamps the run's start time (the deadline is relative to this).
  void Arm();

  /// Returns OK while the run may continue; otherwise a Status tagged
  /// with a [GD2xx] code. `probe` names the boundary for fault injection
  /// (FaultInjector::kEvalSaturate / kEvalGamma) and may be empty.
  Status Check(const GuardCounters& counters, std::string_view probe);

  /// Records an externally-detected stop (e.g. bad_alloc caught at the
  /// Run boundary) so reports agree with the returned status.
  void ForceReason(TerminationReason reason);

  TerminationReason reason() const { return reason_; }
  uint64_t checks() const { return checks_; }
  const RunLimits& limits() const { return limits_; }
  /// Non-const: the driver charges its evaluation structures to the
  /// budget.
  MemoryBudget* budget() const { return budget_; }
  FaultInjector* injector() const { return injector_; }

 private:
  Status Trip(TerminationReason reason, Status status);

  RunLimits limits_;
  const CancelToken* cancel_;
  MemoryBudget* budget_;
  FaultInjector* injector_;
  uint64_t start_ns_ = 0;
  uint64_t deadline_ns_ = 0;  // absolute; 0 = none
  uint64_t checks_ = 0;
  TerminationReason reason_ = TerminationReason::kCompleted;
  Status tripped_;  // latched non-OK status after the first violation
};

}  // namespace gdlog

#endif  // GDLOG_COMMON_GUARDRAILS_H_
