// Flight recorder: the engine's one event stream. A fixed-size ring of
// structured events, always on, read by the bounded-stop dump, /blackbox
// and `.blackbox`, the /progress SSE stream, the shell's --progress
// ticker, and /statusz. Each event is {seq, ts_ns, kind, a0, a1} plus
// the run counters when it was recorded, so any single event renders a
// complete status line; the counters are zero outside a run and off the
// evaluation thread (Engine::RequestCancel).
//
// Record() is O(1), lock-free, allocation-free, and noexcept: one
// fetch_add claims a slot, then relaxed stores fill it, so it is safe
// from any thread and from async-signal context (RequestCancel records
// from a SIGINT handler). Each slot is a seqlock: the writer clears seq,
// fences, stores the payload and publishes seq last (release); a reader
// loads seq (acquire), the payload, fences, and re-checks seq, so a slot
// torn by a lapping writer is dropped, never returned. Since() stops at
// the first claimed-but-unpublished slot, so a polling cursor never
// passes an event still being written. The event taxonomy is documented
// in docs/OBSERVABILITY.md.
#ifndef GDLOG_OBS_FLIGHT_RECORDER_H_
#define GDLOG_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gdlog {

enum class FlightEventKind : uint8_t {
  kNone = 0,
  kRunStart,         // a0 = rule count,   a1 = relation count
  kRound,            // a0 = delta rows feeding the round, a1 = its inserts
  kGuardTrip,        // a0 = TerminationReason, a1 = checks so far
  kPlanDecision,     // a0 = rule index,   a1 = goals in plan
  kFaultInjected,    // a0 = probe ordinal (FaultInjector::ProbeCatalog)
  kCancelRequested,  // from Engine::RequestCancel (signal-safe path)
  kGammaFire,        // a0 = rule index,   a1 = γ firings so far
  kStage,            // a0 = rule index,   a1 = stage assigned
  kOom,              // a0 = tracked bytes in use, a1 = peak tracked bytes
  kTermination,      // a0 = TerminationReason, a1 = status ok (0/1)
  kChoiceReject,     // a0 = rule index,   a1 = live candidates left in Q
  kRecovery,         // a0 = WAL records replayed, a1 = torn bytes dropped
  kCheckpoint,       // a0 = snapshot seq, a1 = snapshot bytes
  kWalRotate,        // a0 = new WAL seq,  a1 = old WAL bytes retired
  kDurabilityError,  // a0 = GD code (210/211/212), a1 = 0
};

/// Stable lowercase name for dumps ("round", "guard-trip", ...).
const char* FlightEventKindName(FlightEventKind k);

/// The kinds /progress streams: run-start, round, stage, termination.
bool IsRunProgress(FlightEventKind k);

/// Run totals stamped on every event (zero outside a run and off the
/// evaluation thread).
struct RunCounters {
  uint64_t round = 0;          // saturation rounds
  uint64_t tuples = 0;         // tuples inserted
  uint64_t gamma_firings = 0;  // γ firings
  uint64_t stages = 0;         // stages assigned
  uint64_t memory_bytes = 0;   // tracked memory in use
};

class FlightRecorder {
 public:
  static constexpr uint32_t kDefaultCapacity = 512;

  /// Capacity is rounded up to a power of two (slot masking).
  explicit FlightRecorder(uint32_t capacity = kDefaultCapacity);

  /// Records one event. Lock-free, allocation-free, async-signal-safe.
  void Record(FlightEventKind kind, int64_t a0 = 0, int64_t a1 = 0,
              const RunCounters& run = {}) noexcept {
    const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[seq & mask_];
    s.seq.store(0, std::memory_order_relaxed);
    // Orders the clear before the payload: a reader that loads any of
    // the stores below re-reads seq after its acquire fence and sees the
    // clear (or later), so it drops the slot instead of mixing events.
    std::atomic_thread_fence(std::memory_order_release);
    s.ts_ns.store(NowNs(), std::memory_order_relaxed);
    s.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
    s.a0.store(a0, std::memory_order_relaxed);
    s.a1.store(a1, std::memory_order_relaxed);
    s.round.store(run.round, std::memory_order_relaxed);
    s.tuples.store(run.tuples, std::memory_order_relaxed);
    s.gamma_firings.store(run.gamma_firings, std::memory_order_relaxed);
    s.stages.store(run.stages, std::memory_order_relaxed);
    s.memory_bytes.store(run.memory_bytes, std::memory_order_relaxed);
    s.seq.store(seq + 1, std::memory_order_release);
  }

  /// Events recorded since construction (may exceed capacity).
  uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }
  uint32_t capacity() const { return mask_ + 1; }

  struct Event {
    uint64_t seq = 0;  // 1-based recording order
    uint64_t ts_ns = 0;
    FlightEventKind kind = FlightEventKind::kNone;
    int64_t a0 = 0;
    int64_t a1 = 0;
    RunCounters run;
  };
  /// The retained events with seq > after_seq, oldest first. A reader
  /// that fell more than `capacity` behind resumes at the oldest retained
  /// event; the walk stops at the first claimed-but-unpublished slot (the
  /// next call picks up there). Safe to call while writers are active.
  std::vector<Event> Since(uint64_t after_seq) const {
    return Collect(after_seq, /*stop_at_unpublished=*/true);
  }
  /// Every retained event, oldest first, skipping (not stopping at) slots
  /// still being written — the post-mortem view the dumps render.
  std::vector<Event> Snapshot() const {
    return Collect(0, /*stop_at_unpublished=*/false);
  }
  /// The newest run-start/round/stage/termination event Since(0) would
  /// return; false when there is none.
  bool LastProgress(Event* out) const;

  /// Human-readable dump, one line per event:
  ///   [seq] +12.345ms round a0=3 a1=17 round=4 tuples=40 ...
  std::string DumpText() const;

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = being written or never written
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<int64_t> a0{0};
    std::atomic<int64_t> a1{0};
    std::atomic<uint64_t> round{0};
    std::atomic<uint64_t> tuples{0};
    std::atomic<uint64_t> gamma_firings{0};
    std::atomic<uint64_t> stages{0};
    std::atomic<uint64_t> memory_bytes{0};
  };

  std::vector<Event> Collect(uint64_t after_seq,
                             bool stop_at_unpublished) const;

  uint64_t NowNs() const noexcept {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  uint32_t mask_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_{0};
  std::unique_ptr<Slot[]> slots_;
};

/// One event as the /progress SSE payload: {"seq":1,"ts_ms":0.1,
/// "kind":"round","round":1,"delta_rows":3,"tuples":..., ...}, plus
/// "termination":"<reason>" on the termination event.
std::string FlightEventJson(const FlightRecorder::Event& e);

}  // namespace gdlog

#endif  // GDLOG_OBS_FLIGHT_RECORDER_H_
