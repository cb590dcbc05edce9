// Flight recorder: a fixed-size ring buffer of cheap structured events,
// always on, for post-mortem diagnosis of bounded stops and crashes.
//
// Record() is O(1), lock-free, allocation-free, and noexcept: one
// fetch_add claims a slot, then four relaxed stores fill it. That makes
// it safe to call from any thread and from async-signal context
// (Engine::RequestCancel records the cancellation from a SIGINT
// handler). The ring keeps the last `capacity` events; a dump renders
// them in sequence order with per-event decoding (the event taxonomy is
// documented in docs/OBSERVABILITY.md).
//
// Slightly racy by design: a reader may observe a slot mid-overwrite
// when the writer laps it. Dumps tolerate that (the sequence number is
// stored last and checked on read), and every field is a relaxed atomic
// so concurrent access is not a data race.
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
  kRoundStart,       // a0 = round number, a1 = applications scheduled
  kRoundEnd,         // a0 = round number, a1 = tuples inserted so far
  kGuardCheck,       // a0 = checks so far, a1 = derived tuples so far
  kGuardTrip,        // a0 = TerminationReason, a1 = checks so far
  kPlanDecision,     // a0 = rule index,   a1 = goals in plan
  kFaultInjected,    // a0 = probe ordinal (FaultInjector::ProbeCatalog)
  kCancelRequested,  // from Engine::RequestCancel (signal-safe path)
  kGammaFire,        // a0 = rule index,   a1 = stage counter (-1: none)
  kStageAdvance,     // a0 = rule index,   a1 = new stage counter
  kOom,              // bad_alloc reached the Run boundary
  kTermination,      // a0 = TerminationReason, a1 = status ok (0/1)
  kChoiceReject,     // a0 = rule index,   a1 = live candidates left in Q
  kRecovery,         // a0 = WAL records replayed, a1 = torn bytes dropped
  kCheckpoint,       // a0 = snapshot seq, a1 = snapshot bytes
  kWalRotate,        // a0 = new WAL seq,  a1 = old WAL bytes retired
  kDurabilityError,  // a0 = GD code (210/211/212), a1 = 0
};

/// Stable lowercase name for dumps ("round-start", "guard-trip", ...).
const char* FlightEventKindName(FlightEventKind k);

class FlightRecorder {
 public:
  static constexpr uint32_t kDefaultCapacity = 256;

  /// Capacity is rounded up to a power of two (slot masking).
  explicit FlightRecorder(uint32_t capacity = kDefaultCapacity);

  /// Records one event. Lock-free, allocation-free, async-signal-safe.
  void Record(FlightEventKind kind, int64_t a0 = 0, int64_t a1 = 0) noexcept {
    const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[seq & mask_];
    // seq is written last so a reader that sees it also sees a complete
    // (if possibly torn-by-lapping) payload for that sequence number.
    s.seq.store(0, std::memory_order_relaxed);
    s.ts_ns.store(NowNs(), std::memory_order_relaxed);
    s.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
    s.a0.store(a0, std::memory_order_relaxed);
    s.a1.store(a1, std::memory_order_relaxed);
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
  };
  /// The retained events in recording order (oldest first). Safe to call
  /// while writers are active; events being overwritten are skipped.
  std::vector<Event> Snapshot() const;

  /// Human-readable dump, one line per event:
  ///   [seq] +12.345ms round-start a0=3 a1=17
  std::string DumpText() const;

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint8_t> kind{0};
    std::atomic<int64_t> a0{0};
    std::atomic<int64_t> a1{0};
  };

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

}  // namespace gdlog

#endif  // GDLOG_OBS_FLIGHT_RECORDER_H_
