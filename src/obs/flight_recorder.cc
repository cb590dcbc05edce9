#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

namespace gdlog {

const char* FlightEventKindName(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kNone:
      return "none";
    case FlightEventKind::kRunStart:
      return "run-start";
    case FlightEventKind::kRoundStart:
      return "round-start";
    case FlightEventKind::kRoundEnd:
      return "round-end";
    case FlightEventKind::kGuardCheck:
      return "guard-check";
    case FlightEventKind::kGuardTrip:
      return "guard-trip";
    case FlightEventKind::kPlanDecision:
      return "plan-decision";
    case FlightEventKind::kFaultInjected:
      return "fault-injected";
    case FlightEventKind::kCancelRequested:
      return "cancel-requested";
    case FlightEventKind::kGammaFire:
      return "gamma-fire";
    case FlightEventKind::kStageAdvance:
      return "stage-advance";
    case FlightEventKind::kOom:
      return "oom";
    case FlightEventKind::kTermination:
      return "termination";
    case FlightEventKind::kChoiceReject:
      return "choice-reject";
    case FlightEventKind::kRecovery:
      return "recovery";
    case FlightEventKind::kCheckpoint:
      return "checkpoint";
    case FlightEventKind::kWalRotate:
      return "wal-rotate";
    case FlightEventKind::kDurabilityError:
      return "durability-error";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(uint32_t capacity)
    : epoch_(std::chrono::steady_clock::now()) {
  uint32_t cap = 1;
  while (cap < std::max(1u, capacity)) cap <<= 1;
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
}

std::vector<FlightRecorder::Event> FlightRecorder::Snapshot() const {
  const uint64_t end = next_.load(std::memory_order_relaxed);
  const uint64_t cap = mask_ + 1;
  const uint64_t begin = end > cap ? end - cap : 0;
  std::vector<Event> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t seq = begin; seq < end; ++seq) {
    const Slot& s = slots_[seq & mask_];
    // Acquire pairs with the release in Record: a matching sequence
    // number means the payload for this slot generation is visible. A
    // mismatch means a writer lapped us mid-read — skip the slot.
    if (s.seq.load(std::memory_order_acquire) != seq + 1) continue;
    Event e;
    e.seq = seq + 1;
    e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    e.kind = static_cast<FlightEventKind>(
        s.kind.load(std::memory_order_relaxed));
    e.a0 = s.a0.load(std::memory_order_relaxed);
    e.a1 = s.a1.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_relaxed) != seq + 1) continue;
    out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::DumpText() const {
  const std::vector<Event> events = Snapshot();
  std::string out;
  const uint64_t total = recorded();
  char line[160];
  std::snprintf(line, sizeof line,
                "flight recorder: %llu event(s) recorded, last %zu retained\n",
                static_cast<unsigned long long>(total), events.size());
  out += line;
  for (const Event& e : events) {
    std::snprintf(line, sizeof line,
                  "  [%6llu] +%10.3fms %-16s a0=%lld a1=%lld\n",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<double>(e.ts_ns) / 1e6,
                  FlightEventKindName(e.kind), static_cast<long long>(e.a0),
                  static_cast<long long>(e.a1));
    out += line;
  }
  return out;
}

}  // namespace gdlog
