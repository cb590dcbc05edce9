#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "common/guardrails.h"
#include "obs/json.h"

namespace gdlog {

const char* FlightEventKindName(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::kNone:
      return "none";
    case FlightEventKind::kRunStart:
      return "run-start";
    case FlightEventKind::kRound:
      return "round";
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
    case FlightEventKind::kStage:
      return "stage";
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

bool IsRunProgress(FlightEventKind k) {
  return k == FlightEventKind::kRunStart || k == FlightEventKind::kRound ||
         k == FlightEventKind::kStage || k == FlightEventKind::kTermination;
}

FlightRecorder::FlightRecorder(uint32_t capacity)
    : epoch_(std::chrono::steady_clock::now()) {
  uint32_t cap = 1;
  while (cap < std::max(1u, capacity)) cap <<= 1;
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
}

std::vector<FlightRecorder::Event> FlightRecorder::Collect(
    uint64_t after_seq, bool stop_at_unpublished) const {
  const uint64_t end = next_.load(std::memory_order_relaxed);
  const uint64_t cap = mask_ + 1;
  uint64_t seq = std::max(after_seq, end > cap ? end - cap : 0);
  std::vector<Event> out;
  out.reserve(static_cast<size_t>(end > seq ? end - seq : 0));
  while (++seq <= end) {
    const Slot& s = slots_[(seq - 1) & mask_];
    // Acquire pairs with the release that published the slot. An older
    // (or cleared) seq means the event is claimed but not yet published:
    // a cursor reader stops there so it never passes the event. A newer
    // seq means a writer lapped the reader and the event is gone.
    const uint64_t published = s.seq.load(std::memory_order_acquire);
    if (published < seq && stop_at_unpublished) break;
    if (published != seq) continue;
    Event e;
    e.seq = seq;
    e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    e.kind = static_cast<FlightEventKind>(
        s.kind.load(std::memory_order_relaxed));
    e.a0 = s.a0.load(std::memory_order_relaxed);
    e.a1 = s.a1.load(std::memory_order_relaxed);
    e.run.round = s.round.load(std::memory_order_relaxed);
    e.run.tuples = s.tuples.load(std::memory_order_relaxed);
    e.run.gamma_firings = s.gamma_firings.load(std::memory_order_relaxed);
    e.run.stages = s.stages.load(std::memory_order_relaxed);
    e.run.memory_bytes = s.memory_bytes.load(std::memory_order_relaxed);
    // Pairs with the writer's fence after it clears seq: if any load
    // above saw a lapping writer's payload, this re-check sees its clear.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq) continue;
    out.push_back(e);
  }
  return out;
}

bool FlightRecorder::LastProgress(Event* out) const {
  const std::vector<Event> events = Since(0);
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (IsRunProgress(it->kind)) {
      *out = *it;
      return true;
    }
  }
  return false;
}

std::string FlightRecorder::DumpText() const {
  const std::vector<Event> events = Snapshot();
  std::string out;
  const uint64_t total = recorded();
  char line[256];
  std::snprintf(line, sizeof line,
                "flight recorder: %llu event(s) recorded, last %zu retained\n",
                static_cast<unsigned long long>(total), events.size());
  out += line;
  for (const Event& e : events) {
    std::snprintf(line, sizeof line,
                  "  [%6llu] +%10.3fms %-16s a0=%lld a1=%lld round=%llu "
                  "tuples=%llu gamma=%llu stages=%llu mem=%llu\n",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<double>(e.ts_ns) / 1e6,
                  FlightEventKindName(e.kind), static_cast<long long>(e.a0),
                  static_cast<long long>(e.a1),
                  static_cast<unsigned long long>(e.run.round),
                  static_cast<unsigned long long>(e.run.tuples),
                  static_cast<unsigned long long>(e.run.gamma_firings),
                  static_cast<unsigned long long>(e.run.stages),
                  static_cast<unsigned long long>(e.run.memory_bytes));
    out += line;
  }
  return out;
}

std::string FlightEventJson(const FlightRecorder::Event& e) {
  JsonWriter w;
  w.BeginObject();
  w.Key("seq").UInt(e.seq);
  w.Key("ts_ms").Double(static_cast<double>(e.ts_ns) / 1e6);
  w.Key("kind").String(FlightEventKindName(e.kind));
  w.Key("round").UInt(e.run.round);
  w.Key("delta_rows")
      .UInt(e.kind == FlightEventKind::kRound ? static_cast<uint64_t>(e.a0)
                                              : 0);
  w.Key("tuples").UInt(e.run.tuples);
  w.Key("gamma_firings").UInt(e.run.gamma_firings);
  w.Key("stages").UInt(e.run.stages);
  w.Key("memory_bytes").UInt(e.run.memory_bytes);
  if (e.kind == FlightEventKind::kTermination) {
    w.Key("termination")
        .String(TerminationReasonName(static_cast<TerminationReason>(e.a0)));
  }
  w.EndObject();
  return w.Take();
}

}  // namespace gdlog
