// Scoped-span tracer producing Chrome trace_event JSON.
//
// The tracer records a per-run phase timeline — parse → analyze →
// compile → per-clique Saturate/GammaPhase/stage advances, per-rule
// delta applications, per-queue pop/insert/lazy-delete — as complete
// ('X') and instant ('i') events on one timeline. Engine::WriteTrace
// dumps the buffer in the Chrome trace_event array format, loadable by
// chrome://tracing and Perfetto (see docs/OBSERVABILITY.md).
//
// High-frequency call sites gate themselves through Sample(), which
// keeps one event in every `sample_every`; phase-level spans are always
// recorded. A null Tracer* everywhere means tracing is off and the hot
// path pays a single pointer test.
#ifndef GDLOG_OBS_TRACE_H_
#define GDLOG_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gdlog {

class JsonWriter;
class MetricsRegistry;

struct TraceEvent {
  std::string name;
  const char* category = "";
  char phase = 'X';     // 'X' complete, 'i' instant
  uint64_t ts_ns = 0;   // start, relative to the tracer epoch
  uint64_t dur_ns = 0;  // 'X' only
  std::vector<std::pair<std::string, int64_t>> args;
};

class Tracer {
 public:
  explicit Tracer(uint32_t sample_every = 1)
      : sample_every_(sample_every == 0 ? 1 : sample_every),
        epoch_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since the tracer was created.
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// True once every `sample_every` calls — the gate for per-candidate
  /// and per-queue-operation events.
  bool Sample() { return sample_every_ == 1 || (tick_++ % sample_every_) == 0; }
  uint32_t sample_every() const { return sample_every_; }

  void Complete(std::string name, const char* category, uint64_t start_ns,
                uint64_t end_ns,
                std::vector<std::pair<std::string, int64_t>> args = {}) {
    events_.push_back({std::move(name), category, 'X', start_ns,
                       end_ns >= start_ns ? end_ns - start_ns : 0,
                       std::move(args)});
  }

  void Instant(std::string name, const char* category,
               std::vector<std::pair<std::string, int64_t>> args = {}) {
    events_.push_back({std::move(name), category, 'i', NowNs(), 0,
                       std::move(args)});
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Writes {"traceEvents": [...], "displayTimeUnit": "ms"} — the Chrome
  /// trace_event object format.
  void WriteJson(JsonWriter* w) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  uint32_t sample_every_;
  uint64_t tick_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
};

/// RAII span: records a complete event over its lifetime when the tracer
/// is non-null; a no-op otherwise.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string name, const char* category)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    name_ = std::move(name);
    category_ = category;
    start_ns_ = tracer_->NowNs();
  }

  ~TraceSpan() {
    if (tracer_ == nullptr) return;
    tracer_->Complete(std::move(name_), category_, start_ns_,
                      tracer_->NowNs(), std::move(args_));
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddArg(std::string key, int64_t value) {
    if (tracer_) args_.emplace_back(std::move(key), value);
  }

 private:
  Tracer* tracer_;
  std::string name_;
  const char* category_ = "";
  uint64_t start_ns_ = 0;
  std::vector<std::pair<std::string, int64_t>> args_;
};

// ---------------------------------------------------------------------------
// Engine-facing observability wiring
// ---------------------------------------------------------------------------

class FlightRecorder;

/// Per-engine observability switches, carried on EngineOptions.
///
/// Metrics and the flight recorder are ALWAYS ON by default: histogram
/// recording is one relaxed atomic add per event and the recorder is one
/// slot claim, a fence and eleven stores, both measured under 5% on the
/// bench kernels (tests/obs_overhead_test.cc keeps that honest). The
/// recorder is the engine's one event stream: /blackbox, /progress,
/// /statusz and the shell's --progress ticker all read it. Tracing stays
/// opt-in via `enabled` — it allocates per event. Setting both
/// `metrics_enabled` and `recorder_enabled` false reproduces the old
/// fully-off behavior (every instrumented site reduces to one branch on
/// a null pointer).
struct ObsOptions {
  /// Enables the tracer (Chrome trace_event timeline). Opt-in.
  bool enabled = false;
  /// When non-empty, Engine::Run writes the Chrome trace here on
  /// completion (Engine::WriteTrace can re-export it elsewhere).
  std::string trace_path;
  /// Sampling period for high-frequency trace events (per-candidate γ
  /// fires, queue push/pop/lazy-delete) and for the evaluator's timers:
  /// a rule application or Saturate call is timed for the first 16
  /// calls of its site, then one call in `sample_every`, weighted by
  /// the period. 1 = record and time everything.
  uint32_t sample_every = 16;
  /// External registry to record into (not owned; must outlive the
  /// Engine). Null = the engine owns a private registry. Lets callers
  /// (e.g. bench --json) accumulate metrics across many engine runs.
  MetricsRegistry* metrics = nullptr;
  /// Always-on histogram/counter metrics (latency, delta sizes, queue
  /// wait, admissibility). False = no registry at all.
  bool metrics_enabled = true;
  /// Always-on flight recorder (ring buffer of structured events, dumped
  /// on bounded stops, streamed by /progress). False = no recorder, and
  /// /blackbox and /progress answer 503.
  bool recorder_enabled = true;
  /// Ring capacity (events retained); rounded up to a power of two.
  uint32_t recorder_capacity = 512;
  /// Auto-dump the recorder to stderr when a run ends in anything other
  /// than a completed fixpoint (cancel, limit, OOM, fault).
  bool recorder_dump_on_stop = true;
};

/// The sinks threaded through the evaluator; all null when observability
/// is fully disabled.
struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  FlightRecorder* recorder = nullptr;
  uint32_t sample_every = 16;  // ObsOptions::sample_every
  bool enabled() const { return metrics != nullptr || tracer != nullptr; }
};

}  // namespace gdlog

#endif  // GDLOG_OBS_TRACE_H_
