// The observability endpoint: HttpServer wired to the engine's live
// surfaces. This is the serving half of server mode (ROADMAP) — the
// wire protocol for queries comes later; what lands here is everything
// a scraper, dashboard, or on-call human needs while a run is in
// flight.
//
//   GET /metrics    Prometheus 0.0.4 text (live registry scrape)
//   GET /healthz    "ok" — liveness only
//   GET /statusz    build info, uptime, run state, last progress (JSON)
//   GET /runs       recent completed RunReport JSONs (bounded ring)
//   GET /runs/last  the most recent RunReport
//   GET /trace      Chrome trace_event JSON of the last run
//   GET /blackbox   flight-recorder dump (safe mid-run)
//   GET /progress   Server-Sent Events stream of the recorder's
//                   run-start/round/stage/termination events
//
// Thread-safety contract: every handler reads only surfaces that are
// documented safe against a concurrent Run — the metrics registry, the
// flight recorder, atomics published by the engine, and strings pushed
// into the ring *after* a run ended. RunReport and the tracer are NOT
// mid-run-safe, which is exactly why /runs serves a ring of
// completed-run snapshots instead of calling Engine::RunReport.
#ifndef GDLOG_OBS_HTTP_OBS_SERVER_H_
#define GDLOG_OBS_HTTP_OBS_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/http/http_server.h"

namespace gdlog {

class MetricsRegistry;
class FlightRecorder;

/// Engine-level switch for the endpoint, carried on EngineOptions.
struct ObsHttpOptions {
  /// Off by default: an engine embedded in tests or batch pipelines
  /// should not open sockets unless asked.
  bool enabled = false;
  /// Loopback by default (the endpoint has no authentication).
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Engine::obs_http_port.
  uint16_t port = 0;
  uint32_t read_timeout_ms = 5000;
};

class ObsServer {
 public:
  /// Completed RunReport JSONs retained for /runs.
  static constexpr size_t kRunsRetained = 8;

  /// The pull-side surfaces the endpoints read. All pointers are
  /// borrowed, may be null (the endpoint degrades to 503/404), and must
  /// outlive the server. `statusz` supplies the engine-state JSON (it
  /// reads only atomics); `metrics_text` renders the live Prometheus
  /// scrape (the engine refreshes its runtime gauges inside it).
  struct Sources {
    /// Registry the server counts its own http.requests series into
    /// (also null-safe).
    MetricsRegistry* metrics = nullptr;
    std::function<std::string()> metrics_text;  // "" = disabled -> 503
    const FlightRecorder* recorder = nullptr;  // null: /blackbox, /progress 503
    std::function<std::string()> statusz;  // JSON object, never fails
  };

  ObsServer(ObsHttpOptions options, Sources sources);
  ~ObsServer();  // stops the server

  /// Binds and starts serving. The bound port is available right after.
  Status Start();
  void Stop();

  uint16_t port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  /// Pushes a completed run's report JSON into the /runs ring (called
  /// by Engine::Run after the run ended — never mid-run).
  void PushRunReport(std::string report_json);
  /// Publishes the last run's Chrome trace JSON for /trace.
  void SetTrace(std::string trace_json);

  const HttpServer& http() const { return http_; }

 private:
  void RegisterEndpoints();
  void ServeProgress(const HttpRequest& req, HttpStream* stream);

  ObsHttpOptions options_;
  Sources sources_;
  HttpServer http_;

  std::mutex runs_mu_;
  std::deque<std::string> runs_;  // oldest first, bounded
  std::string trace_json_;        // empty = no trace yet
};

}  // namespace gdlog

#endif  // GDLOG_OBS_HTTP_OBS_SERVER_H_
