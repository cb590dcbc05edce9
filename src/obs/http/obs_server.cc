#include "obs/http/obs_server.h"

#include <chrono>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace gdlog {

namespace {

HttpServer::Options ToHttpOptions(const ObsHttpOptions& o) {
  HttpServer::Options h;
  h.bind_address = o.bind_address;
  h.port = o.port;
  h.read_timeout_ms = o.read_timeout_ms;
  return h;
}

/// Clamps the path label to the known endpoint set so a client probing
/// random paths cannot mint unbounded label values in the registry.
const char* PathLabel(const std::string& path) {
  static const char* kKnown[] = {"/metrics", "/healthz", "/statusz",
                                 "/runs",    "/runs/last", "/trace",
                                 "/blackbox", "/progress"};
  for (const char* k : kKnown) {
    if (path == k) return k;
  }
  return "other";
}

}  // namespace

ObsServer::ObsServer(ObsHttpOptions options, Sources sources)
    : options_(std::move(options)),
      sources_(std::move(sources)),
      http_(ToHttpOptions(options_)) {
  if (sources_.metrics != nullptr) {
    MetricsRegistry* m = sources_.metrics;
    http_.set_request_observer([m](int status, const std::string& path) {
      m->GetCounter("http.requests", {{"path", PathLabel(path)},
                                      {"code", std::to_string(status)}})
          ->Add(1);
    });
  }
  RegisterEndpoints();
}

ObsServer::~ObsServer() { Stop(); }

Status ObsServer::Start() { return http_.Start(); }

void ObsServer::Stop() { http_.Stop(); }

void ObsServer::PushRunReport(std::string report_json) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  runs_.push_back(std::move(report_json));
  while (runs_.size() > kRunsRetained) runs_.pop_front();
}

void ObsServer::SetTrace(std::string trace_json) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  trace_json_ = std::move(trace_json);
}

void ObsServer::RegisterEndpoints() {
  http_.HandleGet("/healthz", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });

  http_.HandleGet("/metrics", [this](const HttpRequest&) {
    HttpResponse r;
    std::string text = sources_.metrics_text ? sources_.metrics_text() : "";
    if (text.empty()) {
      r.status = 503;
      r.body = "metrics disabled\n";
      return r;
    }
    // The content type registered for the text exposition format 0.0.4.
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = std::move(text);
    return r;
  });

  http_.HandleGet("/statusz", [this](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = sources_.statusz ? sources_.statusz() : "{}";
    r.body += "\n";
    return r;
  });

  http_.HandleGet("/runs", [this](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    std::lock_guard<std::mutex> lock(runs_mu_);
    r.body = "[";
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (i) r.body += ",";
      r.body += runs_[i];
    }
    r.body += "]\n";
    return r;
  });

  http_.HandleGet("/runs/last", [this](const HttpRequest&) {
    HttpResponse r;
    std::lock_guard<std::mutex> lock(runs_mu_);
    if (runs_.empty()) {
      r.status = 404;
      r.body = "no completed runs\n";
      return r;
    }
    r.content_type = "application/json";
    r.body = runs_.back() + "\n";
    return r;
  });

  http_.HandleGet("/trace", [this](const HttpRequest&) {
    HttpResponse r;
    std::lock_guard<std::mutex> lock(runs_mu_);
    if (trace_json_.empty()) {
      r.status = 404;
      r.body = "no trace recorded (enable tracing and complete a run)\n";
      return r;
    }
    r.content_type = "application/json";
    r.extra_headers.emplace_back("Content-Disposition",
                                 "attachment; filename=\"gdlog-trace.json\"");
    r.body = trace_json_;
    return r;
  });

  if (sources_.recorder == nullptr) {
    for (const char* path : {"/blackbox", "/progress"}) {
      http_.HandleGet(path, [](const HttpRequest&) {
        HttpResponse r;
        r.status = 503;
        r.body = "flight recorder disabled\n";
        return r;
      });
    }
    return;
  }
  http_.HandleGet("/blackbox", [this](const HttpRequest&) {
    HttpResponse r;
    // Documented safe mid-run: the ring tolerates concurrent writers.
    r.body = sources_.recorder->DumpText();
    return r;
  });
  http_.HandleGetStream("/progress",
                        [this](const HttpRequest& req, HttpStream* stream) {
                          ServeProgress(req, stream);
                        });
}

void ObsServer::ServeProgress(const HttpRequest& req, HttpStream* stream) {
  (void)req;
  const FlightRecorder& ring = *sources_.recorder;
  if (!stream->Write("retry: 2000\n\n")) return;
  // Replay whatever the ring retains, then follow the live run, sending
  // its run-start/round/stage/termination events. The stream ends when
  // the run terminates, the client disconnects, or the server stops.
  uint64_t cursor = 0;
  auto last_keepalive = std::chrono::steady_clock::now();
  for (;;) {
    if (stream->ShouldStop()) return;
    const std::vector<FlightRecorder::Event> events = ring.Since(cursor);
    bool terminated = false;
    for (const FlightRecorder::Event& e : events) {
      cursor = e.seq;
      if (!IsRunProgress(e.kind)) continue;
      std::string frame = "event: progress\ndata: ";
      frame += FlightEventJson(e);
      frame += "\n\n";
      if (!stream->Write(frame)) return;
      if (e.kind == FlightEventKind::kTermination) terminated = true;
    }
    if (terminated) return;
    if (events.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_keepalive > std::chrono::seconds(2)) {
        // Comment frames keep intermediaries open and detect a client
        // that went away without a FIN reaching us yet.
        if (!stream->Write(": keepalive\n\n")) return;
        last_keepalive = now;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    } else {
      last_keepalive = std::chrono::steady_clock::now();
    }
  }
}

}  // namespace gdlog
