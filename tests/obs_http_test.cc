// End-to-end tests for the live observability endpoint: a real engine
// with the HTTP server enabled, scraped over loopback sockets with a
// raw-socket client so hostile inputs (oversized heads, wrong methods,
// slow senders) can be crafted byte-for-byte. The concurrency tests run
// scrapes and an SSE stream against a live evaluation, and race readers
// against writers on the flight-recorder ring every live surface reads;
// they are part of the TSan CI job, so the "safe mid-run" contract on
// every endpoint is checked by the race detector, not just by review.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "obs/flight_recorder.h"
#include "obs/http/http_server.h"
#include "obs/json.h"

namespace gdlog {
namespace {

// ---------------------------------------------------------------------------
// Raw-socket test client
// ---------------------------------------------------------------------------

/// Connects to 127.0.0.1:port; returns -1 on failure.
int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: the server closing mid-send (expected for hostile
    // inputs) must surface as an error, not SIGPIPE the test binary.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until EOF (the server always closes) or `max_bytes`.
std::string RecvAll(int fd, size_t max_bytes = 16u << 20) {
  std::string out;
  char buf[4096];
  while (out.size() < max_bytes) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

/// One full request/response exchange; returns the raw response.
std::string Fetch(uint16_t port, const std::string& request) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  std::string resp;
  if (SendAll(fd, request)) resp = RecvAll(fd);
  ::close(fd);
  return resp;
}

std::string Get(uint16_t port, const std::string& path) {
  return Fetch(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 200 OK" -> 200
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  const size_t p = response.find("\r\n\r\n");
  return p == std::string::npos ? "" : response.substr(p + 4);
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

constexpr const char* kPrim = R"(
  prm(nil, 0, 0, 0).
  prm(X, Y, C, I) <- next(I), new_g(X, Y, C, J), J < I,
                     least(C, I), choice(Y, X).
  new_g(X, Y, C, J) <- prm(_, X, _, J), g(X, Y, C).
  g(0, 1, 4). g(0, 2, 3).
  g(1, 2, 1). g(2, 1, 1).
  g(1, 3, 2). g(3, 1, 2).
  g(2, 3, 4). g(3, 2, 4).
  g(3, 4, 2). g(4, 3, 2).
)";

/// One new tuple per saturation round, effectively unbounded — keeps a
/// run live until the deadline guardrail stops it (same fixture as
/// guardrails_test).
constexpr const char* kRunaway = R"(
  c(0).
  c(M) <- c(N), M = N + 1, N < 2000000000.
)";

std::unique_ptr<Engine> MakeServingEngine(const char* program,
                                          EngineOptions options = {}) {
  options.obs_http.enabled = true;
  options.obs_http.port = 0;  // ephemeral
  auto engine = std::make_unique<Engine>(options);
  EXPECT_TRUE(engine->obs_http_status().ok())
      << engine->obs_http_status().ToString();
  EXPECT_NE(engine->obs_server(), nullptr);
  EXPECT_NE(engine->obs_http_port(), 0);
  if (program != nullptr) {
    EXPECT_TRUE(engine->LoadProgram(program).ok());
  }
  return engine;
}

// ---------------------------------------------------------------------------
// Happy-path endpoints
// ---------------------------------------------------------------------------

TEST(ObsHttp, HealthzAnswersBeforeAnyRun) {
  auto engine = MakeServingEngine(kPrim);
  const std::string resp = Get(engine->obs_http_port(), "/healthz");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_EQ(BodyOf(resp), "ok\n");
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);
}

TEST(ObsHttp, MetricsServePrometheusContentType) {
  auto engine = MakeServingEngine(kPrim);
  ASSERT_TRUE(engine->Run().ok());
  const std::string resp = Get(engine->obs_http_port(), "/metrics");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << resp.substr(0, 400);
  const std::string body = BodyOf(resp);
  EXPECT_NE(body.find("gdlog_build_info"), std::string::npos);
  EXPECT_NE(body.find("gdlog_engine_uptime_seconds"), std::string::npos);
  EXPECT_NE(body.find("gdlog_engine_run_state{state=\"completed\"} 1"),
            std::string::npos);
  // The server's own request counter appears once a scrape happened.
  const std::string again = BodyOf(Get(engine->obs_http_port(), "/metrics"));
  EXPECT_NE(again.find("gdlog_http_requests_total{path=\"/metrics\""),
            std::string::npos);
}

TEST(ObsHttp, StatuszReportsRunStateTransitions) {
  auto engine = MakeServingEngine(kPrim);
  const uint16_t port = engine->obs_http_port();
  auto statusz = [&] {
    auto doc = ParseJson(BodyOf(Get(port, "/statusz")));
    EXPECT_TRUE(doc.ok());
    return doc;
  };
  auto before = statusz();
  EXPECT_EQ(before->Find("run_state")->string, "idle");
  EXPECT_TRUE(before->Find("build")->Find("version") != nullptr);
  ASSERT_TRUE(engine->Run().ok());
  auto after = statusz();
  EXPECT_EQ(after->Find("run_state")->string, "completed");
  EXPECT_GE(after->Find("uptime_seconds")->number, 0);
  // Last progress event is surfaced for dashboards.
  const JsonValue* prog = after->Find("progress");
  ASSERT_TRUE(prog != nullptr);
  EXPECT_EQ(prog->Find("kind")->string, "termination");
}

TEST(ObsHttp, RunsRingServesCompletedReports) {
  auto engine = MakeServingEngine(kPrim);
  const uint16_t port = engine->obs_http_port();
  // Empty before any run completes.
  EXPECT_EQ(StatusOf(Get(port, "/runs/last")), 404);
  EXPECT_EQ(BodyOf(Get(port, "/runs")), "[]\n");
  ASSERT_TRUE(engine->Run().ok());
  const std::string last = BodyOf(Get(port, "/runs/last"));
  auto doc = ParseJson(last);
  ASSERT_TRUE(doc.ok()) << last.substr(0, 200);
  EXPECT_TRUE(doc->Find("termination") != nullptr);
  auto list = ParseJson(BodyOf(Get(port, "/runs")));
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(list->is_array());
  EXPECT_EQ(list->items.size(), 1u);
}

TEST(ObsHttp, TraceServedAfterTracedRun) {
  EngineOptions options;
  options.obs.enabled = true;
  options.obs.trace_path = "unused.json";  // rendering gated on tracer
  auto engine = MakeServingEngine(kPrim, options);
  const uint16_t port = engine->obs_http_port();
  EXPECT_EQ(StatusOf(Get(port, "/trace")), 404);
  ASSERT_TRUE(engine->Run().ok());
  const std::string resp = Get(port, "/trace");
  EXPECT_EQ(StatusOf(resp), 200);
  auto doc = ParseJson(BodyOf(resp));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->Find("traceEvents") != nullptr);
}

TEST(ObsHttp, BlackboxDumpsFlightRecorder) {
  auto engine = MakeServingEngine(kPrim);
  ASSERT_TRUE(engine->Run().ok());
  const std::string body = BodyOf(Get(engine->obs_http_port(), "/blackbox"));
  EXPECT_NE(body.find("run-start"), std::string::npos) << body.substr(0, 200);
  EXPECT_NE(body.find("termination"), std::string::npos);
}

TEST(ObsHttp, ProgressStreamsEventsAndEndsAtTermination) {
  auto engine = MakeServingEngine(kPrim);
  const uint16_t port = engine->obs_http_port();
  ASSERT_TRUE(engine->Run().ok());
  // After the run the ring retains the whole history; the stream replays
  // it and closes at the termination event, so a plain blocking read
  // terminates without any client-side timeout games.
  const std::string resp = Get(port, "/progress");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_NE(resp.find("Content-Type: text/event-stream"), std::string::npos);
  // SSE responses must not carry Content-Length.
  EXPECT_EQ(resp.find("Content-Length"), std::string::npos);
  EXPECT_NE(resp.find("retry: 2000"), std::string::npos);
  EXPECT_NE(resp.find("event: progress"), std::string::npos);
  EXPECT_NE(resp.find("\"kind\":\"run-start\""), std::string::npos);
  EXPECT_NE(resp.find("\"kind\":\"round\""), std::string::npos);
  EXPECT_NE(resp.find("\"kind\":\"termination\""), std::string::npos);
  // Every data line must be valid JSON.
  std::istringstream in(resp);
  std::string line;
  int events = 0;
  while (std::getline(in, line)) {
    if (line.rfind("data: ", 0) != 0) continue;
    auto doc = ParseJson(line.substr(6));
    ASSERT_TRUE(doc.ok()) << line;
    EXPECT_TRUE(doc->Find("seq") != nullptr);
    ++events;
  }
  EXPECT_GE(events, 3);
}

TEST(ObsHttp, ProgressAndBlackboxAre503WithoutRecorder) {
  EngineOptions options;
  options.obs.recorder_enabled = false;
  auto engine = MakeServingEngine(kPrim, options);
  ASSERT_TRUE(engine->Run().ok());
  const uint16_t port = engine->obs_http_port();
  EXPECT_EQ(StatusOf(Get(port, "/progress")), 503);
  EXPECT_EQ(StatusOf(Get(port, "/blackbox")), 503);
  auto statusz = ParseJson(BodyOf(Get(port, "/statusz")));
  ASSERT_TRUE(statusz.ok());
  ASSERT_NE(statusz->Find("progress"), nullptr);
  EXPECT_EQ(statusz->Find("progress")->kind, JsonValue::Kind::kNull);
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

TEST(ObsHttp, UnknownPathIs404) {
  auto engine = MakeServingEngine(kPrim);
  EXPECT_EQ(StatusOf(Get(engine->obs_http_port(), "/nope")), 404);
}

TEST(ObsHttp, NonGetMethodsGet405WithAllow) {
  auto engine = MakeServingEngine(kPrim);
  const uint16_t port = engine->obs_http_port();
  const std::string resp =
      Fetch(port, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusOf(resp), 405);
  EXPECT_NE(resp.find("Allow: GET, HEAD"), std::string::npos);
  EXPECT_EQ(StatusOf(Fetch(port, "DELETE / HTTP/1.1\r\n\r\n")), 405);
}

TEST(ObsHttp, HeadSuppressesBodyButKeepsLength) {
  auto engine = MakeServingEngine(kPrim);
  const std::string resp = Fetch(engine->obs_http_port(),
                                 "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_NE(resp.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(BodyOf(resp), "");
}

TEST(ObsHttp, MalformedRequestLineIs400) {
  auto engine = MakeServingEngine(kPrim);
  EXPECT_EQ(StatusOf(Fetch(engine->obs_http_port(), "BOGUS\r\n\r\n")), 400);
}

TEST(ObsHttp, OversizedRequestLineIs414) {
  auto engine = MakeServingEngine(kPrim);
  const std::string resp =
      Fetch(engine->obs_http_port(),
            "GET /" + std::string(8192, 'a') + " HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(resp), 414);
}

TEST(ObsHttp, OversizedHeadersAre431EvenWithoutBlankLine) {
  auto engine = MakeServingEngine(kPrim);
  // 2 MiB of headers, never terminated: the bounded parser must answer
  // 431 as soon as the limit trips, not buffer forever.
  std::string raw = "GET /metrics HTTP/1.1\r\n";
  while (raw.size() < (2u << 20)) {
    raw += "X-Flood: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  const int fd = Connect(engine->obs_http_port());
  ASSERT_GE(fd, 0);
  // The server may close mid-send once the limit trips; that's success.
  (void)SendAll(fd, raw);
  const std::string resp = RecvAll(fd);
  ::close(fd);
  EXPECT_EQ(StatusOf(resp), 431) << resp.substr(0, 120);
}

TEST(ObsHttp, Http2PrefaceIsRejected) {
  auto engine = MakeServingEngine(kPrim);
  const std::string resp =
      Fetch(engine->obs_http_port(),
            "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n");
  EXPECT_EQ(StatusOf(resp), 505);
}

TEST(ObsHttp, SlowClientTimesOutWith408) {
  EngineOptions options;
  options.obs_http.read_timeout_ms = 200;  // keep the test fast
  auto engine = MakeServingEngine(kPrim, options);
  const int fd = Connect(engine->obs_http_port());
  ASSERT_GE(fd, 0);
  // Send half a request and then stall past the read timeout.
  ASSERT_TRUE(SendAll(fd, "GET /metr"));
  const auto t0 = std::chrono::steady_clock::now();
  const std::string resp = RecvAll(fd);
  ::close(fd);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(StatusOf(resp), 408) << resp.substr(0, 120);
  // Bounded: the worker freed itself near the timeout, not seconds later.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

TEST(ObsHttp, DripFedRequestCannotStallPastDeadline) {
  EngineOptions options;
  options.obs_http.read_timeout_ms = 300;
  auto engine = MakeServingEngine(kPrim, options);
  const int fd = Connect(engine->obs_http_port());
  ASSERT_GE(fd, 0);
  // One byte every 50ms resets a naive per-recv timeout forever; the
  // absolute head deadline must cut the connection off anyway.
  const std::string req = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  const auto t0 = std::chrono::steady_clock::now();
  std::string resp;
  for (char ch : req) {
    if (!SendAll(fd, std::string_view(&ch, 1))) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto waited = std::chrono::steady_clock::now() - t0;
    if (waited > std::chrono::seconds(5)) break;  // test backstop
  }
  resp = RecvAll(fd);
  ::close(fd);
  // Either the drip finished inside the deadline (tiny request) and got
  // 200, or the deadline fired with 408 — it must not hang: the recv
  // returning at all within the harness timeout is the real assertion.
  const int code = StatusOf(resp);
  EXPECT_TRUE(code == 200 || code == 408) << resp.substr(0, 120);
}

TEST(ObsHttp, PathLabelsAreClampedAgainstCardinalityFlooding) {
  auto engine = MakeServingEngine(kPrim);
  const uint16_t port = engine->obs_http_port();
  for (int i = 0; i < 32; ++i) {
    (void)Get(port, "/flood/" + std::to_string(i));
  }
  const std::string body = BodyOf(Get(port, "/metrics"));
  // All 32 probes collapsed onto the "other" label.
  EXPECT_EQ(body.find("path=\"/flood"), std::string::npos);
  EXPECT_NE(body.find("path=\"other\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency: scrapes against a live run (TSan job covers this)
// ---------------------------------------------------------------------------

TEST(ObsHttp, ConcurrentScrapesDuringRun) {
  EngineOptions options;
  options.limits.deadline_ms = 700;  // bounded stop ends the runaway
  auto engine = MakeServingEngine(kRunaway, options);
  const uint16_t port = engine->obs_http_port();

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/statusz", "/blackbox", "/healthz"};
  for (const char* path : paths) {
    scrapers.emplace_back([&, path] {
      while (!done.load(std::memory_order_acquire)) {
        const std::string resp = Get(port, path);
        if (StatusOf(resp) == 200) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // One SSE client riding along for the whole run.
  std::thread sse([&] {
    const std::string resp = Get(port, "/progress");
    EXPECT_EQ(StatusOf(resp), 200);
    EXPECT_NE(resp.find("event: progress"), std::string::npos);
  });

  // A bounded stop surfaces as a DeadlineExceeded status; the engine
  // stays queryable and the server keeps serving.
  const Status st = engine->Run();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_EQ(engine->outcome().reason, TerminationReason::kDeadline);
  done.store(true, std::memory_order_release);
  for (auto& t : scrapers) t.join();
  sse.join();  // stream closed by the run's termination event

  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  // The engine stayed queryable after the bounded stop, and the server
  // still answers: guardrails and the endpoint compose.
  EXPECT_EQ(StatusOf(Get(port, "/healthz")), 200);
  EXPECT_EQ(StatusOf(Get(port, "/runs/last")), 200);
  auto statusz = ParseJson(BodyOf(Get(port, "/statusz")));
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->Find("run_state")->string, "stopped");
}

TEST(ObsHttp, ServerStopsCleanlyWithOpenSseClient) {
  auto engine = MakeServingEngine(kPrim);
  const uint16_t port = engine->obs_http_port();
  // Open a stream that would idle forever (no run -> no termination
  // event), then destroy the engine: Stop() must unblock the stream
  // handler and join without hanging the test.
  const int fd = Connect(port);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "GET /progress HTTP/1.1\r\nHost: t\r\n\r\n"));
  char buf[256];
  ASSERT_GT(::recv(fd, buf, sizeof buf, 0), 0);  // head arrived, stream live
  engine.reset();  // joins server threads
  (void)RecvAll(fd);  // server closed its end
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Atomic metrics export (--metrics-out / .metrics PATH)
// ---------------------------------------------------------------------------

TEST(ObsHttp, WriteMetricsTextIsAtomicAndLeavesNoTempFile) {
  auto engine = MakeServingEngine(kPrim);
  ASSERT_TRUE(engine->Run().ok());
  const std::string path = ::testing::TempDir() + "/gdlog_metrics_atomic.prom";
  std::remove(path.c_str());
  ASSERT_TRUE(engine->WriteMetricsText(path).ok());
  // The temp file used for the atomic rename must be gone.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(text.find("gdlog_build_info"), std::string::npos);
  // A second write over the same path replaces it whole, never truncates
  // in place: a concurrent scraper sees old-or-new, not a torn file.
  ASSERT_TRUE(engine->WriteMetricsText(path).ok());
  std::remove(path.c_str());
}

TEST(ObsHttp, WriteMetricsTextFailsCleanlyOnBadDirectory) {
  auto engine = MakeServingEngine(kPrim);
  const std::string path =
      ::testing::TempDir() + "/no_such_dir_gdlog/metrics.prom";
  EXPECT_FALSE(engine->WriteMetricsText(path).ok());
  // Neither the target nor a stray temp file may exist afterwards.
  EXPECT_EQ(std::fopen(path.c_str(), "rb"), nullptr);
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
}

// ---------------------------------------------------------------------------
// Flight-recorder ring semantics the SSE stream and the ticker build on
// ---------------------------------------------------------------------------

/// Records a `round` event with a0, a1, round and tuples all equal to `i`.
void RecordRound(FlightRecorder* rec, uint64_t i) {
  RunCounters run;
  run.round = i;
  run.tuples = i;
  rec->Record(FlightEventKind::kRound, static_cast<int64_t>(i),
              static_cast<int64_t>(i), run);
}

TEST(FlightRecorder, SinceReturnsOnlyNewEventsInOrder) {
  FlightRecorder rec(/*capacity=*/8);
  for (uint64_t i = 1; i <= 3; ++i) RecordRound(&rec, i);
  const auto all = rec.Since(0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].run.round, 1u);
  EXPECT_EQ(all[2].run.round, 3u);
  const auto tail = rec.Since(all[1].seq);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].run.round, 3u);
  EXPECT_TRUE(rec.Since(all[2].seq).empty());
}

TEST(FlightRecorder, LappedReaderSkipsToOldestRetained) {
  FlightRecorder rec(/*capacity=*/4);
  for (uint64_t i = 1; i <= 100; ++i) RecordRound(&rec, i);
  const auto events = rec.Since(0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().run.round, 97u);
  EXPECT_EQ(events.back().run.round, 100u);
  // A cursor the writer lapped resumes at the oldest retained event.
  EXPECT_EQ(rec.Since(/*after_seq=*/5).front().run.round, 97u);
  // The last progress event skips newer non-progress events.
  rec.Record(FlightEventKind::kChoiceReject, 0, 0);
  FlightRecorder::Event last;
  ASSERT_TRUE(rec.LastProgress(&last));
  EXPECT_EQ(last.run.round, 100u);
}

TEST(FlightRecorder, JsonRendersKindNamesAndTermination) {
  FlightRecorder::Event e;
  e.seq = 9;
  e.kind = FlightEventKind::kTermination;
  e.a0 = static_cast<int64_t>(TerminationReason::kCompleted);
  e.run.round = 4;
  const std::string json = FlightEventJson(e);
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  EXPECT_EQ(doc->Find("kind")->string, "termination");
  EXPECT_EQ(doc->Find("termination")->string, "completed");
  EXPECT_EQ(doc->Find("seq")->number, 9);
  EXPECT_EQ(doc->Find("round")->number, 4);
  // A round event's delta_rows is its a0; other kinds have none.
  e.kind = FlightEventKind::kRound;
  e.a0 = 17;
  auto round = ParseJson(FlightEventJson(e));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Find("delta_rows")->number, 17);
  EXPECT_EQ(round->Find("termination"), nullptr);
}

TEST(FlightRecorder, ConcurrentReadersSeeOnlyConsistentEvents) {
  // One writer lapping a tiny ring while readers poll: torn reads would
  // surface as events whose fields disagree.
  FlightRecorder rec(/*capacity=*/4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t cursor = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (const FlightRecorder::Event& e : rec.Since(cursor)) {
          cursor = e.seq;
          // The writer keeps a0 == a1 == round == tuples; any slot torn
          // mid-write would break the equality.
          ASSERT_EQ(e.kind, FlightEventKind::kRound);
          ASSERT_EQ(static_cast<uint64_t>(e.a0), e.run.round);
          ASSERT_EQ(e.a1, e.a0);
          ASSERT_EQ(e.run.round, e.run.tuples);
        }
      }
    });
  }
  for (uint64_t i = 1; i <= 200000; ++i) RecordRound(&rec, i);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(rec.recorded(), 200000u);
}

TEST(FlightRecorder, SinceNeverSkipsAnUnpublishedEvent) {
  // An evaluation-style writer and a second writer (as RequestCancel is)
  // share a ring that never laps while a reader polls. A reader that
  // stepped past a claimed-but-unpublished slot would lose that event
  // for good: its cursor must advance one event at a time, and the
  // rounds it saw must be exactly those the final snapshot holds.
  constexpr uint64_t kRounds = 100000;
  constexpr uint64_t kCancels = 100000;
  FlightRecorder rec(/*capacity=*/1u << 18);
  ASSERT_GT(rec.capacity(), kRounds + kCancels);
  std::atomic<bool> done{false};
  // The writers pause between events, as the evaluation loop does between
  // rounds, so the reader keeps up and polls at the ring's frontier, where
  // one writer's slot can still be unpublished while the other's is not.
  auto pause = [&done] {
    for (int k = 0; k < 1500; ++k) (void)done.load(std::memory_order_relaxed);
  };
  std::vector<uint64_t> seen;
  std::thread reader([&] {
    uint64_t cursor = 0;
    for (;;) {
      const bool last_pass = done.load(std::memory_order_acquire);
      for (const FlightRecorder::Event& e : rec.Since(cursor)) {
        ASSERT_EQ(e.seq, cursor + 1);
        cursor = e.seq;
        if (e.kind == FlightEventKind::kRound) seen.push_back(e.seq);
      }
      if (last_pass) return;
    }
  });
  std::thread canceller([&] {
    for (uint64_t i = 0; i < kCancels; ++i) {
      rec.Record(FlightEventKind::kCancelRequested);
      pause();
    }
  });
  for (uint64_t i = 1; i <= kRounds; ++i) {
    RecordRound(&rec, i);
    pause();
  }
  canceller.join();
  done.store(true, std::memory_order_release);
  reader.join();

  std::vector<uint64_t> want;
  for (const FlightRecorder::Event& e : rec.Snapshot()) {
    if (e.kind == FlightEventKind::kRound) want.push_back(e.seq);
  }
  EXPECT_EQ(want.size(), kRounds);
  EXPECT_EQ(seen, want);
}

}  // namespace
}  // namespace gdlog
