// Minimal dependency-free HTTP/1.1 server (POSIX sockets) for the
// observability endpoints.
//
// Design: one accept thread plus a small fixed worker pool. Accepted
// connections go through a bounded queue; when the queue is full the
// connection is closed immediately (load shedding — a scraper retries,
// and the engine's run must never wait on slow readers). Every
// connection is read with a receive timeout, parsed under the bounded
// HttpLimits, answered, and closed (Connection: close — no keep-alive,
// which keeps state machines trivial and hostile clients cheap).
//
// Handlers come in two shapes: plain (return a full HttpResponse) and
// streaming (take over the socket via HttpStream — used for the
// Server-Sent Events /progress endpoint). Streaming handlers must poll
// HttpStream::ShouldStop() so Stop() can complete promptly; Stop() also
// shuts down in-flight sockets so blocked sends return.
//
// The server is idle-cheap by construction: all threads block in
// accept()/queue-wait when no client is connected, so an enabled-but-
// unscraped server costs zero CPU on the evaluation path (the
// obs_overhead_test serve arm keeps that honest).
#ifndef GDLOG_OBS_HTTP_HTTP_SERVER_H_
#define GDLOG_OBS_HTTP_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/http/http_parser.h"

namespace gdlog {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Handed to streaming handlers: write chunks directly to the client,
/// observing ShouldStop() between writes.
class HttpStream {
 public:
  HttpStream(int fd, const std::atomic<bool>* stopping)
      : fd_(fd), stopping_(stopping) {}

  /// Sends raw bytes; false once the client disconnected, a write timed
  /// out, or the server is stopping (stop writing and return).
  bool Write(std::string_view data);
  bool ShouldStop() const {
    return failed_ || stopping_->load(std::memory_order_acquire);
  }

 private:
  int fd_;
  const std::atomic<bool>* stopping_;
  bool failed_ = false;
};

class HttpServer {
 public:
  /// Worker threads, the listen backlog, accepted connections waiting
  /// for a worker (more are closed), and the send timeout.
  static constexpr uint32_t kWorkers = 2;
  static constexpr uint32_t kBacklog = 16;
  static constexpr uint32_t kQueueDepth = 16;
  static constexpr uint32_t kWriteTimeoutMs = 5000;

  struct Options {
    /// Loopback by default: the endpoint exposes internals and carries
    /// no authentication; binding wider is an explicit choice.
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral (read back via port())
    uint32_t read_timeout_ms = 5000;
    HttpLimits limits;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  using StreamHandler = std::function<void(const HttpRequest&, HttpStream*)>;

  explicit HttpServer(Options options);
  ~HttpServer();  // implies Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Exact-path GET handlers (HEAD is answered from the same handler
  /// with the body suppressed). Register before Start.
  void HandleGet(std::string path, Handler handler);
  void HandleGetStream(std::string path, StreamHandler handler);

  /// Binds, listens, and starts the accept/worker threads.
  Status Start();
  /// Graceful shutdown: stops accepting, wakes idle workers, shuts down
  /// in-flight connections, joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolves ephemeral port 0); 0 before Start.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Connections accepted / requests answered / connections shed at the
  /// full queue, since Start.
  uint64_t connections_accepted() const { return accepted_.load(); }
  uint64_t requests_served() const { return served_.load(); }
  uint64_t connections_shed() const { return shed_.load(); }

  /// Observer invoked after every answered request (status code and
  /// path) — the hook the obs layer uses to count http.requests metrics.
  /// Must be thread-safe; set before Start.
  void set_request_observer(std::function<void(int, const std::string&)> fn) {
    observer_ = std::move(fn);
  }

 private:
  void AcceptLoop();
  void WorkerLoop(size_t slot);
  void ServeConnection(int fd, size_t slot);
  /// Sends head+body honoring the write timeout; best-effort.
  void SendResponse(int fd, const HttpRequest* req, const HttpResponse& resp);

  Options options_;
  std::vector<std::pair<std::string, Handler>> handlers_;
  std::vector<std::pair<std::string, StreamHandler>> stream_handlers_;
  std::function<void(int, const std::string&)> observer_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  /// fd each worker is currently serving (-1 idle); Stop shuts these
  /// down so blocked reads/writes return promptly.
  std::atomic<int> active_fds_[kWorkers];

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace gdlog

#endif  // GDLOG_OBS_HTTP_HTTP_SERVER_H_
