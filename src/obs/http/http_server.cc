#include "obs/http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>

namespace gdlog {

namespace {

void SetTimeout(int fd, int optname, uint32_t ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

/// send() with MSG_NOSIGNAL (a dead client must surface as EPIPE, not
/// SIGPIPE) and short-write handling. False on error or timeout.
bool SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool HttpStream::Write(std::string_view data) {
  if (ShouldStop()) return false;
  if (!SendAll(fd_, data)) {
    failed_ = true;
    return false;
  }
  return true;
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::HandleGet(std::string path, Handler handler) {
  handlers_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::HandleGetStream(std::string path, StreamHandler handler) {
  stream_handlers_.emplace_back(std::move(path), std::move(handler));
}

Status HttpServer::Start() {
  if (running_.load()) return Status::InvalidArgument("server already running");
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind " + options_.bind_address + ":" +
                            std::to_string(options_.port) + ": " +
                            std::strerror(err));
  }
  if (::listen(listen_fd_, static_cast<int>(kBacklog)) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("listen: ") + std::strerror(err));
  }
  // Resolve the ephemeral port before any client can connect.
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }

  for (std::atomic<int>& fd : active_fds_) fd.store(-1);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(kWorkers);
  for (uint32_t i = 0; i < kWorkers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown() wakes the accept thread out of accept(). The listener is
  // closed (and listen_fd_ reset) only after that thread is joined, so
  // it never reads a changing listen_fd_ or accepts on a reused fd number.
  ::shutdown(listen_fd_, SHUT_RDWR);
  // Unblock workers stuck in recv/send on a live connection (includes
  // any in-flight SSE stream, which also polls ShouldStop).
  for (const std::atomic<int>& active : active_fds_) {
    const int fd = active.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Drain connections that were queued but never picked up.
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed or broken beyond retry
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    SetTimeout(fd, SO_RCVTIMEO, options_.read_timeout_ms);
    SetTimeout(fd, SO_SNDTIMEO, kWriteTimeoutMs);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() < kQueueDepth) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      cv_.notify_one();
    } else {
      // Load shedding: every worker busy and the queue full. Close
      // rather than stall — scrapers retry, and a pile of parked
      // sockets is exactly the state a hostile client wants.
      shed_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop(size_t slot) {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    active_fds_[slot].store(fd, std::memory_order_release);
    ServeConnection(fd, slot);
    active_fds_[slot].store(-1, std::memory_order_release);
    ::close(fd);
  }
}

void HttpServer::SendResponse(int fd, const HttpRequest* req,
                              const HttpResponse& resp) {
  const std::string head = BuildHttpResponseHead(
      resp.status, resp.content_type, resp.body.size(), resp.extra_headers);
  if (!SendAll(fd, head)) return;
  if (req == nullptr || req->method != "HEAD") SendAll(fd, resp.body);
}

void HttpServer::ServeConnection(int fd, size_t slot) {
  (void)slot;
  if (stopping_.load(std::memory_order_acquire)) return;
  std::string buf;
  buf.reserve(512);
  HttpRequest req;
  size_t consumed = 0;
  char chunk[1024];
  // Overall head deadline: the per-recv SO_RCVTIMEO resets on every
  // byte, so a drip-feeding client could otherwise hold a worker for
  // limits.max_head_bytes * timeout. One absolute deadline bounds it.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.read_timeout_ms);
  for (;;) {
    const HttpParseStatus ps =
        ParseHttpRequest(buf, options_.limits, &req, &consumed);
    if (ps == HttpParseStatus::kOk) break;
    if (ps != HttpParseStatus::kIncomplete) {
      int status = 400;
      if (ps == HttpParseStatus::kUriTooLong) status = 414;
      if (ps == HttpParseStatus::kHeadersTooLarge) status = 431;
      if (ps == HttpParseStatus::kBadVersion) status = 505;
      HttpResponse resp;
      resp.status = status;
      resp.body = std::string(HttpReasonPhrase(status)) + "\n";
      SendResponse(fd, nullptr, resp);
      if (observer_) observer_(status, "(malformed)");
      return;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      HttpResponse resp;
      resp.status = 408;
      resp.body = "Request Timeout\n";
      SendResponse(fd, nullptr, resp);
      if (observer_) observer_(408, "(timeout)");
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Timeout (EAGAIN/EWOULDBLOCK), client reset, or half-open close
      // before a full head arrived: answer 408 best-effort for the
      // timeout case and drop the connection either way.
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          !stopping_.load(std::memory_order_acquire)) {
        HttpResponse resp;
        resp.status = 408;
        resp.body = "Request Timeout\n";
        SendResponse(fd, nullptr, resp);
        if (observer_) observer_(408, "(timeout)");
      }
      return;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }

  served_.fetch_add(1, std::memory_order_relaxed);

  if (req.method != "GET" && req.method != "HEAD") {
    HttpResponse resp;
    resp.status = 405;
    resp.body = "Method Not Allowed\n";
    resp.extra_headers.emplace_back("Allow", "GET, HEAD");
    SendResponse(fd, &req, resp);
    if (observer_) observer_(405, req.path);
    return;
  }

  for (const auto& [path, handler] : stream_handlers_) {
    if (req.path != path) continue;
    if (req.method == "HEAD") {
      // A HEAD of a stream endpoint answers the head only.
      SendAll(fd, "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
                  "Cache-Control: no-store\r\nConnection: close\r\n\r\n");
      if (observer_) observer_(200, req.path);
      return;
    }
    if (!SendAll(fd, "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
                     "Cache-Control: no-store\r\nConnection: close\r\n\r\n")) {
      return;
    }
    HttpStream stream(fd, &stopping_);
    handler(req, &stream);
    if (observer_) observer_(200, req.path);
    return;
  }

  for (const auto& [path, handler] : handlers_) {
    if (req.path != path) continue;
    HttpResponse resp;
    try {
      resp = handler(req);
    } catch (const std::exception&) {
      resp = HttpResponse{};
      resp.status = 500;
      resp.body = "Internal Server Error\n";
    }
    SendResponse(fd, &req, resp);
    if (observer_) observer_(resp.status, req.path);
    return;
  }

  HttpResponse resp;
  resp.status = 404;
  resp.body = "Not Found\n";
  SendResponse(fd, &req, resp);
  if (observer_) observer_(404, req.path);
}

}  // namespace gdlog
