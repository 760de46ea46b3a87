#include "src/server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/server/http_client.h"
#include "src/server/json.h"

namespace yask {

HttpResponse HttpResponse::Error(int status, const std::string& message) {
  return HttpResponse{status, "application/json",
                      "{\"error\":" + JsonEscape(message) + "}"};
}

namespace {

/// Hard limits the shard endpoints rely on between nodes: a peer cannot make
/// the server buffer unbounded header or body bytes.
constexpr size_t kMaxHeaderBytes = 1u << 20;
constexpr size_t kMaxBodyBytes = 32u << 20;
/// How long a request/response may stall mid-transfer before the connection
/// drops (a peer dripping bytes — or refusing to read its response — cannot
/// hold its buffers forever).
constexpr int kRequestStallMs = 10000;
/// epoll_wait timeout: how often the loop sweeps deadlines with no traffic.
constexpr int kSweepTickMs = 100;

/// epoll user-data tags for the two non-connection fds.
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kWakeTag = 2;

enum class ParseResult {
  kNeedMore,        // Buffered bytes don't hold a full request yet.
  kComplete,        // One full request parsed (and consumed from the buffer).
  kMalformed,       // Unparseable framing: answer 400 and drop.
  kHeadersTooLarge, // Header block over the limit: answer 431 and drop.
  kBodyTooLarge,    // Declared Content-Length over the limit: 413 and drop.
};

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "OK";
  }
}

std::string SerializeResponse(const HttpResponse& resp, bool close_after) {
  std::ostringstream out;
  out << "HTTP/1.1 " << resp.status << ' ' << StatusText(resp.status)
      << "\r\nContent-Type: " << resp.content_type
      << "\r\nContent-Length: " << resp.body.size() << "\r\nConnection: "
      << (close_after ? "close" : "keep-alive") << "\r\n\r\n" << resp.body;
  return out.str();
}

}  // namespace

/// Per-connection state, owned by the event loop thread. While a request is
/// with a worker (kProcessing) the connection's epoll events are masked off;
/// the worker hands back a serialised response via the completion queue and
/// never touches this struct.
struct HttpServer::Conn {
  enum class State { kReading, kProcessing, kWriting };

  int fd = -1;
  uint64_t id = 0;
  State state = State::kReading;
  std::string in;     // Buffered request bytes (may hold pipelined extras).
  std::string out;    // Response bytes being written.
  size_t out_off = 0;
  bool close_after = false;
  /// Peer hung up while a worker held its request: the fd has been
  /// deregistered from epoll (HUP/ERR cannot be masked and would otherwise
  /// spin the loop) and the connection is closed when the completion lands.
  bool doomed = false;
  int64_t idle_since = 0;  // Last activity; drives the idle sweep.
  int64_t deadline = 0;    // Stall deadline for the transfer in flight; 0 off.

  // Incremental parse state: the header block is located and parsed ONCE,
  // and the terminator search only covers newly appended bytes — a 32 MiB
  // body must not rescan the buffer per chunk.
  size_t scanned = 0;
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  bool have_length = false;
  std::string request_line;
  std::string connection_hdr;
  std::map<std::string, std::string> headers;

  void ResetParse() {
    scanned = 0;
    header_end = std::string::npos;
    content_length = 0;
    have_length = false;
    request_line.clear();
    connection_hdr.clear();
    headers.clear();
  }

  /// Tries to parse one full request (header block + Content-Length body)
  /// off `in`. On kComplete the request's bytes are consumed from the buffer
  /// (pipelined leftovers stay) and the parse state is reset for the next.
  ParseResult TryParse(HttpRequest* req, bool* keep_alive);
};

ParseResult HttpServer::Conn::TryParse(HttpRequest* req, bool* keep_alive) {
  Conn* c = this;
  std::string* buffer = &c->in;
  if (c->header_end == std::string::npos && buffer->size() > c->scanned) {
    // Resume the terminator search 3 bytes back: "\r\n\r\n" may straddle
    // the previous chunk boundary.
    const size_t from = c->scanned < 3 ? 0 : c->scanned - 3;
    c->header_end = buffer->find("\r\n\r\n", from);
    c->scanned = buffer->size();
    if (c->header_end != std::string::npos) {
      std::istringstream hs(buffer->substr(0, c->header_end));
      std::string line;
      std::getline(hs, line);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      c->request_line = line;
      while (std::getline(hs, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        const std::string lower = ToLowerAscii(line);
        if (StartsWith(lower, "content-length:")) {
          uint64_t v = 0;
          if (ParseUint64(Trim(line.substr(15)), &v)) {
            c->content_length = static_cast<size_t>(v);
            c->have_length = true;
          }
        } else if (StartsWith(lower, "connection:")) {
          c->connection_hdr = Trim(lower.substr(11));
        }
        const size_t colon = line.find(':');
        if (colon != std::string::npos && colon > 0) {
          c->headers[ToLowerAscii(line.substr(0, colon))] =
              Trim(line.substr(colon + 1));
        }
      }
      if (c->content_length > kMaxBodyBytes) return ParseResult::kBodyTooLarge;
    } else if (buffer->size() > kMaxHeaderBytes) {
      return ParseResult::kHeadersTooLarge;
    }
  }

  if (c->header_end == std::string::npos) return ParseResult::kNeedMore;
  const size_t body_have = buffer->size() - (c->header_end + 4);
  if (c->have_length && body_have < c->content_length) {
    return ParseResult::kNeedMore;
  }

  // Request line: METHOD SP TARGET SP VERSION.
  std::vector<std::string> parts = SplitWhitespace(c->request_line);
  if (parts.size() < 2) return ParseResult::kMalformed;
  *req = HttpRequest{};
  req->method = parts[0];
  std::string target = parts[1];
  const size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    const std::string qs = target.substr(qpos + 1);
    target = target.substr(0, qpos);
    for (const std::string& kv : Split(qs, '&')) {
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        req->query_params[UrlDecode(kv)] = "";
      } else {
        req->query_params[UrlDecode(kv.substr(0, eq))] =
            UrlDecode(kv.substr(eq + 1));
      }
    }
  }
  req->path = UrlDecode(target);
  req->headers = std::move(c->headers);
  const size_t body_len = c->have_length ? c->content_length : 0;
  req->body = buffer->substr(c->header_end + 4, body_len);
  buffer->erase(0, c->header_end + 4 + body_len);
  // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
  const bool http11 = parts.size() < 3 || parts[2] == "HTTP/1.1";
  *keep_alive = http11 ? c->connection_hdr != "close"
                       : c->connection_hdr == "keep-alive";
  c->ResetParse();
  return ParseResult::kComplete;
}

HttpServer::HttpServer(uint16_t port, size_t num_workers,
                       int keep_alive_idle_ms)
    : port_(port),
      num_workers_(num_workers == 0 ? 1 : num_workers),
      keep_alive_idle_ms_(keep_alive_idle_ms < 500 ? 500
                                                   : keep_alive_idle_ms) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& method, const std::string& path,
                       Handler handler) {
  routes_[{method, path}] = std::move(handler);
}

void HttpServer::RoutePrefix(const std::string& method,
                             const std::string& prefix, Handler handler) {
  prefix_routes_[{method, prefix}] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("bind() failed: " +
                               std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 256) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("listen() failed");
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("epoll_create1()/eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  loop_exit_.store(false);
  loop_thread_ = std::thread(&HttpServer::EventLoop, this);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back(&HttpServer::WorkerLoop, this);
  }
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  // The loop closes the listener as soon as it observes running_ == false
  // (the next wake), releasing the port before Stop() returns.
  Wake();
  // Abandon the queued backlog — serving it would make Stop() latency
  // unbounded under load — and let each worker finish only the request it
  // already holds. Their final completions still land in done_, which the
  // loop flushes before tearing the connections down.
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.clear();
  }
  task_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  loop_exit_.store(true);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void HttpServer::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void HttpServer::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(task_mu_);
      task_cv_.wait(lock, [&] { return !tasks_.empty() || !running_.load(); });
      // On Stop(), exit even with requests still queued: Stop() cleared the
      // backlog and the loop closes their connections unserved.
      if (!running_.load()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    HttpResponse resp = Dispatch(task.req);
    const bool close_after = !task.keep_alive;
    Completion completion{task.conn_id, SerializeResponse(resp, close_after),
                          close_after};
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(std::move(completion));
    }
    Wake();
  }
}

HttpResponse HttpServer::Dispatch(const HttpRequest& req) const {
  auto it = routes_.find({req.method, req.path});
  if (it != routes_.end()) return it->second(req);
  // Longest matching prefix wins (the map iterates shortest first).
  const Handler* prefix_handler = nullptr;
  size_t best_len = 0;
  for (const auto& [key, handler] : prefix_routes_) {
    if (key.first == req.method && req.path.size() > key.second.size() &&
        req.path.compare(0, key.second.size(), key.second) == 0 &&
        key.second.size() >= best_len) {
      best_len = key.second.size();
      prefix_handler = &handler;
    }
  }
  if (prefix_handler != nullptr) return (*prefix_handler)(req);
  // Distinguish an unknown resource from a known one addressed with the
  // wrong method.
  bool path_known = false;
  for (const auto& [key, handler] : routes_) {
    if (key.second == req.path) {
      path_known = true;
      break;
    }
  }
  for (const auto& [key, handler] : prefix_routes_) {
    if (!path_known && req.path.size() > key.second.size() &&
        req.path.compare(0, key.second.size(), key.second) == 0) {
      path_known = true;
    }
  }
  return path_known ? HttpResponse::Error(405, "method not allowed")
                    : HttpResponse::Error(404, "no such endpoint");
}

void HttpServer::EventLoop() {
  std::vector<epoll_event> events(128);
  while (true) {
    if (!running_.load() && listen_fd_ >= 0) {
      // Stop() in progress: release the port now (closing deregisters the
      // fd from epoll); in-flight requests keep draining below.
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (loop_exit_.load()) break;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), kSweepTickMs);
    FlushCompletions();
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptReady();
      } else if (tag == kWakeTag) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
      } else {
        auto it = conns_.find(tag);
        if (it == conns_.end()) continue;
        Conn* c = it->second.get();
        if (c->state == Conn::State::kProcessing) {
          // A worker owns this request; the fd's events are masked, but
          // HUP/ERR cannot be masked and are level-triggered — left
          // registered, a dead peer would wake epoll_wait on every
          // iteration and busy-spin the loop for the whole handler run.
          // Deregister and let the completion path discard the response.
          if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 && !c->doomed) {
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
            c->doomed = true;
          }
          continue;
        }
        const uint32_t ev = events[i].events;
        bool alive = true;
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0 &&
            (ev & (EPOLLIN | EPOLLOUT)) == 0) {
          alive = false;
        } else if (c->state == Conn::State::kReading && (ev & EPOLLIN) != 0) {
          alive = ReadReady(c);
        } else if (c->state == Conn::State::kWriting &&
                   (ev & EPOLLOUT) != 0) {
          alive = ContinueWrite(c);
        } else if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          alive = false;
        }
        if (!alive) CloseConn(tag);
      }
    }
    SweepDeadlines();
  }
  // Teardown: flush the workers' final responses (best-effort — sockets are
  // nonblocking, whatever doesn't fit is dropped), then close everything.
  FlushCompletions();
  for (auto& [id, c] : conns_) {
    ::shutdown(c->fd, SHUT_RDWR);
    ::close(c->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::close(wake_fd_);
  wake_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
}

void HttpServer::AcceptReady() {
  while (running_.load()) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN (drained) or a transient error.
    // TCP_NODELAY matters because the remote-shard RPC path rides many small
    // request/response pairs on one connection.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->id = next_conn_id_++;
    c->idle_since = NowMillis();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(c->id, std::move(c));
  }
}

void HttpServer::FlushCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // Peer vanished while processing.
    Conn* c = it->second.get();
    if (c->doomed) {
      // Peer hung up mid-handler; its fd is already out of epoll. There is
      // nobody to write to — drop the response with the connection.
      CloseConn(completion.conn_id);
      continue;
    }
    if (!StartWrite(c, std::move(completion.bytes), completion.close_after)) {
      CloseConn(completion.conn_id);
    }
  }
}

void HttpServer::SweepDeadlines() {
  const int64_t now = NowMillis();
  std::vector<uint64_t> doomed;
  for (auto& [id, c] : conns_) {
    switch (c->state) {
      case Conn::State::kProcessing:
        break;  // Handler time is the service's business, not the loop's.
      case Conn::State::kReading:
        if (c->deadline != 0) {
          // Mid-request: a stalled/dripping transfer drops on its deadline.
          if (now >= c->deadline) doomed.push_back(id);
        } else if (now - c->idle_since >= keep_alive_idle_ms_) {
          // Between requests: the idle sweep. These connections never held
          // a worker, so a burst of abandoned peers costs only memory —
          // reaped here so even that is bounded.
          doomed.push_back(id);
          idle_reaped_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case Conn::State::kWriting:
        if (c->deadline != 0 && now >= c->deadline) doomed.push_back(id);
        break;
    }
  }
  for (const uint64_t id : doomed) CloseConn(id);
}

void HttpServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second->fd);  // Closing deregisters the fd from epoll.
  conns_.erase(it);
}

bool HttpServer::ReadReady(Conn* c) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (c->deadline == 0) c->deadline = NowMillis() + kRequestStallMs;
      c->in.append(buf, static_cast<size_t>(n));
      c->idle_since = NowMillis();
      // Let the parser reject an oversized header block before buffering
      // arbitrarily more of it.
      if (c->header_end == std::string::npos &&
          c->in.size() > kMaxHeaderBytes) {
        break;
      }
      continue;
    }
    if (n == 0) {
      // EOF: answer a request the peer completed before it half-closed
      // (what it left unfinished can never complete).
      return AdvanceRead(c) && c->state != Conn::State::kReading;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return AdvanceRead(c);
}

bool HttpServer::AdvanceRead(Conn* c) {
  HttpRequest req;
  bool keep_alive = false;
  switch (c->TryParse(&req, &keep_alive)) {
    case ParseResult::kNeedMore:
      if (c->in.empty()) {
        c->deadline = 0;  // Between requests: only the idle sweep applies.
      } else if (c->deadline == 0) {
        c->deadline = NowMillis() + kRequestStallMs;
      }
      return true;
    case ParseResult::kComplete: {
      // Hand the request to a worker; mask the fd until the response is on
      // its way (pipelined followers in c->in wait their turn — responses
      // must go out in request order).
      c->state = Conn::State::kProcessing;
      c->deadline = 0;
      epoll_event ev{};
      ev.events = 0;
      ev.data.u64 = c->id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      {
        std::lock_guard<std::mutex> lock(task_mu_);
        tasks_.push_back(Task{c->id, std::move(req), keep_alive});
      }
      task_cv_.notify_one();
      return true;
    }
    case ParseResult::kMalformed:
      return DirectError(c, 400, "bad request");
    case ParseResult::kHeadersTooLarge:
      return DirectError(c, 431, "header block too large");
    case ParseResult::kBodyTooLarge:
      return DirectError(c, 413, "request body too large");
  }
  return false;
}

bool HttpServer::DirectError(Conn* c, int status, const std::string& message) {
  // Framing violations are answered from the loop itself — no worker, and
  // always Connection: close (the byte stream is no longer trustworthy).
  return StartWrite(
      c, SerializeResponse(HttpResponse::Error(status, message), true), true);
}

bool HttpServer::StartWrite(Conn* c, std::string bytes, bool close_after) {
  c->state = Conn::State::kWriting;
  c->out = std::move(bytes);
  c->out_off = 0;
  c->close_after = close_after;
  c->deadline = NowMillis() + kRequestStallMs;
  return ContinueWrite(c);
}

bool HttpServer::ContinueWrite(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
      c->idle_since = NowMillis();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Peer can't take more yet: wait for write-readiness.
      epoll_event ev{};
      ev.events = EPOLLOUT;
      ev.data.u64 = c->id;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // Peer gone; a partial response cannot be resumed.
  }
  if (c->close_after) return false;
  // Response fully written: back to reading (the buffer may already hold the
  // next pipelined request).
  c->state = Conn::State::kReading;
  c->out.clear();
  c->out_off = 0;
  c->idle_since = NowMillis();
  c->deadline = c->in.empty() ? 0 : NowMillis() + kRequestStallMs;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
  return AdvanceRead(c);
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i] == '+' ? ' ' : s[i];
  }
  return out;
}

Result<std::string> HttpFetch(uint16_t port, const std::string& method,
                              const std::string& path_and_query,
                              const std::string& body, int* status_out) {
  // One connect + one Call of the persistent client, closed on return —
  // exactly one implementation of HTTP response framing in the tree.
  HttpClientConnection conn;
  if (Status s = conn.Connect("127.0.0.1", port, /*timeout_ms=*/5000);
      !s.ok()) {
    return s;
  }
  return conn.Call(method, path_and_query, body, /*deadline_ms=*/30000,
                   status_out);
}

}  // namespace yask
