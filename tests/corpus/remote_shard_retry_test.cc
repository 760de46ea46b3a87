// RemoteShard transport-retry contract, pinned at the socket level:
//   * a connection the server drops AFTER the request is written (half-close
//     mid-response) is retried on a fresh connection exactly `retries` more
//     times — with retries=1 that is exactly one retry — and only when the
//     retry fails too does the replica's error epoch bump;
//   * a retry that succeeds leaves the epoch untouched (the caller never saw
//     a failure, so the health stats must not claim one);
//   * a POOLED connection found half-closed between calls is discarded for
//     free — it burns neither a wire request nor the fresh-dial retry budget
//     (the keep-alive server legitimately recycles idle connections).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "src/corpus/remote_corpus.h"
#include "src/server/http_server.h"

namespace yask {
namespace {

/// A raw TCP server that reads each connection's request headers and then
/// either DROPS the connection (half-close: the request was written, no
/// response ever comes) or answers a minimal HTTP 200 and keeps serving the
/// connection. The first `drop_first` connections are dropped.
class HalfCloseServer {
 public:
  explicit HalfCloseServer(int drop_first) : drop_first_(drop_first) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_OK(listen_fd_ >= 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_OK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0);
    ASSERT_OK(::listen(listen_fd_, 16) == 0);
    socklen_t len = sizeof(addr);
    ASSERT_OK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~HalfCloseServer() { Stop(); }

  void Stop() {
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  int connections() const { return connections_.load(); }

 private:
  static void ASSERT_OK(bool ok) { ASSERT_TRUE(ok) << "socket setup failed"; }

  static bool ReadRequest(int fd) {
    std::string raw;
    char buf[4096];
    while (raw.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      raw.append(buf, static_cast<size_t>(n));
    }
    return true;  // Shard requests in this test carry no body.
  }

  void Serve() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // Stopped.
      const int index = connections_.fetch_add(1);
      if (!ReadRequest(fd)) {
        ::close(fd);
        continue;
      }
      if (index < drop_first_) {
        ::close(fd);  // The half-close: request read, connection dropped.
        continue;
      }
      // Serve this connection for as long as the client keeps it.
      do {
        const char resp[] = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        (void)!::send(fd, resp, sizeof(resp) - 1, MSG_NOSIGNAL);
      } while (ReadRequest(fd));
      ::close(fd);
    }
  }

  int drop_first_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<int> connections_{0};
  std::thread thread_;
};

RemoteShardOptions FastOptions(int retries) {
  RemoteShardOptions options;
  options.connect_timeout_ms = 1000;
  options.call_deadline_ms = 2000;
  options.retries = retries;
  return options;
}

TEST(RemoteShardRetryTest, HalfCloseRetriesExactlyOnceThenBumpsEpoch) {
  HalfCloseServer server(/*drop_first=*/1000);  // Every connection drops.
  RemoteShard shard("127.0.0.1", server.port(), FastOptions(/*retries=*/1));

  auto result = shard.Call("POST", "/shard/topk", "");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // retries=1: the initial attempt plus exactly one fresh-connection retry.
  EXPECT_EQ(shard.requests(), 2u);
  // Both attempts failed -> ONE failed call -> epoch 1 (not 2: attempts are
  // not failures, calls are).
  EXPECT_EQ(shard.error_epoch(), 1u);

  // A second call repeats the contract and counts a second failure.
  result = shard.Call("POST", "/shard/topk", "");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(shard.requests(), 4u);
  EXPECT_EQ(shard.error_epoch(), 2u);
}

TEST(RemoteShardRetryTest, SuccessfulRetryLeavesEpochUntouched) {
  HalfCloseServer server(/*drop_first=*/1);  // First connection drops.
  RemoteShard shard("127.0.0.1", server.port(), FastOptions(/*retries=*/1));

  auto result = shard.Call("POST", "/shard/topk", "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "ok");
  EXPECT_EQ(shard.requests(), 2u);   // Dropped attempt + successful retry.
  EXPECT_EQ(shard.error_epoch(), 0u);  // The caller never saw a failure.
}

TEST(RemoteShardRetryTest, StalePooledConnectionBurnsNoBudget) {
  auto server = std::make_unique<HttpServer>(uint16_t{0}, /*num_workers=*/2);
  server->Route("POST", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->bound_port();

  // retries=0: NO fresh-dial retry budget. If the stale pooled connection
  // consumed an attempt, the second call would have nothing left and fail.
  RemoteShard shard("127.0.0.1", port, FastOptions(/*retries=*/0));
  auto result = shard.Call("POST", "/ping", "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(shard.requests(), 1u);

  // Kill the server; the pooled keep-alive connection is now half-closed.
  server->Stop();
  server.reset();
  auto revived = std::make_unique<HttpServer>(port, /*num_workers=*/2);
  revived->Route("POST", "/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(revived->Start().ok());

  result = shard.Call("POST", "/ping", "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The dead pooled socket was detected and discarded WITHOUT writing a
  // request: exactly one more wire request, no failure recorded.
  EXPECT_EQ(shard.requests(), 2u);
  EXPECT_EQ(shard.error_epoch(), 0u);
  revived->Stop();
}

}  // namespace
}  // namespace yask
