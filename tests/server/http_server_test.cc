#include "src/server/http_server.h"

#include <gtest/gtest.h>

#include "src/server/http_client.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/server/json.h"

namespace yask {
namespace {

/// A blocking client socket connected to 127.0.0.1:`port`; -1 on failure.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(UrlDecode("a%20b"), "a b");
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("%2Fpath"), "/path");
  EXPECT_EQ(UrlDecode("plain"), "plain");
  EXPECT_EQ(UrlDecode("bad%zz"), "bad%zz");  // Invalid escape passthrough.
}

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<HttpServer>(0, 2);
    server_->Route("GET", "/ping", [](const HttpRequest&) {
      return HttpResponse::Json("{\"pong\":true}");
    });
    server_->Route("POST", "/echo", [](const HttpRequest& req) {
      return HttpResponse::Json(req.body);
    });
    server_->Route("GET", "/params", [](const HttpRequest& req) {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : req.query_params) {
        if (!first) out += ",";
        first = false;
        out += JsonEscape(k) + ":" + JsonEscape(v);
      }
      return HttpResponse::Json(out + "}");
    });
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, BindsEphemeralPort) {
  EXPECT_GT(server_->bound_port(), 0);
  EXPECT_TRUE(server_->running());
}

TEST_F(HttpServerTest, GetRoute) {
  int status = 0;
  auto body = HttpFetch(server_->bound_port(), "GET", "/ping", "", &status);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(*body, "{\"pong\":true}");
}

TEST_F(HttpServerTest, PostEchoesBody) {
  const std::string payload = "{\"x\":42}";
  int status = 0;
  auto body =
      HttpFetch(server_->bound_port(), "POST", "/echo", payload, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  EXPECT_EQ(*body, payload);
}

TEST_F(HttpServerTest, QueryParamsParsedAndDecoded) {
  int status = 0;
  auto body = HttpFetch(server_->bound_port(), "GET",
                        "/params?a=1&b=hello%20world", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("\"a\":\"1\""), std::string::npos);
  EXPECT_NE(body->find("\"b\":\"hello world\""), std::string::npos);
}

TEST_F(HttpServerTest, UnknownRouteIs404) {
  int status = 0;
  auto body = HttpFetch(server_->bound_port(), "GET", "/nope", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 404);
}

TEST_F(HttpServerTest, WrongMethodOnKnownPathIs405) {
  int status = 0;
  auto body = HttpFetch(server_->bound_port(), "POST", "/ping", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 405);
}

TEST_F(HttpServerTest, UnknownMethodIs405OnKnownPath404Otherwise) {
  int status = 0;
  auto body = HttpFetch(server_->bound_port(), "BREW", "/ping", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 405);
  body = HttpFetch(server_->bound_port(), "BREW", "/nowhere", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 404);
}

TEST_F(HttpServerTest, ConcurrentRequests) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        int status = 0;
        auto body =
            HttpFetch(server_->bound_port(), "GET", "/ping", "", &status);
        if (body.ok() && status == 200 && *body == "{\"pong\":true}") {
          ++ok_count;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
}

TEST_F(HttpServerTest, StopIsIdempotent) {
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

TEST(HttpServerLifecycleTest, RestartOnNewInstance) {
  HttpServer a(0, 1);
  a.Route("GET", "/x", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(a.Start().ok());
  const uint16_t port = a.bound_port();
  a.Stop();
  // Port released: a new server can bind it again.
  HttpServer b(port, 1);
  b.Route("GET", "/x", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  EXPECT_TRUE(b.Start().ok());
  b.Stop();
}

TEST_F(HttpServerTest, LargeBodyRoundTrips) {
  // 1 MiB body. (Built via constructor + insert to sidestep a GCC 12
  // -Wrestrict false positive on append-after-literal.)
  std::string payload(1 << 20, 'x');
  payload.insert(0, "{\"blob\":\"");
  payload += "\"}";
  int status = 0;
  auto body =
      HttpFetch(server_->bound_port(), "POST", "/echo", payload, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body->size(), payload.size());
}

TEST_F(HttpServerTest, GarbageRequestGets400) {
  // Raw socket with a non-HTTP preamble.
  const int fd = ConnectLoopback(server_->bound_port());
  ASSERT_GE(fd, 0);
  const char garbage[] = "\x01\x02garbage\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
  char buf[512];
  std::string resp;
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // Either a 400/404 response or a dropped connection is acceptable; a 200
  // would mean the garbage was routed.
  EXPECT_EQ(resp.find("200 OK"), std::string::npos);
}

TEST_F(HttpServerTest, MissingContentLengthTreatedAsEmptyBody) {
  const int fd = ConnectLoopback(server_->bound_port());
  ASSERT_GE(fd, 0);
  const char req[] =
      "GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
  std::string resp;
  char buf[512];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("pong"), std::string::npos);
}

TEST_F(HttpServerTest, RequestFollowedByHalfCloseIsAnswered) {
  // The request and the client's FIN usually reach the server in one read:
  // the request must still be answered (once, on a keep-alive request too)
  // before the server closes.
  for (int i = 0; i < 20; ++i) {
    const int fd = ConnectLoopback(server_->bound_port());
    ASSERT_GE(fd, 0);
    const char req[] = "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
    ::shutdown(fd, SHUT_WR);
    std::string resp;
    char buf[512];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      resp.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(resp.compare(0, 15, "HTTP/1.1 200 OK"), 0) << resp;
    EXPECT_EQ(resp.find("HTTP/1.1", 1), std::string::npos) << resp;
  }
}

TEST(HttpServerShutdownTest, StopUnderLoadClosesQueuedFdsQuicklyNoLeak) {
  // Counts open fds of this process (the opendir fd cancels out between the
  // baseline and the final count).
  auto count_fds = [] {
    size_t n = 0;
    DIR* dir = ::opendir("/proc/self/fd");
    if (dir == nullptr) return n;
    while (::readdir(dir) != nullptr) ++n;
    ::closedir(dir);
    return n;
  };

  const size_t baseline = count_fds();
  constexpr int kClients = 30;
  static constexpr int kHandlerMillis = 150;
  {
    // One worker, a slow handler: the first connection occupies the worker
    // while the rest pile up in the pending_ queue.
    HttpServer server(0, 1);
    server.Route("GET", "/slow", [](const HttpRequest&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kHandlerMillis));
      return HttpResponse::Json("{}");
    });
    ASSERT_TRUE(server.Start().ok());

    std::vector<int> clients;
    for (int i = 0; i < kClients; ++i) {
      const int fd = ConnectLoopback(server.bound_port());
      ASSERT_GE(fd, 0);
      const char req[] = "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n";
      ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
      clients.push_back(fd);
    }
    // Let the accept thread queue everything behind the busy worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // Stop() must not serve the ~29-request backlog (that would take
    // kClients * kHandlerMillis); it finishes the in-flight request, closes
    // the queued fds and returns.
    const Timer stop_timer;
    server.Stop();
    EXPECT_LT(stop_timer.ElapsedMillis(), kClients * kHandlerMillis / 2)
        << "Stop() appears to drain the backlog instead of closing it";

    for (const int fd : clients) ::close(fd);
  }
  // Every accepted server-side fd must be gone: queue-drain close, worker
  // close, or listener close.
  EXPECT_EQ(count_fds(), baseline);
}

namespace {

/// Raw-socket client helper for the hardening tests: connects, sends
/// `payload`, reads until the peer closes (or `read_nothing` skips reading).
std::string RawExchange(uint16_t port, const std::string& payload,
                        bool close_mid_request = false) {
  const int fd = ConnectLoopback(port);
  EXPECT_GE(fd, 0);
  if (!payload.empty()) {
    EXPECT_GT(::send(fd, payload.data(), payload.size(), 0), 0);
  }
  if (close_mid_request) {
    ::close(fd);
    return "";
  }
  std::string resp;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

}  // namespace

/// Seed-driven byte mutations of a valid raw POST, after the JsonFuzz
/// pattern of json_test.cc: each mutated request, sent on its own
/// connection, gets a 2xx or 4xx reply or a closed connection — never a
/// 5xx, a hang or a crash — and a fresh valid request then still answers
/// 200.
class HttpRequestFuzz : public HttpServerTest,
                        public ::testing::WithParamInterface<uint64_t> {};

namespace {

/// Sends `request`, half-closes, and reads until the server closes. The
/// half-close ends a request the parser still waits on (truncated, or
/// shorter than its Content-Length), so every exchange ends in a reply or a
/// close. False when neither came within 10 s.
bool FuzzExchange(uint16_t port, const std::string& request,
                  std::string* reply) {
  const int fd = ConnectLoopback(port);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  // A reset or a short send is the server refusing the bytes: acceptable.
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  bool closed = false;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      reply->append(buf, static_cast<size_t>(n));
      continue;
    }
    closed = n == 0 || errno == ECONNRESET;
    break;
  }
  ::close(fd);
  return closed;
}

}  // namespace

TEST_P(HttpRequestFuzz, MutatedRequestsGetA2xxOr4xxOrAClose) {
  const std::string body = R"({"query_id":17,"missing":[3,"Hotel X"]})";
  const std::string base = "POST /echo?a=1&b=%20x HTTP/1.1\r\nHost: x\r\n"
                           "Content-Type: application/json\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
  // Bytes the parser branches on, drawn half the time.
  const std::string special = "\r\n :%?&=/0123456789-+\t";
  Rng rng(GetParam());
  const auto random_byte = [&] {
    return rng.NextBernoulli(0.5)
               ? special[rng.NextBounded(special.size())]
               : static_cast<char>(rng.NextBounded(256));
  };
  size_t answered = 0;
  for (int iter = 0; iter < 250; ++iter) {
    std::string request = base;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(4)) {
        case 0:  // Replace a byte.
          request[rng.NextBounded(request.size())] = random_byte();
          break;
        case 1:  // Truncate.
          request.resize(1 + rng.NextBounded(request.size()));
          break;
        case 2:  // Insert a byte.
          request.insert(rng.NextBounded(request.size() + 1), 1,
                         random_byte());
          break;
        default:  // Drop a byte.
          request.erase(rng.NextBounded(request.size()), 1);
          break;
      }
      if (request.empty()) request = base.substr(0, 1);
    }
    std::string reply;
    ASSERT_TRUE(FuzzExchange(server_->bound_port(), request, &reply))
        << "iteration " << iter << " hung";
    if (reply.empty()) continue;  // Closed without a reply.
    ++answered;
    ASSERT_GE(reply.size(), 12u) << "iteration " << iter << ": " << reply;
    ASSERT_EQ(reply.compare(0, 9, "HTTP/1.1 "), 0)
        << "iteration " << iter << ": " << reply.substr(0, 40);
    const char klass = reply[9];
    EXPECT_TRUE(klass == '2' || klass == '4')
        << "iteration " << iter << " answered " << reply.substr(9, 3);
  }
  // Many mutations still reach the parser and get an answer (about 110 of
  // the 250 for seeds 1–3).
  EXPECT_GT(answered, 50u);
  std::string reply;
  ASSERT_TRUE(FuzzExchange(server_->bound_port(), base, &reply));
  EXPECT_EQ(reply.compare(0, 12, "HTTP/1.1 200"), 0) << reply.substr(0, 40);
  EXPECT_NE(reply.find(body), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpRequestFuzz, ::testing::Values(1, 2, 3));

TEST_F(HttpServerTest, OversizedDeclaredBodyRejectedWith413) {
  // A 64 MiB Content-Length must be refused before any body bytes are
  // buffered — the shard endpoints face other nodes, not trusted clients.
  const std::string resp = RawExchange(
      server_->bound_port(),
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 67108864\r\n\r\n");
  EXPECT_NE(resp.find("413"), std::string::npos) << resp;
  EXPECT_EQ(resp.find("200 OK"), std::string::npos);
}

TEST_F(HttpServerTest, OversizedHeaderBlockRejectedWith431) {
  std::string req = "GET /ping HTTP/1.1\r\nHost: x\r\n";
  req += "X-Filler: " + std::string(2u << 20, 'a') + "\r\n\r\n";
  const std::string resp = RawExchange(server_->bound_port(), req);
  EXPECT_NE(resp.find("431"), std::string::npos) << resp.substr(0, 200);
  EXPECT_EQ(resp.find("200 OK"), std::string::npos);
}

TEST_F(HttpServerTest, TruncatedHeadersConnectionDropsServerSurvives) {
  // Peer dies mid-header: the server must just drop the connection — and
  // keep serving others.
  RawExchange(server_->bound_port(), "GET /ping HTTP/1.1\r\nHos",
              /*close_mid_request=*/true);
  int status = 0;
  auto body = HttpFetch(server_->bound_port(), "GET", "/ping", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
}

TEST_F(HttpServerTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  const int fd = ConnectLoopback(server_->bound_port());
  ASSERT_GE(fd, 0);

  auto roundtrip = [&](const std::string& req) {
    EXPECT_GT(::send(fd, req.data(), req.size(), 0), 0);
    // Each /ping response is Content-Length framed; read until the body's
    // closing brace arrives (the connection stays open, so no EOF).
    std::string resp;
    char buf[1024];
    while (resp.find("\"pong\":true}") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      resp.append(buf, static_cast<size_t>(n));
    }
    EXPECT_NE(resp.find("200 OK"), std::string::npos);
    EXPECT_NE(resp.find("Connection: keep-alive"), std::string::npos);
  };
  roundtrip("GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  roundtrip("GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");

  // Connection: close is honoured on the last request.
  const char last[] = "GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_GT(::send(fd, last, sizeof(last) - 1, 0), 0);
  std::string resp;
  char buf[1024];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);
}

TEST(HttpClientConnectionTest, KeepAliveCallsAndDeadlines) {
  HttpServer server(0, 2);
  std::atomic<int> hits{0};
  server.Route("POST", "/echo", [&](const HttpRequest& req) {
    ++hits;
    return HttpResponse::Json(req.body);
  });
  server.Route("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClientConnection conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.bound_port(), 1000).ok());
  // Several calls ride the same connection.
  for (int i = 0; i < 3; ++i) {
    int status = 0;
    auto body = conn.Call("POST", "/echo", "{\"i\":1}", 2000, &status);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_EQ(status, 200);
    EXPECT_EQ(*body, "{\"i\":1}");
    EXPECT_TRUE(conn.connected());
  }
  EXPECT_EQ(hits.load(), 3);

  // A deadline shorter than the handler trips, and closes the connection so
  // the stale response cannot desynchronise a later call.
  int status = 0;
  auto slow = conn.Call("GET", "/slow", "", 50, &status);
  EXPECT_FALSE(slow.ok());
  EXPECT_FALSE(conn.connected());

  // Reconnect works.
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.bound_port(), 1000).ok());
  auto body = conn.Call("POST", "/echo", "x", 2000, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "x");

  // Dialing a dead port fails cleanly.
  server.Stop();
  HttpClientConnection dead;
  EXPECT_FALSE(dead.Connect("127.0.0.1", server.bound_port(), 200).ok());
}

TEST(HttpServerIdleSweepTest, AbandonedKeepAliveConnectionsAreReaped) {
  // A client that completes a request and then walks away must not pin
  // server-side connection state forever: the event loop's sweep recycles
  // the idle socket once keep_alive_idle_ms passes.
  HttpServer server(0, /*num_workers=*/2, /*keep_alive_idle_ms=*/150);
  server.Route("GET", "/ping",
               [](const HttpRequest&) { return HttpResponse::Json("{}"); });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.idle_reaped(), 0u);

  HttpClientConnection conn;
  ASSERT_TRUE(conn.Connect("127.0.0.1", server.bound_port(), 1000).ok());
  int status = 0;
  ASSERT_TRUE(conn.Call("GET", "/ping", "", 2000, &status).ok());
  EXPECT_EQ(status, 200);

  // Now idle. The sweep (100 ms tick) should close us within a few ticks.
  const Timer timer;
  while (server.idle_reaped() == 0 && timer.ElapsedMillis() < 3000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.idle_reaped(), 1u);
  // The server closed its end; the client's liveness probe sees EOF.
  EXPECT_FALSE(conn.LooksAlive());

  // An ACTIVE connection is not reaped: keep a request/response cadence
  // faster than the idle bound going and the socket stays up.
  HttpClientConnection busy;
  ASSERT_TRUE(busy.Connect("127.0.0.1", server.bound_port(), 1000).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(busy.Call("GET", "/ping", "", 2000, &status).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  EXPECT_TRUE(busy.connected());
  server.Stop();
}

TEST(HttpResponseTest, ErrorHelperFormatsJson) {
  const HttpResponse r = HttpResponse::Error(400, "bad \"input\"");
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.body, "{\"error\":\"bad \\\"input\\\"\"}");
}

}  // namespace
}  // namespace yask
