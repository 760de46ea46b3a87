// The coordinator data plane's caching layer: the epoch-keyed result cache
// and single-flight coalescing must be invisible in the bytes (a hit is the
// leader's response verbatim), surgical in invalidation (/forget and epoch
// bumps drop exactly what they must), and failure-isolating (a leader's
// error never fans out to its followers).

#include "src/server/result_cache.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/remote_corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

// --- ResultCache / SingleFlight units ---------------------------------------

TEST(ResultCacheTest, LruEvictionByEntryCount) {
  ResultCache cache(/*max_entries=*/2, /*max_bytes=*/0);
  cache.Put("a", HttpResponse::Json("1"), 1);
  cache.Put("b", HttpResponse::Json("2"), 2);
  ASSERT_TRUE(cache.Get("a").has_value());  // Touch: "b" is now LRU.
  cache.Put("c", HttpResponse::Json("3"), 3);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
}

TEST(ResultCacheTest, ByteBoundEvicts) {
  ResultCache cache(/*max_entries=*/0, /*max_bytes=*/300);
  cache.Put("a", HttpResponse::Json(std::string(100, 'x')), 1);
  cache.Put("b", HttpResponse::Json(std::string(100, 'y')), 2);
  // Pushing past the byte bound evicts from the cold end.
  cache.Put("c", HttpResponse::Json(std::string(100, 'z')), 3);
  EXPECT_LE(cache.bytes(), 300u);
  EXPECT_LT(cache.entries(), 3u);
  EXPECT_FALSE(cache.Get("a").has_value());
}

TEST(ResultCacheTest, InvalidateQueryDropsEveryEntryForThatId) {
  ResultCache cache(/*max_entries=*/16, /*max_bytes=*/0);
  cache.Put("query-key", HttpResponse::Json("q"), 7);
  cache.Put("whynot-key-1", HttpResponse::Json("w1"), 7);
  cache.Put("whynot-key-2", HttpResponse::Json("w2"), 7);
  cache.Put("other", HttpResponse::Json("o"), 8);
  EXPECT_EQ(cache.InvalidateQuery(7), 3u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_FALSE(cache.Get("query-key").has_value());
  EXPECT_FALSE(cache.Get("whynot-key-1").has_value());
  EXPECT_TRUE(cache.Get("other").has_value());
  EXPECT_EQ(cache.InvalidateQuery(7), 0u);  // Idempotent.
}

TEST(SingleFlightTest, FollowerGetsLeaderBytesVerbatim) {
  SingleFlight flight;
  SingleFlight::Ticket leader = flight.Join("k");
  ASSERT_TRUE(leader.leader);
  SingleFlight::Ticket follower = flight.Join("k");
  ASSERT_FALSE(follower.leader);

  std::optional<HttpResponse> got;
  std::thread waiter([&] { got = flight.Wait(follower); });
  flight.Finish("k", leader, HttpResponse::Json("{\"leader\":true}"),
                /*ok=*/true);
  waiter.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "{\"leader\":true}");

  // The flight is retired: the next join starts fresh with a new leader.
  EXPECT_TRUE(flight.Join("k").leader);
}

TEST(SingleFlightTest, LeaderFailureDoesNotPoisonFollowers) {
  SingleFlight flight;
  SingleFlight::Ticket leader = flight.Join("k");
  SingleFlight::Ticket f1 = flight.Join("k");
  SingleFlight::Ticket f2 = flight.Join("k");
  std::optional<HttpResponse> got1, got2;
  std::thread w1([&] { got1 = flight.Wait(f1); });
  std::thread w2([&] { got2 = flight.Wait(f2); });
  flight.Finish("k", leader, HttpResponse::Error(503, "shard down"),
                /*ok=*/false);
  w1.join();
  w2.join();
  // Followers are woken empty-handed — the service recomputes each one
  // independently instead of serving them the leader's failure.
  EXPECT_FALSE(got1.has_value());
  EXPECT_FALSE(got2.has_value());
}

// --- Service-level behaviour -------------------------------------------------

double MetricValue(const std::string& exposition, const std::string& family) {
  std::istringstream lines(exposition);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(family + " ", 0) == 0 ||
        line.rfind(family + "{} ", 0) == 0) {
      return std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
  }
  return -1.0;
}

TEST(DataPlaneIdleTest, ReapedIdleConnectionIsCounted) {
  // A connection idle past the keep-alive bound (5 s by default) is reaped
  // by the HTTP server's sweep, and both services count it on /metrics.
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  YaskService service(corpus);
  ShardService shard(corpus, ShardService::StandaloneInfo(corpus));
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(shard.Start().ok());
  const std::string family = "yask_http_idle_reaped_total";
  auto reaped = [&](uint16_t port, const char* path,
                    const std::string& series) {
    int status = 0;
    auto body = HttpFetch(port, "GET", path, "", &status);
    return body.ok() ? MetricValue(*body, series) : -1.0;
  };
  auto service_reaped = [&] {
    return reaped(service.port(), "/metrics", family);
  };
  auto shard_reaped = [&] {
    return reaped(shard.port(), shardrpc::kMetricsPath,
                  family + "{shard=\"0\"}");
  };
  const double service_before = service_reaped();
  const double shard_before = shard_reaped();
  ASSERT_GE(service_before, 0.0);
  ASSERT_GE(shard_before, 0.0);

  // One connected socket per server that never sends a byte.
  std::vector<int> idle;
  for (const uint16_t port : {service.port(), shard.port()}) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    idle.push_back(fd);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while ((service_reaped() < service_before + 1 ||
          shard_reaped() < shard_before + 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  EXPECT_EQ(service_reaped(), service_before + 1);
  EXPECT_EQ(shard_reaped(), shard_before + 1);
  for (const int fd : idle) ::close(fd);
  shard.Stop();
  service.Stop();
}

class DataPlaneCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(CorpusBuilder().Build(GenerateHotelDataset()));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  void SetUp() override {
    YaskServiceOptions options;
    options.enable_result_cache = true;
    service_ = std::make_unique<YaskService>(*corpus_, options);
    ASSERT_TRUE(service_->Start().ok());
  }
  void TearDown() override { service_->Stop(); }

  std::string QueryBody(double x = 114.158, double y = 22.281, int k = 3,
                        const std::string& keywords = "clean comfortable") {
    JsonValue req = JsonValue::MakeObject();
    req.Set("x", JsonValue(x));
    req.Set("y", JsonValue(y));
    req.Set("keywords", JsonValue(keywords));
    req.Set("k", JsonValue(k));
    return req.Dump();
  }

  std::string Fetch(const std::string& method, const std::string& path,
                    const std::string& body, int* status) {
    auto resp = HttpFetch(service_->port(), method, path, body, status);
    EXPECT_TRUE(resp.ok());
    return resp.ok() ? *resp : std::string();
  }

  double Metric(const std::string& family) {
    int status = 0;
    return MetricValue(Fetch("GET", "/metrics", "", &status), family);
  }

  static const Corpus* corpus_;
  std::unique_ptr<YaskService> service_;
};

const Corpus* DataPlaneCacheTest::corpus_ = nullptr;

TEST_F(DataPlaneCacheTest, HitServesIdenticalBytesIncludingQueryId) {
  int status = 0;
  const std::string first = Fetch("POST", "/query", QueryBody(), &status);
  ASSERT_EQ(status, 200);
  const std::string second = Fetch("POST", "/query", QueryBody(), &status);
  ASSERT_EQ(status, 200);
  // The hit is the leader's response VERBATIM — response_millis, query_id
  // and all. Same bytes, same id, and no second initial query was cached.
  EXPECT_EQ(first, second);
  EXPECT_EQ(service_->cached_queries(), 1u);
  EXPECT_EQ(Metric("yask_result_cache_hits_total"), 1.0);
  EXPECT_EQ(Metric("yask_result_cache_misses_total"), 1.0);
  EXPECT_EQ(Metric("yask_result_cache_entries"), 1.0);
}

TEST_F(DataPlaneCacheTest, ForgetInvalidatesExactlyThatQuery) {
  int status = 0;
  const std::string a1 = Fetch("POST", "/query", QueryBody(), &status);
  ASSERT_EQ(status, 200);
  const std::string b1 =
      Fetch("POST", "/query", QueryBody(114.158, 22.281, 5), &status);
  ASSERT_EQ(status, 200);
  const uint64_t a_id = static_cast<uint64_t>(
      JsonValue::Parse(a1)->Get("query_id").as_number());

  JsonValue forget = JsonValue::MakeObject();
  forget.Set("query_id", JsonValue(static_cast<size_t>(a_id)));
  Fetch("POST", "/forget", forget.Dump(), &status);
  ASSERT_EQ(status, 200);
  EXPECT_EQ(Metric("yask_result_cache_invalidations_total"), 1.0);

  // A's entry is gone: the repeat recomputes and mints a FRESH id (serving
  // the old bytes would hand out an id that now answers 404).
  const std::string a2 = Fetch("POST", "/query", QueryBody(), &status);
  ASSERT_EQ(status, 200);
  EXPECT_NE(a1, a2);
  EXPECT_GT(JsonValue::Parse(a2)->Get("query_id").as_number(),
            static_cast<double>(a_id));
  // B's entry was untouched: still a byte-identical hit.
  const std::string b2 =
      Fetch("POST", "/query", QueryBody(114.158, 22.281, 5), &status);
  ASSERT_EQ(status, 200);
  EXPECT_EQ(b1, b2);
}

TEST_F(DataPlaneCacheTest, WhyNotIsCachedAndInvalidatedWithItsQuery) {
  int status = 0;
  const std::string q = Fetch("POST", "/query", QueryBody(), &status);
  ASSERT_EQ(status, 200);
  const size_t id = static_cast<size_t>(
      JsonValue::Parse(q)->Get("query_id").as_number());

  JsonValue whynot = JsonValue::MakeObject();
  whynot.Set("query_id", JsonValue(id));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(static_cast<size_t>(81)));
  whynot.Set("missing", std::move(missing));
  whynot.Set("model", JsonValue("both"));
  const std::string w1 = Fetch("POST", "/whynot", whynot.Dump(), &status);
  ASSERT_EQ(status, 200);
  const std::string w2 = Fetch("POST", "/whynot", whynot.Dump(), &status);
  ASSERT_EQ(status, 200);
  EXPECT_EQ(w1, w2);  // Identical follow-up, identical bytes.
  EXPECT_GE(Metric("yask_result_cache_hits_total"), 1.0);

  JsonValue forget = JsonValue::MakeObject();
  forget.Set("query_id", JsonValue(id));
  Fetch("POST", "/forget", forget.Dump(), &status);
  ASSERT_EQ(status, 200);
  // Both the /query entry and the /whynot entry rendered for this id died
  // with it; the follow-up now answers 404 like any forgotten query.
  Fetch("POST", "/whynot", whynot.Dump(), &status);
  EXPECT_EQ(status, 404);
}

TEST_F(DataPlaneCacheTest, ConcurrentIdenticalQueriesCoalesce) {
  constexpr size_t kClients = 8;
  std::vector<std::string> responses(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto resp = HttpFetch(service_->port(), "POST", "/query", QueryBody(),
                            &statuses[c]);
      if (resp.ok()) responses[c] = *resp;
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<std::string> distinct_bodies;
  std::set<double> distinct_ids;
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(statuses[c], 200);
    distinct_bodies.insert(responses[c]);
    distinct_ids.insert(
        JsonValue::Parse(responses[c])->Get("query_id").as_number());
  }
  // Every response is some leader's bytes (a hit, a coalesced share, or the
  // leader's own): distinct responses == distinct leaders == the initial
  // queries actually cached, and the flight accounting adds up.
  const double hits = Metric("yask_result_cache_hits_total");
  const double misses = Metric("yask_result_cache_misses_total");
  const double coalesced = Metric("yask_coalesced_requests_total");
  EXPECT_EQ(hits + misses, static_cast<double>(kClients));
  EXPECT_EQ(distinct_ids.size(), service_->cached_queries());
  EXPECT_EQ(static_cast<double>(distinct_ids.size()), misses - coalesced);
  EXPECT_EQ(distinct_bodies.size(), distinct_ids.size());
  EXPECT_EQ(Metric("yask_coalesce_leader_failures_total"), 0.0);
}

// --- Epoch-keyed invalidation against a remote fleet -------------------------

TEST(DataPlaneEpochTest, EpochBumpRetiresCachedEntries) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 1));
  ShardService::Info info;
  info.shard_index = 0;
  info.shard_count = 1;
  info.global_bounds = sharded.bounds();
  info.dist_norm = sharded.dist_norm();
  info.to_global = sharded.shard_global_ids(0);
  info.router = sharded.router_description();
  auto shard = std::make_unique<ShardService>(sharded.shard(0), info,
                                              ShardServiceOptions{});
  ASSERT_TRUE(shard->Start().ok());
  const uint16_t shard_port = shard->port();

  auto connected = RemoteCorpus::Connect(
      {"127.0.0.1:" + std::to_string(shard_port)});
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  YaskServiceOptions options;
  options.enable_result_cache = true;
  YaskService service(remote, options);
  ASSERT_TRUE(service.Start().ok());

  JsonValue hot = JsonValue::MakeObject();
  hot.Set("x", JsonValue(114.158));
  hot.Set("y", JsonValue(22.281));
  hot.Set("keywords", JsonValue("clean comfortable"));
  hot.Set("k", JsonValue(3));
  int status = 0;
  auto first = HttpFetch(service.port(), "POST", "/query", hot.Dump(),
                         &status);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(status, 200);

  // Kill the only replica and issue a DIFFERENT query: its fan-out fails,
  // answers 503, and moves the corpus error epoch.
  shard->Stop();
  shard.reset();
  JsonValue cold = hot;
  cold.Set("k", JsonValue(7));
  auto failed = HttpFetch(service.port(), "POST", "/query", cold.Dump(),
                          &status);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(status, 503);

  // Revive the shard at the same port. The hot query's cache entry was
  // keyed under the OLD epoch, so the repeat recomputes (fresh query_id)
  // instead of serving a pre-failure answer.
  ShardServiceOptions shard_options;
  shard_options.port = shard_port;
  shard = std::make_unique<ShardService>(sharded.shard(0), info,
                                         shard_options);
  Status started = shard->Start();
  for (int attempt = 0; !started.ok() && attempt < 100; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    started = shard->Start();
  }
  ASSERT_TRUE(started.ok());

  auto second = HttpFetch(service.port(), "POST", "/query", hot.Dump(),
                          &status);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(status, 200);
  EXPECT_NE(JsonValue::Parse(*first)->Get("query_id").as_number(),
            JsonValue::Parse(*second)->Get("query_id").as_number());

  service.Stop();
  shard->Stop();
}

}  // namespace
}  // namespace yask
