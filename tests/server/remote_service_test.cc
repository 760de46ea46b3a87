// End-to-end acceptance test of the remote tier: a YaskService coordinator
// over loopback ShardService fleets must return BYTE-identical /query,
// /whynot and /forget payloads to a YaskService over the in-process
// ShardedCorpus built from the same objects, at 1/2/4 shards (only the
// response_millis timing fields are excluded — wall time is the one thing a
// network hop legitimately changes). Plus the remote-only failure modes:
// 503 when a shard dies mid-serving, /health topology reporting, and 404
// for stale query ids. And the shards' own /metrics show what one /whynot
// costs them: one question session per shard, every rank answered from
// it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/text.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/why_not_engine.h"

namespace yask {
namespace {

struct ShardFleet {
  std::vector<std::unique_ptr<ShardService>> services;
  std::vector<std::string> endpoints;

  explicit ShardFleet(const ShardedCorpus& corpus) {
    for (size_t s = 0; s < corpus.num_shards(); ++s) {
      ShardService::Info info;
      info.shard_index = static_cast<uint32_t>(s);
      info.shard_count = static_cast<uint32_t>(corpus.num_shards());
      info.global_bounds = corpus.bounds();
      info.dist_norm = corpus.dist_norm();
      info.to_global = corpus.shard_global_ids(s);
      info.router = corpus.router_description();
      services.push_back(
          std::make_unique<ShardService>(corpus.shard(s), std::move(info)));
      EXPECT_TRUE(services.back()->Start().ok());
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(services.back()->port()));
    }
  }

  ~ShardFleet() { Stop(); }
  void Stop() {
    for (auto& service : services) service->Stop();
  }
};

/// Drops every (nested) "response_millis" field and re-dumps — the one
/// legitimate difference between transports.
JsonValue StripTiming(const JsonValue& v) {
  if (v.is_object()) {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [key, value] : v.object_items()) {
      if (key == "response_millis") continue;
      out.Set(key, StripTiming(value));
    }
    return out;
  }
  if (v.is_array()) {
    JsonValue out = JsonValue::MakeArray();
    for (const JsonValue& item : v.array_items()) {
      out.Append(StripTiming(item));
    }
    return out;
  }
  return v;
}

std::string Normalized(const std::string& payload) {
  auto parsed = JsonValue::Parse(payload);
  EXPECT_TRUE(parsed.ok()) << payload;
  if (!parsed.ok()) return payload;
  return StripTiming(parsed.value()).Dump();
}

/// POSTs the same body to both services and expects byte-identical payloads
/// (modulo timing) and identical statuses.
void ExpectSamePayload(const YaskService& remote, const YaskService& local,
                       const std::string& method, const std::string& path,
                       const std::string& body, const std::string& label,
                       int* status_out = nullptr) {
  int remote_status = 0;
  int local_status = 0;
  auto remote_body = HttpFetch(remote.port(), method, path, body,
                               &remote_status);
  auto local_body = HttpFetch(local.port(), method, path, body, &local_status);
  ASSERT_TRUE(remote_body.ok()) << label;
  ASSERT_TRUE(local_body.ok()) << label;
  EXPECT_EQ(remote_status, local_status) << label;
  EXPECT_EQ(Normalized(*remote_body), Normalized(*local_body)) << label;
  if (status_out != nullptr) *status_out = remote_status;
}

TEST(RemoteServiceTest, MissingIsBoundedByKMaxMissing) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  YaskService remote(remote_corpus);
  YaskService local(sharded);
  ASSERT_TRUE(remote.Start().ok());
  ASSERT_TRUE(local.Start().ok());
  ExpectSamePayload(remote, local, "POST", "/query",
                    "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean "
                    "comfortable\",\"k\":3}",
                    "query");
  auto body = [](size_t entries, const std::string& entry) {
    std::string list;
    for (size_t i = 0; i < entries; ++i) list += (i ? "," : "") + entry;
    return "{\"query_id\":1,\"model\":\"preference\",\"missing\":[" + list +
           "]}";
  };
  // At the cap the coordinator answers what the in-process layout answers,
  // and looks names up; one more is refused before any name lookup.
  int status = 0;
  ExpectSamePayload(remote, local, "POST", "/whynot", body(kMaxMissing, "7"),
                    "at the cap", &status);
  EXPECT_EQ(status, 200);
  ExpectSamePayload(remote, local, "POST", "/whynot",
                    body(kMaxMissing, "\"no such hotel\""), "names at the cap",
                    &status);
  EXPECT_EQ(status, 404);
  for (const std::string entry : {"7", "\"no such hotel\""}) {
    ExpectSamePayload(remote, local, "POST", "/whynot",
                      body(kMaxMissing + 1, entry), "past the cap", &status);
    EXPECT_EQ(status, 400) << entry;
  }
  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
}

TEST(RemoteServiceTest, PayloadParityAcrossShardCounts) {
  const ObjectStore store = GenerateHotelDataset();
  for (const uint32_t shards : {1u, 2u, 4u}) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    ShardFleet fleet(sharded);
    auto connected = RemoteCorpus::Connect(fleet.endpoints);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    const RemoteCorpus remote_corpus = std::move(connected).value();

    YaskService remote(remote_corpus);
    YaskService local(sharded);
    ASSERT_TRUE(remote.Start().ok());
    ASSERT_TRUE(local.Start().ok());
    const std::string tag = std::to_string(shards) + " shards";

    // The same initial query on both (both allocate query_id 1).
    const std::string query =
        "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\","
        "\"k\":3}";
    ExpectSamePayload(remote, local, "POST", "/query", query, tag + " query");

    // Every why-not model, against the cached query.
    for (const std::string model :
         {"both", "preference", "keyword", "combined"}) {
      const std::string whynot = "{\"query_id\":1,\"missing\":[\"" +
                                 store.Get(81).name + "\"],\"model\":\"" +
                                 model + "\"}";
      ExpectSamePayload(remote, local, "POST", "/whynot", whynot,
                        tag + " whynot/" + model);
    }

    // Object sample and forget round-trip.
    ExpectSamePayload(remote, local, "GET", "/objects?limit=25", "",
                      tag + " objects");
    ExpectSamePayload(remote, local, "POST", "/forget", "{\"query_id\":1}",
                      tag + " forget");
    // A forgotten query answers 404 identically.
    int status = 0;
    ExpectSamePayload(remote, local, "POST", "/whynot",
                      "{\"query_id\":1,\"missing\":[81]}", tag + " stale",
                      &status);
    EXPECT_EQ(status, 404) << tag;

    remote.Stop();
    local.Stop();
  }
}

TEST(RemoteServiceTest, KeywordCandidateBoundIsReportedTruncated) {
  // m holds the query's keyword and 18 more, |U| = 19, behind a crowd no
  // candidate lifts it over: keyword adaption enumerates past
  // kMaxKeywordCandidates and stops. /whynot still answers 200, with
  // "truncated": true in its keyword block, in process and on a coordinator.
  ObjectStore store;
  std::vector<TermId> terms;
  for (int i = 0; i < 19; ++i) {
    terms.push_back(store.mutable_vocab()->Intern("w" + std::to_string(i)));
  }
  for (int i = 0; i < 20; ++i) {
    store.Add(Point{0.01 * i, 0.0}, KeywordSet({terms[0]}),
              "crowd" + std::to_string(i));
  }
  const ObjectId m = store.Add(Point{1, 1}, KeywordSet(terms), "m");
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  YaskService remote(remote_corpus);
  YaskService local(sharded);
  ASSERT_TRUE(remote.Start().ok());
  ASSERT_TRUE(local.Start().ok());

  ExpectSamePayload(remote, local, "POST", "/query",
                    "{\"x\":0,\"y\":0,\"keywords\":\"w0\",\"k\":3}",
                    "query");
  const std::string whynot = "{\"query_id\":1,\"model\":\"keyword\","
                             "\"missing\":[" + std::to_string(m) + "]}";
  std::vector<std::string> payloads;
  for (const YaskService* service : {&local, &remote}) {
    int status = 0;
    auto body = HttpFetch(service->port(), "POST", "/whynot", whynot, &status);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(status, 200) << *body;
    auto parsed = JsonValue::Parse(*body);
    ASSERT_TRUE(parsed.ok()) << *body;
    const JsonValue& truncated = parsed->Get("keyword").Get("truncated");
    ASSERT_TRUE(truncated.is_bool()) << *body;
    EXPECT_TRUE(truncated.as_bool()) << *body;
    payloads.push_back(Normalized(*body));
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
}

/// The requests a shard server answered 200 on `route`, read from its own
/// GET /metrics (0 before the first).
uint64_t ServedFromMetrics(uint16_t port, const std::string& route) {
  int status = 0;
  auto body = HttpFetch(port, "GET", "/metrics", "", &status);
  EXPECT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  if (!body.ok()) return 0;
  const std::string needle =
      "\nyask_shard_requests_total{code=\"200\",endpoint=\"" + route +
      "\"} ";
  const size_t at = body->find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(body->substr(at + needle.size()));
}

TEST(RemoteServiceTest, OneQuestionSessionPerShardPerWhyNot) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  YaskService remote(remote_corpus);
  ASSERT_TRUE(remote.Start().ok());
  int status = 0;
  ASSERT_TRUE(HttpFetch(remote.port(), "POST", "/query",
                        "{\"x\":114.158,\"y\":22.281,\"keywords\":"
                        "\"clean comfortable\",\"k\":3}",
                        &status)
                  .ok());
  ASSERT_EQ(status, 200);

  // The same question in process: its keyword stage's rank fan-outs.
  Query question;
  question.loc = Point{114.158, 22.281};
  question.doc = LookupKeywords("clean comfortable", sharded.vocab());
  question.k = 3;
  const auto answer = WhyNotEngine(sharded).Answer(question, {81});
  ASSERT_TRUE(answer.ok() && answer->keyword.has_value());
  const uint64_t rank_fanouts = answer->keyword->stats.probe_fanouts;

  const std::vector<const char*> routes = {shardrpc::kPlaneOpenPath,
                                           shardrpc::kPlaneRankPath,
                                           shardrpc::kPlaneClosePath};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<uint64_t>> before;
    for (const auto& service : fleet.services) {
      std::vector<uint64_t> counts;
      for (const char* route : routes) {
        counts.push_back(ServedFromMetrics(service->port(), route));
      }
      before.push_back(counts);
    }
    ASSERT_TRUE(HttpFetch(remote.port(), "POST", "/whynot",
                          "{\"query_id\":1,\"missing\":[81]}", &status)
                    .ok());
    ASSERT_EQ(status, 200);
    for (size_t s = 0; s < fleet.services.size(); ++s) {
      auto served = [&](size_t r) {
        return ServedFromMetrics(fleet.services[s]->port(), routes[r]) -
               before[s][r];
      };
      const std::string tag = "shard " + std::to_string(s);
      EXPECT_EQ(served(0), 1u) << tag << " opens";
      // The explanation's rank of the one missing object, then keyword
      // adaption's rank fan-outs.
      EXPECT_EQ(served(1), 1 + rank_fanouts) << tag << " session ranks";
      EXPECT_EQ(served(2), 1u) << tag << " closes";
    }
  }
  remote.Stop();
}

TEST(RemoteServiceTest, HealthReportsRemoteTopology) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  int status = 0;
  auto body = HttpFetch(service.port(), "GET", "/health", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  auto health = JsonValue::Parse(*body);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Get("status").as_string(), "ok");
  EXPECT_EQ(static_cast<size_t>(health->Get("objects").as_number()),
            store.size());
  EXPECT_EQ(health->Get("shards").as_number(), 2);
  EXPECT_EQ(health->Get("remote_shards").size(), 2u);
  EXPECT_TRUE(health->Get("whynot").as_bool());

  // The shard servers' own /health reports their role and why-not service.
  auto shard_health =
      HttpFetch(fleet.services[0]->port(), "GET", "/health", "", &status);
  ASSERT_TRUE(shard_health.ok());
  auto parsed = JsonValue::Parse(*shard_health);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("role").as_string(), "shard");
  EXPECT_TRUE(parsed->Get("whynot").as_bool());

  // A coordinator holds no state: /snapshot is a clear 501.
  auto snap = HttpFetch(service.port(), "POST", "/snapshot", "{}", &status);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(status, 501);

  service.Stop();
}

TEST(RemoteServiceTest, WhyNotIsAnsweredByShardsBootedFromSnapshotFiles) {
  // Shard servers need no index beyond the R-tree: a fleet booted from
  // per-shard snapshot files answers /whynot like the in-process layout.
  const ObjectStore store = GenerateHotelDataset();
  const std::string prefix =
      ::testing::TempDir() + "remote_service_whynot_" +
      std::to_string(::getpid());
  {
    const ShardedCorpus built =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
    ASSERT_TRUE(built.Save(prefix).ok());
  }
  auto loaded = ShardedCorpus::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ShardedCorpus& sharded = *loaded;
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  // /query still works (top-k needs only the postings and the R-tree)...
  int status = 0;
  auto body = HttpFetch(
      service.port(), "POST", "/query",
      "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean\",\"k\":3}", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);

  // ...and so does /whynot, with both refinement models.
  body = HttpFetch(service.port(), "POST", "/whynot",
                   "{\"query_id\":1,\"missing\":[5]}", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200) << *body;
  auto answer = JsonValue::Parse(*body);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->Has("keyword")) << *body;

  body = HttpFetch(service.port(), "GET", "/health", "", &status);
  ASSERT_TRUE(body.ok());
  auto health = JsonValue::Parse(*body);
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->Get("whynot").as_bool());

  service.Stop();
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    std::remove(
        (prefix + ".shard-" + std::to_string(s) + ".snap").c_str());
  }
}

TEST(RemoteServiceTest, DeadShardSurfacesAs503NotGarbage) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  auto fleet = std::make_unique<ShardFleet>(sharded);
  RemoteShardOptions opts;
  opts.connect_timeout_ms = 300;
  opts.call_deadline_ms = 1000;
  opts.retries = 0;
  auto connected = RemoteCorpus::Connect(fleet->endpoints, opts);
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  const std::string query =
      "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\","
      "\"k\":3}";
  int status = 0;
  auto body = HttpFetch(service.port(), "POST", "/query", query, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);

  // Kill the fleet; a /query must answer 503, never a silently-partial 200.
  fleet->Stop();
  body = HttpFetch(service.port(), "POST", "/query", query, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 503);
  EXPECT_NE(body->find("shard"), std::string::npos) << *body;

  service.Stop();
}

}  // namespace
}  // namespace yask
