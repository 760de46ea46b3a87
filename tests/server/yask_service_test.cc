#include "src/server/yask_service.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/corpus/corpus.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

class YaskServiceTest : public ::testing::Test {
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
    options.allow_snapshot_path_override = true;  // Tests pick temp paths.
    service_ = std::make_unique<YaskService>(*corpus_, options);
    ASSERT_TRUE(service_->Start().ok());
  }
  void TearDown() override { service_->Stop(); }

  /// Issues the Carol query over HTTP and returns the parsed response.
  JsonValue IssueQuery(int k = 3) {
    JsonValue req = JsonValue::MakeObject();
    req.Set("x", JsonValue(114.158));
    req.Set("y", JsonValue(22.281));
    req.Set("keywords", JsonValue("clean comfortable"));
    req.Set("k", JsonValue(k));
    int status = 0;
    auto body = HttpFetch(service_->port(), "POST", "/query", req.Dump(),
                          &status);
    EXPECT_TRUE(body.ok());
    EXPECT_EQ(status, 200) << *body;
    auto parsed = JsonValue::Parse(*body);
    EXPECT_TRUE(parsed.ok());
    return std::move(parsed).value();
  }

  static const Corpus* corpus_;
  std::unique_ptr<YaskService> service_;
};

const Corpus* YaskServiceTest::corpus_ = nullptr;

TEST_F(YaskServiceTest, HealthEndpoint) {
  int status = 0;
  auto body = HttpFetch(service_->port(), "GET", "/health", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("status").as_string(), "ok");
  EXPECT_EQ(parsed->Get("objects").as_number(), 539.0);
}

TEST_F(YaskServiceTest, QueryReturnsTopKWithServerSideWeights) {
  const JsonValue resp = IssueQuery(3);
  EXPECT_EQ(resp.Get("results").size(), 3u);
  // §3.2: the weighting vector is a server-side parameter, default 0.5/0.5.
  EXPECT_DOUBLE_EQ(resp.Get("ws").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(resp.Get("wt").as_number(), 0.5);
  EXPECT_GT(resp.Get("query_id").as_number(), 0.0);
  // Results carry names and scores.
  const JsonValue& first = resp.Get("results").At(0);
  EXPECT_FALSE(first.Get("name").as_string().empty());
  EXPECT_GT(first.Get("score").as_number(), 0.0);
  EXPECT_EQ(service_->cached_queries(), 1u);
}

TEST_F(YaskServiceTest, QueryValidationErrors) {
  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/query", "{}", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 400);
  // Unknown keywords produce an empty keyword set => invalid query.
  JsonValue req = JsonValue::MakeObject();
  req.Set("x", JsonValue(114.2));
  req.Set("y", JsonValue(22.3));
  req.Set("keywords", JsonValue("qqqqzzzz"));
  req.Set("k", JsonValue(3));
  body = HttpFetch(service_->port(), "POST", "/query", req.Dump(), &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 400);
  // Malformed JSON.
  body = HttpFetch(service_->port(), "POST", "/query", "{not json", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 400);
}

TEST_F(YaskServiceTest, KIsBoundedByKMaxK) {
  // k = kMaxK is answered, with every object of the 539-hotel corpus, and
  // a /whynot on that query is answered too.
  const JsonValue at_cap = IssueQuery(static_cast<int>(kMaxK));
  EXPECT_EQ(at_cap.Get("results").size(), corpus_->size());
  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", JsonValue(static_cast<size_t>(
                         at_cap.Get("query_id").as_number())));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(7.0));
  wn.Set("missing", std::move(missing));
  int status = 0;
  auto body =
      HttpFetch(service_->port(), "POST", "/whynot", wn.Dump(), &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200) << *body;

  // One more is refused before anything is cached, so no /whynot can ask
  // about it.
  const size_t cached = service_->cached_queries();
  for (const double k : {static_cast<double>(kMaxK) + 1, 4294967295.0}) {
    JsonValue req = JsonValue::MakeObject();
    req.Set("x", JsonValue(114.158));
    req.Set("y", JsonValue(22.281));
    req.Set("keywords", JsonValue("clean comfortable"));
    req.Set("k", JsonValue(k));
    body = HttpFetch(service_->port(), "POST", "/query", req.Dump(), &status);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(status, 400) << k << " -> " << *body;
  }
  EXPECT_EQ(service_->cached_queries(), cached);
}

TEST_F(YaskServiceTest, MissingIsBoundedByKMaxMissing) {
  const size_t query_id =
      static_cast<size_t>(IssueQuery(3).Get("query_id").as_number());
  auto whynot = [&](size_t entries, const JsonValue& entry,
                    std::string* body_out) {
    JsonValue wn = JsonValue::MakeObject();
    wn.Set("query_id", JsonValue(query_id));
    JsonValue missing = JsonValue::MakeArray();
    for (size_t i = 0; i < entries; ++i) missing.Append(entry);
    wn.Set("missing", std::move(missing));
    wn.Set("model", JsonValue("preference"));
    int status = 0;
    auto body =
        HttpFetch(service_->port(), "POST", "/whynot", wn.Dump(), &status);
    EXPECT_TRUE(body.ok());
    if (body_out != nullptr && body.ok()) *body_out = *body;
    return status;
  };
  // At the cap a list is answered, one explanation per entry, and its names
  // are looked up.
  std::string body;
  ASSERT_EQ(whynot(kMaxMissing, JsonValue(7.0), &body), 200) << body;
  auto answer = JsonValue::Parse(body);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->Get("explanations").size(), kMaxMissing);
  EXPECT_EQ(whynot(kMaxMissing, JsonValue("no such hotel"), nullptr), 404);
  // One more is refused before any name lookup.
  EXPECT_EQ(whynot(kMaxMissing + 1, JsonValue(7.0), nullptr), 400);
  EXPECT_EQ(whynot(kMaxMissing + 1, JsonValue("no such hotel"), &body), 400)
      << body;
}

TEST_F(YaskServiceTest, NonFiniteCoordinateIs400) {
  // 1e999 overflows to +inf in the JSON parser; the query must be refused
  // before it reaches the result cache or the engine.
  for (const char* body_text :
       {R"({"x": 1e999, "y": 22.28, "keywords": "clean comfortable", "k": 3})",
        R"({"x": 114.15, "y": -1e999, "keywords": "clean comfortable"})"}) {
    int status = 0;
    auto body =
        HttpFetch(service_->port(), "POST", "/query", body_text, &status);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(status, 400) << body_text << " -> " << *body;
    EXPECT_EQ(body->find("query_id"), std::string::npos) << *body;
  }
  EXPECT_EQ(service_->cached_queries(), 0u);
}

TEST_F(YaskServiceTest, FractionalIntegersAre400) {
  // A fraction where the API wants an integer is an error, never a silent
  // truncation: "k": 2.5 is not k = 2, and object 3.7 is not object 3.
  int status = 0;
  auto body = HttpFetch(
      service_->port(), "POST", "/query",
      R"({"x": 114.158, "y": 22.281, "keywords": "clean comfortable", )"
      R"("k": 2.5})",
      &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 400) << *body;

  const JsonValue qresp = IssueQuery(3);
  const size_t query_id =
      static_cast<size_t>(qresp.Get("query_id").as_number());
  const std::string id = std::to_string(query_id);
  for (const std::string& whynot :
       {R"({"query_id": )" + id + R"(, "missing": [3.7]})",
        R"({"query_id": )" + id + R"(.5, "missing": [3]})"}) {
    body = HttpFetch(service_->port(), "POST", "/whynot", whynot, &status);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(status, 400) << whynot << " -> " << *body;
  }
  // The integral spelling of the same request is served.
  body = HttpFetch(service_->port(), "POST", "/whynot",
                   R"({"query_id": )" + id + R"(, "missing": [3.0]})",
                   &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200) << *body;
}

TEST_F(YaskServiceTest, WronglyTypedOptionalFieldsAre400) {
  // An optional field takes its default only when absent. Present with the
  // wrong type it is a client error: "k": "3" must not run with k = 10, a
  // "lambda": "0.9" must not run with the default λ.
  int status = 0;
  auto body = HttpFetch(
      service_->port(), "POST", "/query",
      R"({"x": 114.158, "y": 22.281, "keywords": "clean comfortable", )"
      R"("k": "3"})",
      &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 400) << *body;

  const JsonValue qresp = IssueQuery(3);
  const std::string id = std::to_string(
      static_cast<size_t>(qresp.Get("query_id").as_number()));
  for (const std::string& whynot :
       {R"({"query_id": )" + id + R"(, "missing": [5, {"a": 1}]})",
        R"({"query_id": )" + id + R"(, "missing": [5], "lambda": "0.9"})",
        R"({"query_id": )" + id + R"(, "missing": [5], "model": 7})"}) {
    body = HttpFetch(service_->port(), "POST", "/whynot", whynot, &status);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(status, 400) << whynot << " -> " << *body;
  }

  for (const std::string& path : {"/objects?limit=abc", "/objects?limit=-3"}) {
    body = HttpFetch(service_->port(), "GET", path, "", &status);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(status, 400) << path << " -> " << *body;
  }
}

TEST_F(YaskServiceTest, WhyNotWorkflowRevivesMissingHotel) {
  const JsonValue qresp = IssueQuery(3);
  const uint64_t query_id =
      static_cast<uint64_t>(qresp.Get("query_id").as_number());

  // Choose a hotel not in the result as the "expected but missing" one.
  const JsonValue wide = IssueQuery(20);
  const JsonValue& row = wide.Get("results").At(15);
  const double missing_id = row.Get("id").as_number();

  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", JsonValue(static_cast<size_t>(query_id)));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(missing_id));
  wn.Set("missing", std::move(missing));
  wn.Set("model", JsonValue("both"));
  wn.Set("lambda", JsonValue(0.5));

  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/whynot", wn.Dump(),
                        &status);
  ASSERT_TRUE(body.ok());
  ASSERT_EQ(status, 200) << *body;
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& a = parsed.value();
  EXPECT_EQ(a.Get("explanations").size(), 1u);
  EXPECT_TRUE(a.Has("preference"));
  EXPECT_TRUE(a.Has("keyword"));
  EXPECT_TRUE(a.Has("recommended"));
  // The refined result contains the missing hotel.
  bool revived = false;
  for (const JsonValue& r : a.Get("refined_results").array_items()) {
    if (r.Get("id").as_number() == missing_id) revived = true;
  }
  EXPECT_TRUE(revived);
  // Penalties are within [0, 1].
  EXPECT_GE(a.Get("preference").Get("penalty").Get("value").as_number(), 0.0);
  EXPECT_LE(a.Get("preference").Get("penalty").Get("value").as_number(), 1.0);
}

TEST_F(YaskServiceTest, WhyNotByHotelName) {
  const JsonValue qresp = IssueQuery(3);
  const uint64_t query_id =
      static_cast<uint64_t>(qresp.Get("query_id").as_number());
  const JsonValue wide = IssueQuery(15);
  const std::string name =
      wide.Get("results").At(12).Get("name").as_string();

  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", JsonValue(static_cast<size_t>(query_id)));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(name));
  wn.Set("missing", std::move(missing));
  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/whynot", wn.Dump(),
                        &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200) << *body;
}

TEST_F(YaskServiceTest, CombinedModelEndpoint) {
  const JsonValue qresp = IssueQuery(3);
  const JsonValue wide = IssueQuery(20);
  const double missing_id = wide.Get("results").At(15).Get("id").as_number();

  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", qresp.Get("query_id"));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(missing_id));
  wn.Set("missing", std::move(missing));
  wn.Set("model", JsonValue("combined"));
  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/whynot", wn.Dump(),
                        &status);
  ASSERT_TRUE(body.ok());
  ASSERT_EQ(status, 200) << *body;
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& a = parsed.value();
  EXPECT_TRUE(a.Has("total_penalty"));
  EXPECT_TRUE(a.Has("preference_penalty"));
  EXPECT_TRUE(a.Has("keyword_penalty"));
  EXPECT_TRUE(a.Get("preference_first").is_bool());
  bool revived = false;
  for (const JsonValue& r : a.Get("refined_results").array_items()) {
    if (r.Get("id").as_number() == missing_id) revived = true;
  }
  EXPECT_TRUE(revived);
}

TEST_F(YaskServiceTest, UnknownModelRejected) {
  const JsonValue qresp = IssueQuery(3);
  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", qresp.Get("query_id"));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(5));
  wn.Set("missing", std::move(missing));
  wn.Set("model", JsonValue("oracle"));
  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/whynot", wn.Dump(),
                        &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 400);
}

TEST_F(YaskServiceTest, WhyNotUnknownQueryIdIs404) {
  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", JsonValue(424242));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(1));
  wn.Set("missing", std::move(missing));
  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/whynot", wn.Dump(),
                        &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 404);
}

TEST_F(YaskServiceTest, ForgetDropsCachedQuery) {
  const JsonValue qresp = IssueQuery(3);
  const size_t id = static_cast<size_t>(qresp.Get("query_id").as_number());
  EXPECT_EQ(service_->cached_queries(), 1u);
  JsonValue req = JsonValue::MakeObject();
  req.Set("query_id", JsonValue(id));
  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/forget", req.Dump(),
                        &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  EXPECT_EQ(service_->cached_queries(), 0u);
  // Forgetting again reports false.
  body = HttpFetch(service_->port(), "POST", "/forget", req.Dump(), &status);
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Get("forgotten").as_bool());
}

TEST_F(YaskServiceTest, ObjectsEndpointHonoursLimit) {
  int status = 0;
  auto body =
      HttpFetch(service_->port(), "GET", "/objects?limit=7", "", &status);
  ASSERT_TRUE(body.ok());
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("objects").size(), 7u);
  EXPECT_EQ(parsed->Get("total").as_number(), 539.0);
}

TEST_F(YaskServiceTest, LogRecordsQueriesWithResponseTimes) {
  IssueQuery(3);
  IssueQuery(5);
  int status = 0;
  auto body = HttpFetch(service_->port(), "GET", "/log", "", &status);
  ASSERT_TRUE(body.ok());
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& entries = parsed->Get("entries");
  ASSERT_EQ(entries.size(), 2u);
  for (const JsonValue& e : entries.array_items()) {
    EXPECT_EQ(e.Get("kind").as_string(), "topk");
    EXPECT_GE(e.Get("response_millis").as_number(), 0.0);
  }
}

TEST_F(YaskServiceTest, SnapshotEndpointWritesLoadableSnapshot) {
  const std::string path = ::testing::TempDir() + "yask_service_test.snap";
  JsonValue req = JsonValue::MakeObject();
  req.Set("path", JsonValue(path));
  int status = 0;
  auto body =
      HttpFetch(service_->port(), "POST", "/snapshot", req.Dump(), &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200) << *body;
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("path").as_string(), path);
  EXPECT_GT(parsed->Get("bytes").as_number(), 0.0);
  EXPECT_EQ(parsed->Get("objects").as_number(), 539.0);

  // The written file restores the serving state: same store and indexes,
  // same top-3 answer for the Carol query.
  auto restored = CorpusBuilder().FromSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), corpus_->size());
  YaskService reloaded(*restored);
  ASSERT_TRUE(reloaded.Start().ok());
  const JsonValue original = IssueQuery(3);
  JsonValue q = JsonValue::MakeObject();
  q.Set("x", JsonValue(114.158));
  q.Set("y", JsonValue(22.281));
  q.Set("keywords", JsonValue("clean comfortable"));
  q.Set("k", JsonValue(3));
  auto rbody = HttpFetch(reloaded.port(), "POST", "/query", q.Dump(), &status);
  ASSERT_TRUE(rbody.ok());
  auto rparsed = JsonValue::Parse(*rbody);
  ASSERT_TRUE(rparsed.ok());
  EXPECT_EQ(rparsed->Get("results").Dump(), original.Get("results").Dump());
  reloaded.Stop();
  std::remove(path.c_str());
}

TEST_F(YaskServiceTest, SnapshotEndpointWithoutPathIs400) {
  int status = 0;
  auto body = HttpFetch(service_->port(), "POST", "/snapshot", "{}", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 400);
}

TEST_F(YaskServiceTest, QueryCacheEvictsLeastRecentlyUsed) {
  YaskServiceOptions options;
  options.max_cached_queries = 3;
  YaskService bounded(*corpus_, options);
  ASSERT_TRUE(bounded.Start().ok());

  auto issue = [&](int k) {
    JsonValue req = JsonValue::MakeObject();
    req.Set("x", JsonValue(114.158));
    req.Set("y", JsonValue(22.281));
    req.Set("keywords", JsonValue("clean comfortable"));
    req.Set("k", JsonValue(k));
    int status = 0;
    auto body =
        HttpFetch(bounded.port(), "POST", "/query", req.Dump(), &status);
    EXPECT_TRUE(body.ok());
    EXPECT_EQ(status, 200);
    auto parsed = JsonValue::Parse(*body);
    EXPECT_TRUE(parsed.ok());
    return static_cast<uint64_t>(parsed->Get("query_id").as_number());
  };
  auto whynot_status = [&](uint64_t query_id) {
    JsonValue wn = JsonValue::MakeObject();
    wn.Set("query_id", JsonValue(static_cast<size_t>(query_id)));
    JsonValue missing = JsonValue::MakeArray();
    missing.Append(JsonValue(5));
    wn.Set("missing", std::move(missing));
    int status = 0;
    auto body =
        HttpFetch(bounded.port(), "POST", "/whynot", wn.Dump(), &status);
    EXPECT_TRUE(body.ok());
    return status;
  };

  const uint64_t q1 = issue(3);
  const uint64_t q2 = issue(4);
  const uint64_t q3 = issue(5);
  EXPECT_EQ(bounded.cached_queries(), 3u);

  // Touch q1 so q2 becomes the least recently used, then overflow the cache.
  EXPECT_EQ(whynot_status(q1), 200);
  const uint64_t q4 = issue(6);
  EXPECT_EQ(bounded.cached_queries(), 3u);

  // q2 was evicted; q1, q3 and q4 survive.
  EXPECT_EQ(whynot_status(q2), 404);
  EXPECT_EQ(whynot_status(q1), 200);
  EXPECT_EQ(whynot_status(q3), 200);
  EXPECT_EQ(whynot_status(q4), 200);
  bounded.Stop();
}

TEST_F(YaskServiceTest, ShardedServiceServesQueriesAndWhyNot) {
  const ShardedCorpus sharded = ShardedCorpus::Partition(
      corpus_->store(), GridShardRouter::Fit(corpus_->store(), 4));
  YaskService service(sharded);
  ASSERT_TRUE(service.Start().ok());

  // /health reports the shard layout.
  int status = 0;
  auto health = HttpFetch(service.port(), "GET", "/health", "", &status);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(status, 200);
  auto hparsed = JsonValue::Parse(*health);
  ASSERT_TRUE(hparsed.ok());
  EXPECT_EQ(hparsed->Get("objects").as_number(), 539.0);
  EXPECT_EQ(hparsed->Get("shards").as_number(), 4.0);

  // The Carol query answers identically to the unsharded service.
  JsonValue req = JsonValue::MakeObject();
  req.Set("x", JsonValue(114.158));
  req.Set("y", JsonValue(22.281));
  req.Set("keywords", JsonValue("clean comfortable"));
  req.Set("k", JsonValue(3));
  auto body = HttpFetch(service.port(), "POST", "/query", req.Dump(), &status);
  ASSERT_TRUE(body.ok());
  ASSERT_EQ(status, 200) << *body;
  auto parsed = JsonValue::Parse(*body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue unsharded = IssueQuery(3);
  EXPECT_EQ(parsed->Get("results").Dump(), unsharded.Get("results").Dump());

  // Why-not refinement fans out over the shards and answers bit-identically
  // to the unsharded service (tests/server/sharded_service_whynot_test.cc
  // compares the full payloads; here: the endpoint serves and revives).
  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", parsed->Get("query_id"));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(5));
  wn.Set("missing", std::move(missing));
  body = HttpFetch(service.port(), "POST", "/whynot", wn.Dump(), &status);
  ASSERT_TRUE(body.ok());
  ASSERT_EQ(status, 200) << *body;
  auto wparsed = JsonValue::Parse(*body);
  ASSERT_TRUE(wparsed.ok());
  EXPECT_EQ(wparsed->Get("explanations").size(), 1u);
  EXPECT_TRUE(wparsed->Has("preference"));
  EXPECT_TRUE(wparsed->Has("keyword"));
  EXPECT_TRUE(wparsed->Has("recommended"));
  bool revived = false;
  for (const JsonValue& r : wparsed->Get("refined_results").array_items()) {
    if (r.Get("id").as_number() == 5.0) revived = true;
  }
  EXPECT_TRUE(revived);
  service.Stop();
}

TEST_F(YaskServiceTest, SnapshotPathOverrideDisabledByDefault) {
  YaskService locked_down(*corpus_);  // Default options.
  ASSERT_TRUE(locked_down.Start().ok());
  JsonValue req = JsonValue::MakeObject();
  req.Set("path", JsonValue("/tmp/should_not_be_written.snap"));
  int status = 0;
  auto body =
      HttpFetch(locked_down.port(), "POST", "/snapshot", req.Dump(), &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 403);
  locked_down.Stop();
}

}  // namespace
}  // namespace yask
