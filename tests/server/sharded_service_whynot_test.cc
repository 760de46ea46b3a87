// Sharded /whynot over HTTP: the full why-not contract in scale-out mode.
//   * Parity: a sharded service's /whynot payload matches an unsharded
//     service's for the same query (explanations, both refinements, the
//     recommendation, the refined results).
//   * Staleness: a query_id that was LRU-evicted or POST /forget-ten answers
//     404 — never a recompute from a dead cache entry.
//   * Concurrency: mixed /query + /whynot + /forget traffic over the shared
//     shard pool stays consistent (run under scripts/check.sh --sanitize).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

class ShardedServiceWhyNotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(CorpusBuilder().Build(GenerateHotelDataset()));
    sharded_ = new ShardedCorpus(ShardedCorpus::Partition(
        corpus_->store(), GridShardRouter::Fit(corpus_->store(), 4)));
  }
  static void TearDownTestSuite() {
    delete sharded_;
    sharded_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  static JsonValue CarolQuery(int k) {
    JsonValue req = JsonValue::MakeObject();
    req.Set("x", JsonValue(114.158));
    req.Set("y", JsonValue(22.281));
    req.Set("keywords", JsonValue("clean comfortable"));
    req.Set("k", JsonValue(k));
    return req;
  }

  static uint64_t IssueQuery(const YaskService& service, int k,
                             JsonValue* response = nullptr) {
    int status = 0;
    auto body = HttpFetch(service.port(), "POST", "/query",
                          CarolQuery(k).Dump(), &status);
    EXPECT_TRUE(body.ok());
    EXPECT_EQ(status, 200) << *body;
    auto parsed = JsonValue::Parse(*body);
    EXPECT_TRUE(parsed.ok());
    const uint64_t id =
        static_cast<uint64_t>(parsed->Get("query_id").as_number());
    if (response != nullptr) *response = std::move(parsed).value();
    return id;
  }

  static int WhyNotStatus(const YaskService& service, uint64_t query_id,
                          double missing_id, JsonValue* response = nullptr) {
    JsonValue wn = JsonValue::MakeObject();
    wn.Set("query_id", JsonValue(static_cast<size_t>(query_id)));
    JsonValue missing = JsonValue::MakeArray();
    missing.Append(JsonValue(missing_id));
    wn.Set("missing", std::move(missing));
    wn.Set("model", JsonValue("both"));
    int status = 0;
    auto body =
        HttpFetch(service.port(), "POST", "/whynot", wn.Dump(), &status);
    EXPECT_TRUE(body.ok());
    if (response != nullptr && status == 200) {
      auto parsed = JsonValue::Parse(*body);
      EXPECT_TRUE(parsed.ok());
      *response = std::move(parsed).value();
    }
    return status;
  }

  static const Corpus* corpus_;
  static const ShardedCorpus* sharded_;
};

const Corpus* ShardedServiceWhyNotTest::corpus_ = nullptr;
const ShardedCorpus* ShardedServiceWhyNotTest::sharded_ = nullptr;

TEST_F(ShardedServiceWhyNotTest, PayloadMatchesUnshardedService) {
  YaskService unsharded(*corpus_);
  YaskService sharded(*sharded_);
  ASSERT_TRUE(unsharded.Start().ok());
  ASSERT_TRUE(sharded.Start().ok());

  JsonValue uq, sq;
  const uint64_t uid = IssueQuery(unsharded, 3, &uq);
  const uint64_t sid = IssueQuery(sharded, 3, &sq);
  EXPECT_EQ(uq.Get("results").Dump(), sq.Get("results").Dump());

  // A hotel ranked outside the top-3 (taken from a wider unsharded query).
  JsonValue wide;
  IssueQuery(unsharded, 20, &wide);
  const double missing_id = wide.Get("results").At(15).Get("id").as_number();

  JsonValue ua, sa;
  ASSERT_EQ(WhyNotStatus(unsharded, uid, missing_id, &ua), 200);
  ASSERT_EQ(WhyNotStatus(sharded, sid, missing_id, &sa), 200);

  // Bit-identical payloads, field by field (response_millis aside).
  EXPECT_EQ(ua.Get("explanations").Dump(), sa.Get("explanations").Dump());
  EXPECT_EQ(ua.Get("preference").Dump(), sa.Get("preference").Dump());
  EXPECT_EQ(ua.Get("keyword").Dump(), sa.Get("keyword").Dump());
  EXPECT_EQ(ua.Get("recommended").Dump(), sa.Get("recommended").Dump());
  EXPECT_EQ(ua.Get("refined_results").Dump(), sa.Get("refined_results").Dump());

  // The combined model serves in sharded mode too.
  JsonValue wn = JsonValue::MakeObject();
  wn.Set("query_id", JsonValue(static_cast<size_t>(sid)));
  JsonValue missing = JsonValue::MakeArray();
  missing.Append(JsonValue(missing_id));
  wn.Set("missing", std::move(missing));
  wn.Set("model", JsonValue("combined"));
  int status = 0;
  auto body = HttpFetch(sharded.port(), "POST", "/whynot", wn.Dump(), &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200) << *body;

  sharded.Stop();
  unsharded.Stop();
}

TEST_F(ShardedServiceWhyNotTest, EvictedQueryIdIs404) {
  YaskServiceOptions options;
  options.max_cached_queries = 2;
  YaskService service(*sharded_, options);
  ASSERT_TRUE(service.Start().ok());

  const uint64_t q1 = IssueQuery(service, 3);
  const uint64_t q2 = IssueQuery(service, 4);
  const uint64_t q3 = IssueQuery(service, 5);  // Evicts q1 (LRU).
  EXPECT_EQ(service.cached_queries(), 2u);

  // The evicted id must answer 404 — the service never recomputes a why-not
  // from a dead cache entry.
  EXPECT_EQ(WhyNotStatus(service, q1, 5), 404);
  EXPECT_EQ(WhyNotStatus(service, q2, 5), 200);
  EXPECT_EQ(WhyNotStatus(service, q3, 5), 200);
  service.Stop();
}

TEST_F(ShardedServiceWhyNotTest, ForgottenQueryIdIs404) {
  YaskService service(*sharded_);
  ASSERT_TRUE(service.Start().ok());

  const uint64_t id = IssueQuery(service, 3);
  EXPECT_EQ(WhyNotStatus(service, id, 5), 200);

  JsonValue req = JsonValue::MakeObject();
  req.Set("query_id", JsonValue(static_cast<size_t>(id)));
  int status = 0;
  auto body =
      HttpFetch(service.port(), "POST", "/forget", req.Dump(), &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);

  EXPECT_EQ(WhyNotStatus(service, id, 5), 404);
  service.Stop();
}

TEST_F(ShardedServiceWhyNotTest, EveryLayoutAnswersWhyNot) {
  // Why-not needs no index beyond the R-tree, so every corpus a service
  // can serve /query from also answers /whynot.
  const ShardedCorpus two = ShardedCorpus::Partition(
      corpus_->store(), GridShardRouter::Fit(corpus_->store(), 2));
  YaskService unsharded(*corpus_);
  YaskService sharded(two);
  for (YaskService* service : {&unsharded, &sharded}) {
    ASSERT_TRUE(service->Start().ok());
    const uint64_t id = IssueQuery(*service, 3);
    EXPECT_EQ(WhyNotStatus(*service, id, 5), 200);
    service->Stop();
  }
}

TEST_F(ShardedServiceWhyNotTest, ConcurrentWhyNotTrafficOverSharedPool) {
  YaskServiceOptions options;
  options.num_workers = 4;
  YaskService service(*sharded_, options);
  ASSERT_TRUE(service.Start().ok());

  // The reference payload every concurrent why-not must reproduce.
  JsonValue wide;
  IssueQuery(service, 20, &wide);
  const double missing_id = wide.Get("results").At(15).Get("id").as_number();
  const uint64_t shared_id = IssueQuery(service, 3);
  JsonValue reference;
  ASSERT_EQ(WhyNotStatus(service, shared_id, missing_id, &reference), 200);
  const std::string expected = reference.Get("refined_results").Dump();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        // Each client interleaves its own query/forget churn with why-nots
        // against the shared cached query.
        const uint64_t own = IssueQuery(service, 4 + i % 3);
        JsonValue answer;
        if (WhyNotStatus(service, shared_id, missing_id, &answer) != 200 ||
            answer.Get("refined_results").Dump() != expected) {
          ++failures;
        }
        JsonValue req = JsonValue::MakeObject();
        req.Set("query_id", JsonValue(static_cast<size_t>(own)));
        int status = 0;
        HttpFetch(service.port(), "POST", "/forget", req.Dump(), &status);
        if (status != 200) ++failures;
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  service.Stop();
}

}  // namespace
}  // namespace yask
