// Concurrent serving: hammer POST /query + /whynot + /forget from many
// client threads at once and assert the query cache and the log stay
// consistent. Run under scripts/check.sh --sanitize (ASan/UBSan) and TSan to
// catch data races in the service's shared state (cache, LRU list, log).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

JsonValue CarolQueryBody(int k) {
  JsonValue req = JsonValue::MakeObject();
  req.Set("x", JsonValue(114.158));
  req.Set("y", JsonValue(22.281));
  req.Set("keywords", JsonValue("clean comfortable"));
  req.Set("k", JsonValue(k));
  return req;
}

TEST(ServiceConcurrencyTest, ParallelQueryWhyNotForgetStaysConsistent) {
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  YaskServiceOptions options;
  options.num_workers = 8;
  options.max_cached_queries = 64;
  YaskService service(corpus, options);
  ASSERT_TRUE(service.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kIterations = 8;
  std::atomic<int> failures{0};
  std::atomic<int> queries_ok{0};
  std::atomic<int> whynots_ok{0};
  std::mutex ids_mu;
  std::set<uint64_t> all_ids;

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        // 1. Initial query; every response must carry a fresh id.
        int status = 0;
        auto qbody = HttpFetch(service.port(), "POST", "/query",
                               CarolQueryBody(3 + (t + i) % 5).Dump(),
                               &status);
        if (!qbody.ok() || status != 200) {
          ++failures;
          continue;
        }
        auto qparsed = JsonValue::Parse(*qbody);
        if (!qparsed.ok()) {
          ++failures;
          continue;
        }
        const uint64_t id =
            static_cast<uint64_t>(qparsed->Get("query_id").as_number());
        {
          std::lock_guard<std::mutex> lock(ids_mu);
          // Duplicate ids would mean the cache lost its id discipline.
          if (!all_ids.insert(id).second) ++failures;
        }
        ++queries_ok;

        // 2. A why-not follow-up against the cached query. Under eviction
        // pressure 404 is legitimate; anything else but 200 is a failure.
        JsonValue wn = JsonValue::MakeObject();
        wn.Set("query_id", JsonValue(static_cast<size_t>(id)));
        JsonValue missing = JsonValue::MakeArray();
        missing.Append(JsonValue(20 + (t * kIterations + i) % 40));
        wn.Set("missing", std::move(missing));
        wn.Set("model", JsonValue(i % 2 == 0 ? "preference" : "keyword"));
        auto wbody =
            HttpFetch(service.port(), "POST", "/whynot", wn.Dump(), &status);
        if (!wbody.ok() || (status != 200 && status != 404)) {
          ++failures;
        } else if (status == 200) {
          ++whynots_ok;
        }

        // 3. Half the clients release their query, half rely on eviction.
        if (i % 2 == 0) {
          JsonValue forget = JsonValue::MakeObject();
          forget.Set("query_id", JsonValue(static_cast<size_t>(id)));
          auto fbody = HttpFetch(service.port(), "POST", "/forget",
                                 forget.Dump(), &status);
          if (!fbody.ok() || status != 200) ++failures;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(queries_ok.load(), kThreads * kIterations);
  // Cache consistency: never above the bound, and exactly the queries that
  // were neither forgotten nor evicted remain.
  EXPECT_LE(service.cached_queries(), options.max_cached_queries);

  // Log consistency: one "topk" entry per successful query, one "whynot"
  // entry per successful why-not, interleaved but none lost.
  size_t topk_entries = 0;
  size_t whynot_entries = 0;
  for (const QueryLogEntry& e : service.log().Snapshot()) {
    if (e.kind == "topk") ++topk_entries;
    if (e.kind == "whynot") ++whynot_entries;
  }
  EXPECT_EQ(topk_entries, static_cast<size_t>(queries_ok.load()));
  EXPECT_EQ(whynot_entries, static_cast<size_t>(whynots_ok.load()));

  service.Stop();
}

TEST(ServiceConcurrencyTest, ShardedServiceParallelQueries) {
  // The sharded engine's worker pool is shared by all HTTP workers: fire
  // concurrent queries and verify every response is the same exact top-k.
  const Corpus reference = CorpusBuilder().Build(GenerateHotelDataset());
  const ShardedCorpus sharded = ShardedCorpus::Partition(
      reference.store(), GridShardRouter::Fit(reference.store(), 4));
  YaskServiceOptions options;
  options.num_workers = 6;
  YaskService service(sharded, options);
  ASSERT_TRUE(service.Start().ok());

  const TopKResult expected = [&] {
    Query q;
    q.loc = Point{114.158, 22.281};
    const Vocabulary& v = reference.vocab();
    q.doc = KeywordSet({v.Find("clean"), v.Find("comfortable")});
    q.k = 5;
    return TopKScan(reference.store(), q);
  }();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        int status = 0;
        auto body = HttpFetch(service.port(), "POST", "/query",
                              CarolQueryBody(5).Dump(), &status);
        if (!body.ok() || status != 200) {
          ++mismatches;
          continue;
        }
        auto parsed = JsonValue::Parse(*body);
        if (!parsed.ok()) {
          ++mismatches;
          continue;
        }
        const JsonValue& results = parsed->Get("results");
        if (results.size() != expected.size()) {
          ++mismatches;
          continue;
        }
        for (size_t r = 0; r < expected.size(); ++r) {
          if (static_cast<ObjectId>(
                  results.At(r).Get("id").as_number()) != expected[r].id) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  service.Stop();
}

}  // namespace
}  // namespace yask
