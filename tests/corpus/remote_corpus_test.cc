// Remote shard tier property test — the wire twin of sharded_whynot_test:
// a coordinator talking to loopback ShardService processes-in-miniature must
// answer top-k AND the full why-not stack BIT-identically to the in-process
// sharded layout and to the unsharded reference, at 1/2/4 shards. Also
// covers Connect() validation (wrong endpoint count, duplicate shard,
// unreachable host, unsupported protocol version) and the error-epoch
// channel.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/text.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/server/http_server.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/why_not_engine.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

/// Started shard servers over one ShardedCorpus, plus the endpoint list a
/// coordinator connects to.
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

  ~ShardFleet() {
    for (auto& service : services) service->Stop();
  }
};

void ExpectSameResult(const TopKResult& actual, const TopKResult& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << label << " rank " << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " rank " << i;
  }
}

void ExpectSamePenalty(const PenaltyBreakdown& s, const PenaltyBreakdown& e,
                       const std::string& label) {
  EXPECT_EQ(s.value, e.value) << label;
  EXPECT_EQ(s.k_term, e.k_term) << label;
  EXPECT_EQ(s.mod_term, e.mod_term) << label;
  EXPECT_EQ(s.delta_k, e.delta_k) << label;
  EXPECT_EQ(s.delta_w, e.delta_w) << label;
  EXPECT_EQ(s.delta_doc, e.delta_doc) << label;
}

void ExpectSameAnswer(const WhyNotAnswer& actual, const WhyNotAnswer& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.explanations.size(), expected.explanations.size()) << label;
  for (size_t i = 0; i < expected.explanations.size(); ++i) {
    const MissingObjectExplanation& a = actual.explanations[i];
    const MissingObjectExplanation& e = expected.explanations[i];
    EXPECT_EQ(a.id, e.id) << label;
    EXPECT_EQ(a.rank, e.rank) << label << " id " << e.id;
    EXPECT_EQ(a.score, e.score) << label << " id " << e.id;
    EXPECT_EQ(a.sdist, e.sdist) << label << " id " << e.id;
    EXPECT_EQ(a.tsim, e.tsim) << label << " id " << e.id;
    EXPECT_EQ(a.reason, e.reason) << label << " id " << e.id;
    EXPECT_EQ(a.recommendation, e.recommendation) << label << " id " << e.id;
    EXPECT_EQ(a.text, e.text) << label << " id " << e.id;
  }
  ASSERT_EQ(actual.preference.has_value(), expected.preference.has_value())
      << label;
  if (expected.preference.has_value()) {
    EXPECT_EQ(actual.preference->refined.w.ws, expected.preference->refined.w.ws)
        << label;
    EXPECT_EQ(actual.preference->refined.k, expected.preference->refined.k)
        << label;
    EXPECT_EQ(actual.preference->original_rank,
              expected.preference->original_rank)
        << label;
    EXPECT_EQ(actual.preference->refined_rank,
              expected.preference->refined_rank)
        << label;
    ExpectSamePenalty(actual.preference->penalty, expected.preference->penalty,
                      label + " pref penalty");
  }
  ASSERT_EQ(actual.keyword.has_value(), expected.keyword.has_value()) << label;
  if (expected.keyword.has_value()) {
    EXPECT_EQ(actual.keyword->refined.doc.ids(),
              expected.keyword->refined.doc.ids())
        << label;
    EXPECT_EQ(actual.keyword->refined.k, expected.keyword->refined.k) << label;
    EXPECT_EQ(actual.keyword->original_rank, expected.keyword->original_rank)
        << label;
    EXPECT_EQ(actual.keyword->refined_rank, expected.keyword->refined_rank)
        << label;
    ExpectSamePenalty(actual.keyword->penalty, expected.keyword->penalty,
                      label + " kw penalty");
  }
  EXPECT_EQ(actual.recommended, expected.recommended) << label;
  ExpectSameResult(actual.refined_result, expected.refined_result,
                   label + " refined result");
}

/// Missing objects ranked just outside the top-k.
std::vector<ObjectId> PickMissing(const ObjectStore& store, const Query& q,
                                  size_t count, size_t offset) {
  Query probe = q;
  probe.k = static_cast<uint32_t>(q.k + offset + count + 5);
  const TopKResult wide = TopKScan(store, probe);
  std::vector<ObjectId> missing;
  for (size_t i = q.k + offset; i < wide.size() && missing.size() < count;
       ++i) {
    missing.push_back(wide[i].id);
  }
  return missing;
}

void RunRemoteTrials(const ObjectStore& store, uint64_t query_seed,
                     const std::vector<uint32_t>& shard_counts = {1, 2, 4},
                     int trials = 3) {
  const Corpus baseline = CorpusBuilder().Build(ObjectStore(store));
  const WhyNotEngine reference(baseline);

  for (const uint32_t shards : shard_counts) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    const WhyNotEngine local_engine(sharded);
    const LocalWhyNotOracle local_oracle(sharded);

    ShardFleet fleet(sharded);
    auto connected = RemoteCorpus::Connect(fleet.endpoints);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    const RemoteCorpus remote = std::move(connected).value();

    // Connect()-time identity: totals, normaliser, vocabulary.
    EXPECT_EQ(remote.size(), store.size());
    EXPECT_EQ(remote.dist_norm(), sharded.dist_norm());
    EXPECT_EQ(remote.vocab().size(), store.vocab().size());

    const RemoteShardOracle remote_oracle(remote);
    const WhyNotEngine remote_engine(
        std::make_unique<RemoteShardOracle>(remote));

    Rng rng(query_seed);
    for (int trial = 0; trial < trials; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      q.doc = SampleQueryKeywords(store, 1 + trial % 3, &rng);
      q.k = 3 + static_cast<uint32_t>(rng.NextBounded(5));
      const std::string tag = std::to_string(shards) + " shards trial " +
                              std::to_string(trial);

      // Top-k over the wire == in-process sharded == unsharded.
      const TopKResult expected = TopKScan(baseline.store(), q);
      ExpectSameResult(remote_oracle.TopK(q), expected, tag + " topk");
      ExpectSameResult(local_oracle.TopK(q), expected, tag + " local topk");

      // Full why-not stack over the wire.
      const size_t m_count = 1 + trial % 2;
      const std::vector<ObjectId> missing =
          PickMissing(store, q, m_count, /*offset=*/2 + trial);
      if (missing.size() != m_count) continue;
      auto expected_answer = reference.Answer(q, missing);
      auto remote_answer = remote_engine.Answer(q, missing);
      ASSERT_TRUE(expected_answer.ok()) << tag;
      ASSERT_TRUE(remote_answer.ok()) << tag;
      ExpectSameAnswer(*remote_answer, *expected_answer, tag);

      // Object fetch + cache parity (names, docs, locations).
      for (const ObjectId id : missing) {
        const SpatialObject& fetched = remote.Object(id);
        const SpatialObject& truth = sharded.Object(id);
        EXPECT_EQ(fetched.name, truth.name) << tag;
        EXPECT_EQ(fetched.loc, truth.loc) << tag;
        EXPECT_EQ(fetched.doc.ids(), truth.doc.ids()) << tag;
      }
    }

    // FindByName resolves the same global first match.
    const std::string name = store.Get(store.size() / 2).name;
    if (!name.empty()) {
      EXPECT_EQ(remote.FindByName(name), sharded.FindByName(name));
    }
    EXPECT_EQ(remote.error_epoch(), 0u) << "clean run must not bump epoch";
  }
}

TEST(RemoteCorpusPropertyTest, ClusteredSyntheticDataset) {
  DatasetSpec spec;
  spec.num_objects = 600;
  spec.vocabulary_size = 50;
  spec.min_keywords = 2;
  spec.max_keywords = 5;
  spec.seed = 571;
  RunRemoteTrials(GenerateDataset(spec), /*query_seed=*/601);
}

TEST(RemoteCorpusPropertyTest, HotelDemoDataset) {
  RunRemoteTrials(GenerateHotelDataset(), /*query_seed=*/603);
}

TEST(RemoteCorpusTest, ConnectValidatesTheFleet) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);

  // Too few endpoints for the fleet's shard count.
  auto partial = RemoteCorpus::Connect({fleet.endpoints[0]});
  EXPECT_FALSE(partial.ok());

  // The same shard twice.
  auto duplicated =
      RemoteCorpus::Connect({fleet.endpoints[0], fleet.endpoints[0]});
  EXPECT_FALSE(duplicated.ok());

  // An unreachable endpoint fails cleanly (fast connect timeout).
  RemoteShardOptions opts;
  opts.connect_timeout_ms = 200;
  opts.retries = 0;
  auto dead = RemoteCorpus::Connect({"127.0.0.1:1", fleet.endpoints[1]}, opts);
  EXPECT_FALSE(dead.ok());

  // Endpoint order does not matter: shards are indexed by their identity.
  auto reversed =
      RemoteCorpus::Connect({fleet.endpoints[1], fleet.endpoints[0]});
  ASSERT_TRUE(reversed.ok()) << reversed.status().ToString();
  EXPECT_EQ(reversed->num_shards(), 2u);
  EXPECT_EQ(reversed->meta(0).shard_index, 0u);
  EXPECT_EQ(reversed->meta(1).shard_index, 1u);
}

TEST(RemoteCorpusTest, ConnectRejectsAProtocolV2Shard) {
  // One wire-protocol version: the weight sweep speaks only the v3
  // /shard/plane/count_batch route, so a shard server announcing v2 is
  // refused at Connect() time instead of being served by a fallback.
  HttpServer server(uint16_t{0}, /*num_workers=*/1);
  server.Route("GET", shardrpc::kMetaPath, [](const HttpRequest&) {
    shardrpc::ShardMeta meta;
    meta.protocol_version = 2;
    meta.object_count = 1;
    BufWriter out;
    shardrpc::PutShardMeta(&out, meta);
    return HttpResponse{200, "application/octet-stream", out.data()};
  });
  ASSERT_TRUE(server.Start().ok());
  auto connected = RemoteCorpus::Connect(
      {"127.0.0.1:" + std::to_string(server.bound_port())});
  EXPECT_EQ(connected.status().code(), StatusCode::kFailedPrecondition)
      << connected.status().ToString();
  server.Stop();
}

TEST(RemoteCorpusTest, ShardFailureBumpsTheErrorEpoch) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  auto fleet = std::make_unique<ShardFleet>(sharded);

  RemoteShardOptions opts;
  opts.connect_timeout_ms = 300;
  opts.call_deadline_ms = 1000;
  opts.retries = 0;
  auto connected = RemoteCorpus::Connect(fleet->endpoints, opts);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  const RemoteShardOracle oracle(remote);

  Query q;
  q.loc = Point{114.15, 22.28};
  q.doc = LookupKeywords("clean comfortable", remote.vocab());
  q.k = 3;
  EXPECT_EQ(oracle.TopK(q).size(), 3u);
  EXPECT_EQ(remote.error_epoch(), 0u);

  // Kill the fleet: the next fan-out must bump the epoch, not hang or lie.
  fleet.reset();
  const uint64_t before = remote.error_epoch();
  (void)oracle.TopK(q);
  EXPECT_GT(remote.error_epoch(), before);
  EXPECT_FALSE(remote.last_error().ok());
}

}  // namespace
}  // namespace yask
