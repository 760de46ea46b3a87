// Fan-out top-k property test: for randomized datasets, shard counts,
// routers and queries, FanOutWhyNotOracle::TopK — the one top-k driver of
// every layout — must be BIT-IDENTICAL to the unsharded SetRTopKEngine and
// to the index-free reference: same ids in the same order, and score doubles
// that compare equal with ==. This is the acceptance gate of the sharding
// layer: if it ever diverges, the merge (or the per-shard scoring
// normaliser) broke.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/server/shard_service.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/whynot_oracle.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

/// Compares full equality and prints a useful diff on mismatch.
void ExpectBitIdentical(const TopKResult& sharded, const TopKResult& expected,
                        const std::string& label) {
  ASSERT_EQ(sharded.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sharded[i].id, expected[i].id)
        << label << " rank " << i << ": id " << sharded[i].id << " vs "
        << expected[i].id;
    // Bit-identity, not near-equality: the sharded path must run the exact
    // same floating-point arithmetic.
    EXPECT_EQ(sharded[i].score, expected[i].score)
        << label << " rank " << i;
  }
}

void RunPropertyTrials(const ObjectStore& store, uint64_t query_seed) {
  const Corpus baseline = CorpusBuilder().Build(ObjectStore(store));
  const SetRTopKEngine reference(baseline.store(), baseline.setr());

  const CorpusOptions options;
  for (const uint32_t shards : {1u, 2u, 3u, 4u, 7u}) {
    for (const bool use_hash : {false, true}) {
      std::unique_ptr<ShardRouter> router;
      if (use_hash) {
        router = std::make_unique<HashShardRouter>(shards);
      } else {
        router = GridShardRouter::Fit(store, shards);
      }
      const std::string label = router->Describe();
      const ShardedCorpus sharded =
          ShardedCorpus::Partition(store, std::move(router), options);
      const LocalWhyNotOracle oracle(sharded);

      Rng rng(query_seed);
      for (int trial = 0; trial < 12; ++trial) {
        Query q;
        q.loc = SampleQueryLocation(store, &rng);
        q.doc = SampleQueryKeywords(store, 1 + trial % 4, &rng);
        // Sweep k from tiny through larger-than-corpus (clamped results).
        const uint32_t ks[] = {1, 3, 10, 50,
                               static_cast<uint32_t>(store.size() + 5)};
        q.k = ks[trial % 5];
        ExpectBitIdentical(oracle.TopK(q), reference.Query(q),
                           label + " trial " + std::to_string(trial));
      }
    }
  }
}

TEST(ShardedTopKPropertyTest, ClusteredSyntheticDataset) {
  DatasetSpec spec;
  spec.num_objects = 3000;
  spec.vocabulary_size = 300;
  spec.seed = 77;
  RunPropertyTrials(GenerateDataset(spec), /*query_seed=*/101);
}

TEST(ShardedTopKPropertyTest, UniformSyntheticDataset) {
  DatasetSpec spec;
  spec.num_objects = 1500;
  spec.vocabulary_size = 100;
  spec.spatial = SpatialDistribution::kUniform;
  spec.seed = 78;
  RunPropertyTrials(GenerateDataset(spec), /*query_seed=*/102);
}

TEST(ShardedTopKPropertyTest, HotelDemoDataset) {
  RunPropertyTrials(GenerateHotelDataset(), /*query_seed=*/103);
}

TEST(ShardedTopKPropertyTest, TieHeavyDegenerateDataset) {
  // Exact score ties everywhere: clones at shared points with shared docs.
  // The merge must reproduce the global id tie-break across shard borders.
  ObjectStore store;
  const TermId a = store.mutable_vocab()->Intern("a");
  const TermId b = store.mutable_vocab()->Intern("b");
  for (int i = 0; i < 300; ++i) {
    const double x = 0.1 + 0.2 * (i % 5);  // Five stacked columns.
    store.Add(Point{x, 0.5}, KeywordSet(i % 2 == 0 ? std::vector<TermId>{a}
                                                   : std::vector<TermId>{a, b}),
              "clone");
  }
  RunPropertyTrials(store, /*query_seed=*/104);
}

TEST(ShardedTopKPropertyTest, StatsAreAccumulatedAcrossShards) {
  DatasetSpec spec;
  spec.num_objects = 2000;
  spec.seed = 79;
  const ObjectStore store = GenerateDataset(spec);
  const CorpusOptions options;
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4), options);
  const LocalWhyNotOracle oracle(sharded);
  Rng rng(5);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 3, &rng);
  q.k = 10;
  size_t holders = 0;
  for (const SpatialObject& o : store.objects()) {
    if (o.doc.IntersectionSize(q.doc) > 0) ++holders;
  }
  ASSERT_GT(holders, 0u);
  TopKStats stats;
  const TopKResult r = oracle.TopK(q, &stats);
  EXPECT_EQ(r.size(), 10u);
  // Every shard scores each of its holders, whatever its threshold.
  EXPECT_GE(stats.objects_scored, holders);

  const Corpus corpus = CorpusBuilder().Build(ObjectStore(store));
  const ShardedCorpus one =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 1), options);
  // One shard's split search on q: its k-th holder outscores ws·1, the best
  // any non-holder can reach, so the k-NN pops no node and exactly the
  // holders are scored. The stats add up over repeated calls.
  ASSERT_GT(reference::TopK(store, q).back().score, q.w.ws);
  // A query term no object holds: no holders, so the split search is the
  // SetR-tree's best-first search with a text bound of 0, pop for pop.
  Query unheld = q;
  unheld.doc = KeywordSet({static_cast<TermId>(store.vocab().size() + 7)});
  TopKStats engine_stats;
  (void)SetRTopKEngine(corpus.store(), corpus.setr())
      .Query(unheld, &engine_stats);
  ASSERT_GT(engine_stats.nodes_popped, 0u);
  auto expect_split_work = [&](const WhyNotOracle& single,
                               const std::string& label) {
    TopKStats one_stats;
    (void)single.TopK(q, &one_stats);
    EXPECT_EQ(one_stats.nodes_popped, 0u) << label;
    EXPECT_EQ(one_stats.objects_scored, holders) << label;
    (void)single.TopK(q, &one_stats);
    EXPECT_EQ(one_stats.objects_scored, 2 * holders) << label;

    TopKStats unheld_stats;
    (void)single.TopK(unheld, &unheld_stats);
    EXPECT_EQ(unheld_stats.nodes_popped, engine_stats.nodes_popped) << label;
    EXPECT_EQ(unheld_stats.objects_scored, engine_stats.objects_scored)
        << label;
  };
  expect_split_work(LocalWhyNotOracle(corpus), "local");
  expect_split_work(LocalWhyNotOracle(one), "1 shard");
}

// --- One driver, every layout -----------------------------------------------

/// Routes the left half of the unit square to shard 0 and the rest to
/// shard 1 of three: shard 2 stays empty.
class TwoOfThreeRouter final : public ShardRouter {
 public:
  uint32_t num_shards() const override { return 3; }
  uint32_t Route(const Point& loc) const override {
    return loc.x < 0.5 ? 0 : 1;
  }
  std::string Describe() const override { return "two-of-three"; }
};

/// Started shard servers over one ShardedCorpus.
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

/// Every query of the parity suite: random locations and docs, k from 0
/// past the store size, and the edge weights ws = 0 and wt = 0.
std::vector<Query> ParityQueries(const ObjectStore& store) {
  std::vector<Query> queries;
  Rng rng(404);
  const uint32_t n = static_cast<uint32_t>(store.size());
  const uint32_t ks[] = {0, 1, 7, n, n + 5};
  const double wss[] = {0.5, 0.0, 1.0, 0.3};
  for (int trial = 0; trial < 20; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + trial % 3, &rng);
    q.k = ks[trial % 5];
    q.w = Weights::FromWs(wss[trial % 4]);
    queries.push_back(q);
  }
  return queries;
}

void ExpectReferenceRows(const WhyNotOracle& oracle, const ObjectStore& store,
                         const std::string& layout) {
  for (const Query& q : ParityQueries(store)) {
    const std::string label = layout + " k=" + std::to_string(q.k) +
                              " ws=" + std::to_string(q.w.ws);
    const TopKResult rows = oracle.TopK(q);
    ExpectBitIdentical(rows, reference::TopK(store, q), label + " reference");
    ExpectBitIdentical(rows, TopKScan(store, q), label + " TopKScan");
  }
}

/// The same over a loopback fleet serving `sharded`.
void ExpectRemoteReferenceRows(const ShardedCorpus& sharded,
                               const ObjectStore& store,
                               const std::string& layout) {
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  ExpectReferenceRows(RemoteShardOracle(remote), store, layout);
  EXPECT_EQ(remote.error_epoch(), 0u) << layout;
}

TEST(TopKLayoutParityTest, EveryLayoutAnswersTheReferenceRows) {
  DatasetSpec spec;
  spec.num_objects = 600;
  spec.vocabulary_size = 40;
  spec.spatial = SpatialDistribution::kUniform;
  spec.seed = 405;
  const ObjectStore store = GenerateDataset(spec);

  const Corpus corpus = CorpusBuilder().Build(ObjectStore(store));
  ExpectReferenceRows(LocalWhyNotOracle(corpus), store, "local");
  for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    const std::string label = std::to_string(shards) + " shards";
    ExpectReferenceRows(LocalWhyNotOracle(sharded), store, label);
    if (shards == 4) {
      ExpectRemoteReferenceRows(sharded, store, "remote " + label);
    }
  }

  // An empty shard, in process and behind the wire.
  const ShardedCorpus two_of_three =
      ShardedCorpus::Partition(store, std::make_unique<TwoOfThreeRouter>());
  ASSERT_EQ(two_of_three.shard(2).size(), 0u);
  ExpectReferenceRows(LocalWhyNotOracle(two_of_three), store,
                      "two of three");
  ExpectRemoteReferenceRows(two_of_three, store, "remote two of three");
}

}  // namespace
}  // namespace yask
