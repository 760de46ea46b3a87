// ShardedTopKEngine property test: for randomized datasets, shard counts,
// routers and queries, the parallel fan-out/merge result must be
// BIT-IDENTICAL to the unsharded SetRTopKEngine — same ids in the same
// order, and score doubles that compare equal with ==. This is the
// acceptance gate of the sharding layer: if it ever diverges, the merge (or
// the per-shard scoring normaliser) broke.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"

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
  const SetRTopKEngine reference = baseline.topk();

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
      const ShardedTopKEngine engine(sharded);

      Rng rng(query_seed);
      for (int trial = 0; trial < 12; ++trial) {
        Query q;
        q.loc = SampleQueryLocation(store, &rng);
        q.doc = SampleQueryKeywords(store, 1 + trial % 4, &rng);
        // Sweep k from tiny through larger-than-corpus (clamped results).
        const uint32_t ks[] = {1, 3, 10, 50,
                               static_cast<uint32_t>(store.size() + 5)};
        q.k = ks[trial % 5];
        ExpectBitIdentical(engine.Query(q), reference.Query(q),
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
  const ShardedTopKEngine engine(sharded);
  Rng rng(5);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 3, &rng);
  q.k = 10;
  TopKStats stats;
  const TopKResult r = engine.Query(q, &stats);
  EXPECT_EQ(r.size(), 10u);
  EXPECT_GT(stats.nodes_popped, 0u);
  EXPECT_GT(stats.objects_scored, 0u);
}

}  // namespace
}  // namespace yask
