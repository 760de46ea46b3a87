// The fan-out worker pool is owned by the ShardedCorpus and SHARED by every
// oracle over it: each LocalWhyNotOracle — whose fan-outs answer /query's
// top-k and /whynot alike — must borrow the corpus's pool instead of
// spinning up its own: one pool per serving corpus, however many engines the
// server wires up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "src/corpus/sharded_corpus.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/why_not_engine.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

ObjectStore MakeStore() {
  DatasetSpec spec;
  spec.num_objects = 400;
  spec.vocabulary_size = 40;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 99;
  return GenerateDataset(spec);
}

/// The pool a corpus of `shards` shards owns on this host: one thread per
/// shard capped by the hardware concurrency, none on a single-core host.
size_t ExpectedThreads(size_t shards) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return hw <= 1 ? 0 : std::min(hw, shards);
}

TEST(ShardedPoolReuseTest, EnginesShareTheCorpusPool) {
  const ObjectStore store = MakeStore();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  if (ExpectedThreads(4) == 0) {
    // Single-core host: inline fan-out beats a pool; none is created.
    EXPECT_EQ(sharded.pool(), nullptr);
  } else {
    ASSERT_NE(sharded.pool(), nullptr);
    EXPECT_EQ(sharded.pool()->num_threads(), ExpectedThreads(4));
  }

  const LocalWhyNotOracle oracle(sharded);
  EXPECT_EQ(oracle.pool(), sharded.pool());

  // A second oracle still shares the same pool (no per-engine pools).
  const LocalWhyNotOracle oracle2(sharded);
  EXPECT_EQ(oracle2.pool(), sharded.pool());

  // Top-k and why-not both actually work over the shared pool (or inline).
  Rng rng(5);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 2, &rng);
  q.k = 5;
  const TopKResult result = oracle.TopK(q);
  EXPECT_EQ(result.size(), 5u);
  EXPECT_EQ(oracle2.TopK(q), result);
  const WhyNotEngine engine(sharded);
  EXPECT_EQ(engine.oracle().TopK(q), result);
  auto answer = engine.Answer(q, {result.back().id});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
}

TEST(ShardedPoolReuseTest, SingleShardCorpusHasNoPool) {
  const ObjectStore store = MakeStore();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 1));
  EXPECT_EQ(sharded.pool(), nullptr);
  const LocalWhyNotOracle oracle(sharded);
  EXPECT_EQ(oracle.pool(), nullptr);
  // The inline fan-out still answers: one shard, searched on this thread.
  Rng rng(6);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 2, &rng);
  q.k = 5;
  EXPECT_EQ(oracle.TopK(q).size(), 5u);
}

TEST(ShardedPoolReuseTest, AutoSizingFollowsTheHost) {
  const ObjectStore store = MakeStore();
  for (const uint32_t shards : {2u, 4u, 8u}) {
    const ShardedCorpus many =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    const size_t want = ExpectedThreads(shards);
    EXPECT_EQ(many.pool() == nullptr ? 0 : many.pool()->num_threads(), want)
        << shards << " shards";
  }
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  // Whatever the host decided, the oracles borrow exactly that.
  const LocalWhyNotOracle oracle(sharded);
  const LocalWhyNotOracle oracle2(sharded);
  EXPECT_EQ(oracle.pool(), sharded.pool());
  EXPECT_EQ(oracle2.pool(), sharded.pool());
}

TEST(ShardedPoolReuseTest, LoadedCorpusOwnsAPoolToo) {
  const ObjectStore store = MakeStore();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 3));
  const std::string prefix =
      ::testing::TempDir() + "sharded_pool_reuse_test";
  ASSERT_TRUE(sharded.Save(prefix).ok());

  auto loaded = ShardedCorpus::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->pool() == nullptr ? 0 : loaded->pool()->num_threads(),
            ExpectedThreads(3));
  const LocalWhyNotOracle oracle(*loaded);
  EXPECT_EQ(oracle.pool(), loaded->pool());
  for (uint32_t s = 0; s < 3; ++s) {
    std::remove(ShardedCorpus::ShardFilePath(prefix, s).c_str());
  }
}

}  // namespace
}  // namespace yask
