// ShardedCorpus: partition invariants, global object access, per-shard
// snapshot save/load, and cross-file validation of the shard manifests.

#include "src/corpus/sharded_corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

ObjectStore SmallDataset(size_t n = 800, uint64_t seed = 21) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.vocabulary_size = 80;
  spec.seed = seed;
  return GenerateDataset(spec);
}

void RemoveShardFiles(const std::string& prefix, size_t shards) {
  for (uint32_t s = 0; s < shards; ++s) {
    std::remove(ShardedCorpus::ShardFilePath(prefix, s).c_str());
  }
}

TEST(ShardedCorpusTest, PartitionPreservesEveryObjectExactlyOnce) {
  const ObjectStore source = SmallDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(source, GridShardRouter::Fit(source, 4));
  ASSERT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.size(), source.size());
  EXPECT_EQ(sharded.bounds(), source.bounds());
  EXPECT_DOUBLE_EQ(sharded.dist_norm(), source.BoundsDiagonal());

  size_t total = 0;
  std::set<ObjectId> seen;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const std::vector<ObjectId>& globals = sharded.shard_global_ids(s);
    EXPECT_EQ(globals.size(), sharded.shard(s).size());
    total += globals.size();
    // Ascending global order within each shard (the D6 tie-order invariant).
    for (size_t i = 0; i + 1 < globals.size(); ++i) {
      EXPECT_LT(globals[i], globals[i + 1]);
    }
    for (ObjectId local = 0; local < globals.size(); ++local) {
      seen.insert(globals[local]);
      EXPECT_EQ(sharded.ToGlobal(s, local), globals[local]);
      // The shard store's object is the source object, verbatim.
      const SpatialObject& shard_obj = sharded.shard(s).store().Get(local);
      const SpatialObject& source_obj = source.Get(globals[local]);
      EXPECT_EQ(shard_obj.loc, source_obj.loc);
      EXPECT_EQ(shard_obj.name, source_obj.name);
      EXPECT_TRUE(shard_obj.doc == source_obj.doc);
    }
  }
  EXPECT_EQ(total, source.size());
  EXPECT_EQ(seen.size(), source.size());

  // Global accessors agree with the source store.
  for (ObjectId id = 0; id < source.size(); ++id) {
    EXPECT_EQ(sharded.Object(id).name, source.Get(id).name);
  }
  // Shards share one vocabulary instance (term ids stay valid verbatim).
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(&sharded.shard(s).vocab(), &source.vocab());
  }
}

TEST(ShardedCorpusTest, FindByNameMatchesUnshardedFirstHit) {
  const ObjectStore source = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(source, GridShardRouter::Fit(source, 3));
  // Names repeat in generated data ("clone" styles); first-by-global-id must
  // match the unsharded scan for several probes.
  for (ObjectId probe : {0u, 100u, 538u}) {
    const std::string& name = source.Get(probe).name;
    EXPECT_EQ(sharded.FindByName(name), source.FindByName(name));
  }
  EXPECT_EQ(sharded.FindByName("no-such-hotel"), kInvalidObject);
}

TEST(ShardedCorpusTest, SaveLoadRoundTripServesIdenticalResults) {
  const std::string prefix = ::testing::TempDir() + "sharded_roundtrip";
  const ObjectStore source = SmallDataset();
  const ShardedCorpus original =
      ShardedCorpus::Partition(source, GridShardRouter::Fit(source, 3));
  auto bytes = original.Save(prefix);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  auto loaded = ShardedCorpus::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_shards(), 3u);
  EXPECT_EQ(loaded->size(), source.size());
  EXPECT_EQ(loaded->bounds(), original.bounds());
  EXPECT_DOUBLE_EQ(loaded->dist_norm(), original.dist_norm());
  EXPECT_EQ(loaded->router_description(), original.router_description());

  const LocalWhyNotOracle original_oracle(original);
  const LocalWhyNotOracle loaded_oracle(*loaded);
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(source, &rng);
    q.doc = SampleQueryKeywords(source, 3, &rng);
    q.k = 10;
    EXPECT_EQ(loaded_oracle.TopK(q), original_oracle.TopK(q));
  }
  RemoveShardFiles(prefix, 3);
}

TEST(ShardedCorpusTest, LoadRejectsMissingShardFile) {
  const std::string prefix = ::testing::TempDir() + "sharded_missing";
  const ObjectStore source = SmallDataset(300, 8);
  const ShardedCorpus original =
      ShardedCorpus::Partition(source, GridShardRouter::Fit(source, 3));
  ASSERT_TRUE(original.Save(prefix).ok());
  std::remove(ShardedCorpus::ShardFilePath(prefix, 1).c_str());

  auto loaded = ShardedCorpus::Load(prefix);
  EXPECT_FALSE(loaded.ok());
  RemoveShardFiles(prefix, 3);
}

TEST(ShardedCorpusTest, LoadRejectsMixedPartitions) {
  // A shard file from a *different* partition of the same data must be
  // caught by the duplicate/hole check on global ids.
  const std::string prefix_a = ::testing::TempDir() + "sharded_mix_a";
  const std::string prefix_b = ::testing::TempDir() + "sharded_mix_b";
  const ObjectStore source = SmallDataset(400, 13);
  const ShardedCorpus grid =
      ShardedCorpus::Partition(source, GridShardRouter::Fit(source, 2));
  const ShardedCorpus hash = ShardedCorpus::Partition(
      source, std::make_unique<HashShardRouter>(2));
  ASSERT_TRUE(grid.Save(prefix_a).ok());
  ASSERT_TRUE(hash.Save(prefix_b).ok());
  // Swap shard 1 of partition A for shard 1 of partition B.
  ASSERT_EQ(std::rename(ShardedCorpus::ShardFilePath(prefix_b, 1).c_str(),
                        ShardedCorpus::ShardFilePath(prefix_a, 1).c_str()),
            0);

  auto loaded = ShardedCorpus::Load(prefix_a);
  EXPECT_FALSE(loaded.ok());
  RemoveShardFiles(prefix_a, 2);
  RemoveShardFiles(prefix_b, 2);
}

TEST(ShardedCorpusTest, SingleShardBehavesLikeCorpus) {
  const ObjectStore source = SmallDataset(200, 17);
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(source, GridShardRouter::Fit(source, 1));
  EXPECT_EQ(sharded.num_shards(), 1u);
  EXPECT_EQ(sharded.shard(0).size(), source.size());
  for (ObjectId id = 0; id < source.size(); ++id) {
    EXPECT_EQ(sharded.ToGlobal(0, id), id);
  }
}

}  // namespace
}  // namespace yask
