// Corpus/CorpusBuilder: owned serving state built from raw objects or a
// snapshot file, with rebuild-on-missing-section behaviour.

#include "src/corpus/corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

ObjectStore SmallDataset(uint64_t seed = 11) {
  DatasetSpec spec;
  spec.num_objects = 500;
  spec.vocabulary_size = 60;
  spec.seed = seed;
  return GenerateDataset(spec);
}

Query SomeQuery(const ObjectStore& store, uint32_t k = 10) {
  Rng rng(3);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 3, &rng);
  q.k = k;
  return q;
}

/// The served top-k over the corpus's own store and R-tree.
TopKResult TopKOf(const Corpus& corpus, const Query& q) {
  return LocalWhyNotOracle(corpus).TopK(q);
}

TEST(CorpusTest, BuildOwnsStoreAndIndexes) {
  const Corpus corpus = CorpusBuilder().Build(SmallDataset());
  EXPECT_EQ(corpus.size(), 500u);
  EXPECT_EQ(corpus.rtree().size(), 500u);
  EXPECT_TRUE(corpus.rtree().Validate().ok());

  const Query q = SomeQuery(corpus.store());
  EXPECT_EQ(TopKOf(corpus, q), TopKScan(corpus.store(), q));
}

TEST(CorpusTest, MoveKeepsIndexStorePointersValid) {
  Corpus corpus = CorpusBuilder().Build(SmallDataset());
  const Query q = SomeQuery(corpus.store());
  const TopKResult before = TopKOf(corpus, q);
  Corpus moved = std::move(corpus);
  EXPECT_EQ(TopKOf(moved, q), before);
  EXPECT_EQ(&moved.rtree().store(), &moved.store());
}

TEST(CorpusTest, SnapshotRoundTripReproducesResults) {
  const std::string path = ::testing::TempDir() + "corpus_roundtrip.snap";
  const Corpus original = CorpusBuilder().Build(SmallDataset());
  auto bytes = original.Save(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(*bytes, 0u);

  auto restored = CorpusBuilder().FromSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), original.size());
  EXPECT_TRUE(restored->rtree().Validate().ok());

  const Query q = SomeQuery(original.store());
  EXPECT_EQ(TopKOf(*restored, q), TopKOf(original, q));
  std::remove(path.c_str());
}

TEST(CorpusTest, FromSnapshotRebuildsMissingIndexes) {
  // A store-only snapshot (no index sections) still yields a full corpus:
  // the builder bulk-loads what the file lacks.
  const std::string path = ::testing::TempDir() + "corpus_store_only.snap";
  const ObjectStore store = SmallDataset();
  auto bytes = WriteSnapshot(path, store);
  ASSERT_TRUE(bytes.ok());

  auto restored = CorpusBuilder().FromSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->rtree().size(), store.size());
  const Query q = SomeQuery(store);
  EXPECT_EQ(TopKOf(*restored, q), TopKScan(store, q));
  std::remove(path.c_str());
}

TEST(CorpusTest, FromSnapshotRejectsShardFileByDefault) {
  const std::string path = ::testing::TempDir() + "corpus_shard_file.snap";
  const Corpus corpus = CorpusBuilder().Build(SmallDataset());
  ShardManifest manifest;
  manifest.shard_index = 0;
  manifest.shard_count = 2;
  manifest.global_bounds = corpus.store().bounds();
  for (ObjectId id = 0; id < corpus.size(); ++id) {
    manifest.global_ids.push_back(id * 2);
  }
  ASSERT_TRUE(corpus.Save(path, &manifest).ok());

  // Without a manifest sink the builder refuses (the file is not a whole
  // corpus); with one it loads and hands the manifest over.
  auto rejected = CorpusBuilder().FromSnapshot(path);
  EXPECT_FALSE(rejected.ok());

  std::unique_ptr<ShardManifest> loaded_manifest;
  auto accepted = CorpusBuilder().FromSnapshot(path, &loaded_manifest);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_NE(loaded_manifest, nullptr);
  EXPECT_EQ(loaded_manifest->shard_count, 2u);
  EXPECT_EQ(loaded_manifest->global_ids.size(), corpus.size());
  std::remove(path.c_str());
}

TEST(CorpusTest, FromSnapshotMissingFileIsNotFound) {
  auto result = CorpusBuilder().FromSnapshot("/nonexistent/nope.snap");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace yask
