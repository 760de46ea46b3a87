#include "src/query/topk_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

// The linear scan every engine is checked against, and the best-first queue
// order the served k-NN and the baselines share. The engines' own agreement
// with the scan is tested where they live: the served split top-k in
// tests/corpus/sharded_topk_split_test.cc, the baselines in tests/baselines/.

TEST(TopKScanTest, KLargerThanDatasetReturnsEverything) {
  DatasetSpec spec;
  spec.num_objects = 20;
  const ObjectStore store = GenerateDataset(spec);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 100;
  TopKStats stats;
  const TopKResult r = TopKScan(store, q, &stats);
  EXPECT_EQ(r.size(), 20u);
  EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
  EXPECT_EQ(stats.objects_scored, 20u);
}

TEST(TopKScanTest, ResultsSortedAndDeterministic) {
  DatasetSpec spec;
  spec.num_objects = 1000;
  const ObjectStore store = GenerateDataset(spec);
  Query q;
  q.loc = Point{0.4, 0.6};
  q.doc = KeywordSet({0, 1, 2});
  q.k = 25;
  const TopKResult a = TopKScan(store, q);
  EXPECT_EQ(a.size(), 25u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a, TopKScan(store, q));
}

TEST(TopKScanTest, TieBreakingByIdUnderUniformScores) {
  // All objects identical => scores all equal => ids 0..k-1 win.
  ObjectStore store;
  store.mutable_vocab()->Intern("x");
  for (int i = 0; i < 40; ++i) store.Add(Point{0.5, 0.5}, KeywordSet({0}));
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 5;
  const TopKResult r = TopKScan(store, q);
  ASSERT_EQ(r.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(r[i].id, i);
}

TEST(TopKScanTest, EmptyStore) {
  ObjectStore store;
  Query q;
  q.doc = KeywordSet({0});
  q.k = 3;
  EXPECT_TRUE(TopKScan(store, q).empty());
}

TEST(BestFirstEntryTest, PopsHigherKeyThenNodesThenSmallerObjectIds) {
  std::priority_queue<BestFirstEntry> pq;
  pq.push(BestFirstEntry{0.5, true, 9});
  pq.push(BestFirstEntry{0.5, true, 2});
  pq.push(BestFirstEntry{0.5, false, 4});
  pq.push(BestFirstEntry{0.7, true, 30});
  pq.push(BestFirstEntry{0.1, false, 1});
  const BestFirstEntry expected[] = {
      {0.7, true, 30}, {0.5, false, 4}, {0.5, true, 2},
      {0.5, true, 9},  {0.1, false, 1}};
  for (const BestFirstEntry& e : expected) {
    ASSERT_FALSE(pq.empty());
    EXPECT_EQ(pq.top().key, e.key);
    EXPECT_EQ(pq.top().is_object, e.is_object);
    EXPECT_EQ(pq.top().id, e.id);
    pq.pop();
  }
  EXPECT_TRUE(pq.empty());
}

}  // namespace
}  // namespace yask
