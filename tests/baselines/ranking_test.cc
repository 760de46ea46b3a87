#include "bench/baselines/scan_oracle.h"

#include <gtest/gtest.h>

#include <set>

#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

TEST(RankingTest, OutranksTargetBreaksTiesBySmallerId) {
  EXPECT_TRUE(OutranksTarget(0.6, 9, 0.5, 1));
  EXPECT_FALSE(OutranksTarget(0.4, 0, 0.5, 1));
  EXPECT_TRUE(OutranksTarget(0.5, 0, 0.5, 1));
  EXPECT_FALSE(OutranksTarget(0.5, 2, 0.5, 1));
}

TEST(RankingTest, TopKObjectsHaveRanksOneThroughK) {
  DatasetSpec spec;
  spec.num_objects = 800;
  const ObjectStore store = GenerateDataset(spec);
  Query q;
  q.loc = Point{0.3, 0.3};
  q.doc = KeywordSet({0, 1});
  q.k = 10;
  const TopKResult result = TopKScan(store, q);
  ASSERT_EQ(result.size(), 10u);
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(ComputeRankScan(store, q, result[i].id), i + 1)
        << "result position " << i;
  }
}

TEST(RankingTest, RankMembershipConsistency) {
  // rank(o) <= k  <=>  o in top-k.
  DatasetSpec spec;
  spec.num_objects = 500;
  const ObjectStore store = GenerateDataset(spec);
  Query q;
  q.loc = Point{0.7, 0.2};
  q.doc = KeywordSet({0, 2, 4});
  q.k = 20;
  const TopKResult result = TopKScan(store, q);
  std::set<ObjectId> in_result;
  for (const ScoredObject& so : result) in_result.insert(so.id);
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    const ObjectId id = static_cast<ObjectId>(rng.NextBounded(store.size()));
    const size_t rank = ComputeRankScan(store, q, id);
    EXPECT_EQ(rank <= q.k, in_result.count(id) > 0) << "object " << id;
  }
}

TEST(RankingTest, UniformTiesRankByObjectId) {
  ObjectStore store;
  store.mutable_vocab()->Intern("x");
  for (int i = 0; i < 10; ++i) store.Add(Point{0.5, 0.5}, KeywordSet({0}));
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 3;
  for (ObjectId id = 0; id < 10; ++id) {
    EXPECT_EQ(ComputeRankScan(store, q, id), id + 1);
  }
}

}  // namespace
}  // namespace yask
