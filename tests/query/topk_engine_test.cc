#include "src/query/topk_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

/// The SetR-tree engine must return exactly what the reference scan
/// returns, for a sweep of dataset shapes, ks and weights (experiment E2's
/// correctness leg; the baselines' leg is tests/baselines/).
class TopKEngineAgreement
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(TopKEngineAgreement, AllEnginesMatchScan) {
  const auto [n, seed] = GetParam();
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.vocabulary_size = 80;
  const ObjectStore store = GenerateDataset(spec);

  SetRTree setr(&store);
  setr.BulkLoad();
  SetRTopKEngine engine(store, setr);

  Rng rng(seed ^ 0x5EED);
  for (uint32_t k : {1u, 5u, 10u, 50u}) {
    for (int trial = 0; trial < 5; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(4), &rng);
      q.k = k;
      q.w = Weights::FromWs(rng.NextDouble(0.1, 0.9));

      const TopKResult expected = TopKScan(store, q);
      const TopKResult got_setr = engine.Query(q);
      ASSERT_EQ(got_setr.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got_setr[i].id, expected[i].id)
            << "SetR engine rank " << i << " (k=" << k << ")";
        EXPECT_DOUBLE_EQ(got_setr[i].score, expected[i].score);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopKEngineAgreement,
    ::testing::Combine(::testing::Values(50, 500, 3000),
                       ::testing::Values(1, 42, 777)));

TEST(TopKEngineTest, KLargerThanDatasetReturnsEverything) {
  DatasetSpec spec;
  spec.num_objects = 20;
  const ObjectStore store = GenerateDataset(spec);
  SetRTree setr(&store);
  setr.BulkLoad();
  SetRTopKEngine engine(store, setr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 100;
  const TopKResult r = engine.Query(q);
  EXPECT_EQ(r.size(), 20u);
  EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
}

TEST(TopKEngineTest, ResultsSortedAndDeterministic) {
  DatasetSpec spec;
  spec.num_objects = 1000;
  const ObjectStore store = GenerateDataset(spec);
  SetRTree setr(&store);
  setr.BulkLoad();
  SetRTopKEngine engine(store, setr);
  Query q;
  q.loc = Point{0.4, 0.6};
  q.doc = KeywordSet({0, 1, 2});
  q.k = 25;
  const TopKResult a = engine.Query(q);
  const TopKResult b = engine.Query(q);
  EXPECT_EQ(a.size(), 25u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(TopKEngineTest, TieBreakingByIdUnderUniformScores) {
  // All objects identical => scores all equal => ids 0..k-1 win.
  ObjectStore store;
  store.mutable_vocab()->Intern("x");
  for (int i = 0; i < 40; ++i) store.Add(Point{0.5, 0.5}, KeywordSet({0}));
  SetRTree setr(&store);
  setr.BulkLoad();
  SetRTopKEngine engine(store, setr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 5;
  const TopKResult r = engine.Query(q);
  ASSERT_EQ(r.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(r[i].id, i);
}

TEST(TopKEngineTest, PrunesNodesComparedToScan) {
  DatasetSpec spec;
  spec.num_objects = 20000;
  spec.vocabulary_size = 500;
  const ObjectStore store = GenerateDataset(spec);
  SetRTree setr(&store);
  setr.BulkLoad();
  SetRTopKEngine engine(store, setr);
  // A selective query (rare keywords): most subtrees have a zero textual
  // upper bound and die on the spatial bound alone.
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({400, 450});
  q.k = 10;
  TopKStats stats;
  engine.Query(q, &stats);
  EXPECT_LT(stats.objects_scored, store.size() / 4);
}

TEST(TopKEngineTest, EmptyStore) {
  ObjectStore store;
  SetRTree setr(&store);
  setr.BulkLoad();
  SetRTopKEngine engine(store, setr);
  Query q;
  q.doc = KeywordSet({0});
  q.k = 3;
  EXPECT_TRUE(engine.Query(q).empty());
}

}  // namespace
}  // namespace yask
