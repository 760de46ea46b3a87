#include "bench/baselines/inverted_index.h"

#include <gtest/gtest.h>

#include <tuple>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

TEST(InvertedIndexTest, PostingsAreSortedAndComplete) {
  DatasetSpec spec;
  spec.num_objects = 1000;
  spec.vocabulary_size = 30;
  const ObjectStore store = GenerateDataset(spec);
  InvertedIndex index(store);

  for (TermId t = 0; t < store.vocab().size(); ++t) {
    const auto& list = index.Postings(t);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    for (ObjectId id : list) {
      EXPECT_TRUE(store.Get(id).doc.Contains(t));
    }
  }
  // Every (object, term) pair appears.
  size_t total = 0;
  for (const SpatialObject& o : store.objects()) total += o.doc.size();
  size_t posted = 0;
  for (TermId t = 0; t < store.vocab().size(); ++t) {
    posted += index.DocumentFrequency(t);
  }
  EXPECT_EQ(posted, total);
}

TEST(InvertedIndexTest, UnknownTermEmpty) {
  ObjectStore store;
  store.mutable_vocab()->Intern("a");
  store.Add(Point{0, 0}, KeywordSet({0}));
  InvertedIndex index(store);
  EXPECT_TRUE(index.Postings(999).empty());
  EXPECT_EQ(index.DocumentFrequency(999), 0u);
}

TEST(InvertedIndexTest, CandidatesAreUnionOfPostings) {
  ObjectStore store;
  Vocabulary* v = store.mutable_vocab();
  const TermId a = v->Intern("a");
  const TermId b = v->Intern("b");
  const TermId c = v->Intern("c");
  store.Add(Point{0, 0}, KeywordSet({a}));        // 0
  store.Add(Point{0, 0}, KeywordSet({a, b}));     // 1
  store.Add(Point{0, 0}, KeywordSet({b}));        // 2
  store.Add(Point{0, 0}, KeywordSet({c}));        // 3
  InvertedIndex index(store);
  EXPECT_EQ(index.Candidates(KeywordSet({a, b})),
            (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_EQ(index.Candidates(KeywordSet({c})), (std::vector<ObjectId>{3}));
  EXPECT_TRUE(index.Candidates(KeywordSet()).empty());
}

TEST(InvertedIndexTest, MemoryUsagePositive) {
  DatasetSpec spec;
  spec.num_objects = 100;
  const ObjectStore store = GenerateDataset(spec);
  InvertedIndex index(store);
  EXPECT_GT(index.MemoryUsageBytes(), 0u);
}

/// The inverted-index + R-tree hybrid must return exactly the rows of the
/// reference scan, ties and scores included, for a sweep of dataset shapes,
/// ks and weights — the pure-spatial (wt = 0) and pure-text (ws = 0) ends
/// among them.
class InvertedTopKAgreement
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(InvertedTopKAgreement, MatchesScan) {
  const auto [n, seed] = GetParam();
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.vocabulary_size = 80;
  const ObjectStore store = GenerateDataset(spec);
  RTree rtree(&store);
  rtree.BulkLoad();
  const InvertedIndex inverted(store);
  const InvertedTopKEngine baseline(store, inverted, rtree);

  Rng rng(seed ^ 0x5EED);
  for (uint32_t k : {1u, 5u, 10u, 50u}) {
    for (int trial = 0; trial < 7; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(4), &rng);
      q.k = k;
      q.w = trial == 0   ? Weights{1.0, 0.0}
            : trial == 1 ? Weights{0.0, 1.0}
                         : Weights::FromWs(rng.NextDouble(0.1, 0.9));
      const TopKResult expected = TopKScan(store, q);
      EXPECT_EQ(baseline.Query(q), expected)
          << "k=" << k << " ws=" << q.w.ws << " wt=" << q.w.wt;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InvertedTopKAgreement,
    ::testing::Combine(::testing::Values(50, 500, 3000),
                       ::testing::Values(1, 42, 777)));

TEST(InvertedTopKTest, SpatialOnlyWinnersSurface) {
  // An object sharing no query keyword but sitting on the query point must
  // still win when ws is large (phase 2 of the hybrid baseline).
  ObjectStore store;
  Vocabulary* v = store.mutable_vocab();
  const TermId match = v->Intern("match");
  const TermId other = v->Intern("other");
  store.Add(Point{1.0, 1.0}, KeywordSet({match}), "far-match");
  store.Add(Point{0.0, 0.0}, KeywordSet({other}), "near-nomatch");
  RTree rtree(&store);
  rtree.BulkLoad();
  const InvertedIndex inverted(store);
  const InvertedTopKEngine baseline(store, inverted, rtree);

  Query q;
  q.loc = Point{0.0, 0.0};
  q.doc = KeywordSet({match});
  q.k = 1;
  q.w = Weights::FromWs(0.9);
  const TopKResult r = baseline.Query(q);
  ASSERT_EQ(r.size(), 1u);
  // score(near-nomatch) = 0.9 * 1 = 0.9; score(far-match) = 0.1 * 1 = 0.1.
  EXPECT_EQ(r[0].id, 1u);
  EXPECT_EQ(r[0], TopKScan(store, q)[0]);
}

TEST(InvertedTopKTest, TiesBreakById) {
  ObjectStore store;
  store.mutable_vocab()->Intern("x");
  for (int i = 0; i < 40; ++i) store.Add(Point{0.5, 0.5}, KeywordSet({0}));
  RTree rtree(&store);
  rtree.BulkLoad();
  const InvertedIndex inverted(store);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 5;
  const TopKResult r = InvertedTopKEngine(store, inverted, rtree).Query(q);
  ASSERT_EQ(r.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(r[i].id, i);
}

}  // namespace
}  // namespace yask
