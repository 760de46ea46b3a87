#include "bench/baselines/setr_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

ObjectStore MakeStore(size_t n, uint64_t seed = 42) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.vocabulary_size = 60;
  spec.min_keywords = 2;
  spec.max_keywords = 8;
  return GenerateDataset(spec);
}

TEST(SetSummaryTest, AddObjectTracksUnionAndIntersection) {
  SetSummary s;
  s.Clear();
  SpatialObject a;
  a.doc = KeywordSet({1, 2, 3});
  SpatialObject b;
  b.doc = KeywordSet({2, 3, 4});
  s.AddObject(a);
  EXPECT_EQ(s.union_set, a.doc);
  EXPECT_EQ(s.inter_set, a.doc);
  s.AddObject(b);
  EXPECT_EQ(s.union_set, KeywordSet({1, 2, 3, 4}));
  EXPECT_EQ(s.inter_set, KeywordSet({2, 3}));
  EXPECT_EQ(s.count, 2u);
}

TEST(SetSummaryTest, MergeMatchesSequentialAdds) {
  SpatialObject a, b, c;
  a.doc = KeywordSet({1, 2});
  b.doc = KeywordSet({2, 3});
  c.doc = KeywordSet({2, 4});
  SetSummary s1;
  s1.AddObject(a);
  s1.AddObject(b);
  SetSummary s2;
  s2.AddObject(c);
  SetSummary merged = s1;
  merged.Merge(s2);
  SetSummary direct;
  direct.AddObject(a);
  direct.AddObject(b);
  direct.AddObject(c);
  EXPECT_TRUE(merged.Equals(direct));
}

TEST(SetSummaryTest, MergeWithEmptyIsIdentity) {
  SpatialObject a;
  a.doc = KeywordSet({5});
  SetSummary s;
  s.AddObject(a);
  SetSummary copy = s;
  SetSummary empty;
  s.Merge(empty);
  EXPECT_TRUE(s.Equals(copy));
  empty.Merge(s);
  EXPECT_TRUE(empty.Equals(copy));
}

TEST(SetRTreeTest, BulkLoadSummariesValidate) {
  const ObjectStore store = MakeStore(3000);
  SetRTree tree(&store);
  tree.BulkLoad();
  Status s = tree.Validate();
  ASSERT_TRUE(s.ok()) << s.ToString();
}

TEST(SetRTreeTest, RootSummaryCoversWholeCorpus) {
  const ObjectStore store = MakeStore(500, 3);
  SetRTree tree(&store);
  tree.BulkLoad();
  const SetSummary& root = tree.node(tree.root()).summary;
  EXPECT_EQ(root.count, 500u);
  KeywordSet all_union;
  for (const SpatialObject& o : store.objects()) {
    all_union = KeywordSet::Union(all_union, o.doc);
  }
  EXPECT_EQ(root.union_set, all_union);
}

// Bound admissibility: every object under every node respects the TSim and
// score upper bounds derived from the node summary.
class SetRTreeBoundProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetRTreeBoundProperty, TSimAndScoreBoundsAreAdmissible) {
  const ObjectStore store = MakeStore(1500, GetParam());
  SetRTree tree(&store);
  tree.BulkLoad();
  Rng rng(GetParam() ^ 0xBEEF);

  for (int trial = 0; trial < 20; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(4), &rng);
    q.k = 5;
    q.w = Weights::FromWs(rng.NextDouble(0.1, 0.9));
    Scorer scorer(store, q);

    // Walk every node; verify bounds against every object beneath it.
    std::vector<SetRTree::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const auto& node = tree.node(stack.back());
      stack.pop_back();
      const double ub_t = UpperBoundTSim(node.summary, q.doc);
      const double ub_s = UpperBoundScore(scorer, node.rect, node.summary);

      std::vector<ObjectId> under;
      if (node.is_leaf) {
        for (const auto& e : node.entries) under.push_back(e.id);
      } else {
        for (const auto& e : node.entries) stack.push_back(e.id);
        continue;  // Bounds checked transitively via children + leaf check.
      }
      for (ObjectId id : under) {
        const SpatialObject& o = store.Get(id);
        const double tsim = scorer.TSim(o.doc);
        const double score = scorer.Score(o);
        EXPECT_LE(tsim, ub_t + 1e-12) << "node TSim ub violated";
        EXPECT_LE(score, ub_s + 1e-12) << "node score ub violated";
      }
    }
  }
}

// Internal-node bounds must also cover all transitive objects, not only
// direct leaf children.
TEST_P(SetRTreeBoundProperty, InternalNodeBoundsCoverSubtree) {
  const ObjectStore store = MakeStore(2000, GetParam() + 100);
  SetRTree tree(&store);
  tree.BulkLoad();
  Rng rng(GetParam());
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 3, &rng);
  q.k = 5;
  Scorer scorer(store, q);

  // Collect objects under the first internal child of the root.
  const auto& root = tree.node(tree.root());
  if (root.is_leaf) GTEST_SKIP() << "tree too small";
  const auto child_id = root.entries[0].id;
  const auto& child = tree.node(child_id);
  const double ub_s = UpperBoundScore(scorer, child.rect, child.summary);

  std::vector<SetRTree::NodeId> stack{child_id};
  while (!stack.empty()) {
    const auto& n = tree.node(stack.back());
    stack.pop_back();
    if (n.is_leaf) {
      for (const auto& e : n.entries) {
        const double s = scorer.Score(e.id);
        EXPECT_LE(s, ub_s + 1e-12);
      }
    } else {
      for (const auto& e : n.entries) stack.push_back(e.id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetRTreeBoundProperty,
                         ::testing::Values(1, 5, 23));

TEST(SetRTreeBoundsTest, LengthTightenedDominatesSetsOnly) {
  // Both variants must be admissible; the tightened one is never looser
  // (D1 ablation contract).
  const ObjectStore store = MakeStore(800, 31);
  SetRTree tree(&store);
  tree.BulkLoad();
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(4), &rng);
    q.k = 5;
    std::vector<SetRTree::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const auto& node = tree.node(stack.back());
      stack.pop_back();
      const double loose =
          UpperBoundTSim(node.summary, q.doc, SetRBoundVariant::kSetsOnly);
      const double tight = UpperBoundTSim(node.summary, q.doc,
                                          SetRBoundVariant::kLengthTightened);
      EXPECT_LE(tight, loose + 1e-15);
      // Admissibility of the sets-only variant at leaves.
      if (node.is_leaf) {
        for (const auto& e : node.entries) {
          const double tsim = q.doc.Jaccard(store.Get(e.id).doc);
          EXPECT_LE(tsim, loose + 1e-12);
        }
      } else {
        for (const auto& e : node.entries) stack.push_back(e.id);
      }
    }
  }
}

TEST(SetRTreeBoundsTest, EngineResultsIdenticalAcrossBoundVariants) {
  const ObjectStore store = MakeStore(1000, 37);
  SetRTree tree(&store);
  tree.BulkLoad();
  SetRTopKEngine tightened(store, tree);
  SetRTopKEngine loose(store, tree);
  loose.set_bound_variant(SetRBoundVariant::kSetsOnly);
  Rng rng(83);
  for (int trial = 0; trial < 10; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 10;
    const TopKResult a = tightened.Query(q);
    const TopKResult b = loose.Query(q);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(SetRTreeBoundsTest, EmptyQueryDocYieldsZeroTSimBounds) {
  SetSummary s;
  SpatialObject o;
  o.doc = KeywordSet({1, 2});
  s.AddObject(o);
  EXPECT_DOUBLE_EQ(UpperBoundTSim(s, KeywordSet()), 0.0);
}

TEST(SetRTreeBoundsTest, DisjointVocabularyanishes) {
  SetSummary s;
  SpatialObject o;
  o.doc = KeywordSet({1, 2});
  s.AddObject(o);
  EXPECT_DOUBLE_EQ(UpperBoundTSim(s, KeywordSet({7, 9})), 0.0);
}

TEST(SetRTreeBoundsTest, HomogeneousNodeHasTightBounds) {
  // All objects share the same doc: union == intersection, so the TSim
  // bound is the exact value.
  SetSummary s;
  SpatialObject o;
  o.doc = KeywordSet({1, 2, 3});
  s.AddObject(o);
  s.AddObject(o);
  const KeywordSet q({2, 3, 4});
  EXPECT_DOUBLE_EQ(UpperBoundTSim(s, q), o.doc.Jaccard(q));
}

// --- SetRTopKEngine ----------------------------------------------------------

/// The SetR-tree engine must return exactly what the reference scan
/// returns, for a sweep of dataset shapes, ks and weights (experiment E2's
/// correctness leg).
class SetRTopKEngineAgreement
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(SetRTopKEngineAgreement, MatchesScan) {
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
    Shapes, SetRTopKEngineAgreement,
    ::testing::Combine(::testing::Values(50, 500, 3000),
                       ::testing::Values(1, 42, 777)));

TEST(SetRTopKEngineTest, KLargerThanDatasetReturnsEverything) {
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

TEST(SetRTopKEngineTest, ResultsSortedAndDeterministic) {
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

TEST(SetRTopKEngineTest, TieBreakingByIdUnderUniformScores) {
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

TEST(SetRTopKEngineTest, PrunesNodesComparedToScan) {
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

TEST(SetRTopKEngineTest, EmptyStore) {
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
