#include "src/index/ir_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

TEST(IdfTableTest, HandComputed) {
  ObjectStore store;
  Vocabulary* v = store.mutable_vocab();
  const TermId common = v->Intern("common");
  const TermId rare = v->Intern("rare");
  // 4 docs: "common" in all, "rare" in one.
  store.Add(Point{0, 0}, KeywordSet({common}));
  store.Add(Point{0, 1}, KeywordSet({common}));
  store.Add(Point{1, 0}, KeywordSet({common}));
  store.Add(Point{1, 1}, KeywordSet({common, rare}));
  IdfTable idf(store);
  EXPECT_DOUBLE_EQ(idf.Idf(common), std::log(1.0 + 4.0 / 4.0));
  EXPECT_DOUBLE_EQ(idf.Idf(rare), std::log(1.0 + 4.0 / 1.0));
  EXPECT_GT(idf.Idf(rare), idf.Idf(common));
  EXPECT_DOUBLE_EQ(idf.Idf(999), 0.0);  // Unseen term.
  EXPECT_EQ(idf.corpus_size(), 4u);
}

TEST(IdfTableTest, NormAndDotProduct) {
  ObjectStore store;
  Vocabulary* v = store.mutable_vocab();
  const TermId a = v->Intern("a");
  const TermId b = v->Intern("b");
  store.Add(Point{0, 0}, KeywordSet({a}));
  store.Add(Point{0, 1}, KeywordSet({a, b}));
  IdfTable idf(store);
  const double ia = idf.Idf(a);
  const double ib = idf.Idf(b);
  EXPECT_DOUBLE_EQ(idf.Norm(KeywordSet({a, b})),
                   std::sqrt(ia * ia + ib * ib));
  EXPECT_DOUBLE_EQ(idf.DotProduct(KeywordSet({a, b}), KeywordSet({b})),
                   ib * ib);
  EXPECT_DOUBLE_EQ(idf.Norm(KeywordSet()), 0.0);
}

TEST(CosineSimilarityTest, RangeAndIdentity) {
  ObjectStore store;
  Vocabulary* v = store.mutable_vocab();
  const TermId a = v->Intern("a");
  const TermId b = v->Intern("b");
  const TermId c = v->Intern("c");
  store.Add(Point{0, 0}, KeywordSet({a, b}));
  store.Add(Point{0, 1}, KeywordSet({b, c}));
  store.Add(Point{1, 1}, KeywordSet({c}));
  IdfTable idf(store);
  const KeywordSet x({a, b});
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, x, idf), 1.0);  // Self-similarity.
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, KeywordSet({c}), idf), 0.0);
  const double sim = CosineSimilarity(x, KeywordSet({b, c}), idf);
  EXPECT_GT(sim, 0.0);
  EXPECT_LT(sim, 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, KeywordSet(), idf), 0.0);
}

TEST(CosineSimilarityTest, RareTermsDominate) {
  // Sharing a rare term should beat sharing a common term.
  ObjectStore store;
  Vocabulary* v = store.mutable_vocab();
  const TermId common = v->Intern("common");
  const TermId rare = v->Intern("rare");
  const TermId other = v->Intern("other");
  for (int i = 0; i < 50; ++i) store.Add(Point{0, 0}, KeywordSet({common}));
  store.Add(Point{0, 0}, KeywordSet({rare}));
  store.Add(Point{0, 0}, KeywordSet({other}));
  IdfTable idf(store);
  const KeywordSet q({common, rare});
  EXPECT_GT(CosineSimilarity(KeywordSet({rare, other}), q, idf),
            CosineSimilarity(KeywordSet({common, other}), q, idf));
}

ObjectStore MakeStore(size_t n, uint64_t seed = 42) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.vocabulary_size = 80;
  return GenerateDataset(spec);
}

TEST(IrTreeTest, BulkLoadValidates) {
  const ObjectStore store = MakeStore(2000);
  IdfTable idf(store);
  IrTree tree(&store, {}, IrSummary::WithIdf(&idf));
  tree.BulkLoad();
  Status s = tree.Validate();
  ASSERT_TRUE(s.ok()) << s.ToString();
}

class IrBoundProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IrBoundProperty, CosineScoreBoundIsAdmissible) {
  const ObjectStore store = MakeStore(1500, GetParam());
  IdfTable idf(store);
  IrTree tree(&store, {}, IrSummary::WithIdf(&idf));
  tree.BulkLoad();
  Rng rng(GetParam() * 3 + 1);
  for (int trial = 0; trial < 15; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(4), &rng);
    q.k = 5;
    q.w = Weights::FromWs(rng.NextDouble(0.1, 0.9));
    CosineScorer scorer(store, idf, q);

    std::vector<IrTree::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const auto& node = tree.node(stack.back());
      stack.pop_back();
      const double ub =
          UpperBoundCosineScore(scorer, node.rect, node.summary);
      if (node.is_leaf) {
        for (const auto& e : node.entries) {
          EXPECT_LE(scorer.Score(e.id), ub + 1e-12)
              << "IR-tree bound violated at object " << e.id;
        }
      } else {
        for (const auto& e : node.entries) stack.push_back(e.id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrBoundProperty, ::testing::Values(4, 19, 55));

class IrEngineAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IrEngineAgreement, MatchesCosineScan) {
  const ObjectStore store = MakeStore(1200, GetParam());
  IdfTable idf(store);
  IrTree tree(&store, {}, IrSummary::WithIdf(&idf));
  tree.BulkLoad();
  IrTopKEngine engine(store, idf, tree);
  Rng rng(GetParam() ^ 0xC0C0);
  for (int trial = 0; trial < 10; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(3), &rng);
    q.k = 1 + static_cast<uint32_t>(rng.NextBounded(20));
    q.w = Weights::FromWs(rng.NextDouble(0.1, 0.9));
    const TopKResult expected = CosineTopKScan(store, idf, q);
    const TopKResult got = engine.Query(q);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "rank " << i;
      EXPECT_DOUBLE_EQ(got[i].score, expected[i].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrEngineAgreement,
                         ::testing::Values(6, 27, 91));

TEST(IrTreeTest, EmptyDocObjectsHandled) {
  ObjectStore store;
  const TermId kw = store.mutable_vocab()->Intern("w");
  store.Add(Point{0.5, 0.5}, KeywordSet({kw}), "texty");
  store.Add(Point{0.4, 0.4}, KeywordSet(), "mute");
  IdfTable idf(store);
  IrTree tree(&store, {}, IrSummary::WithIdf(&idf));
  tree.BulkLoad();
  ASSERT_TRUE(tree.Validate().ok());
  IrTopKEngine engine(store, idf, tree);
  Query q;
  q.loc = Point{0.4, 0.4};
  q.doc = KeywordSet({kw});
  q.k = 2;
  const TopKResult r = engine.Query(q);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r, CosineTopKScan(store, idf, q));
}

}  // namespace
}  // namespace yask
