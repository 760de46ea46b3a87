// Degenerate-input robustness: duplicate locations, identical documents,
// single-object stores, zero-similarity queries. Real POI crawls contain all
// of these (chain stores share coordinates and boilerplate descriptions), so
// the engines must stay correct — not merely not crash — on them.

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "src/corpus/corpus.h"
#include "src/query/topk_engine.h"
#include "src/whynot/why_not_engine.h"
#include "src/whynot/whynot_oracle.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

/// 100 objects all at the same point with the same document: every score
/// ties, so everything is decided by the id tie-break.
class FullyDegenerateStore : public ::testing::Test {
 protected:
  void SetUp() override {
    ObjectStore store;
    kw_ = store.mutable_vocab()->Intern("dim");
    for (int i = 0; i < 100; ++i) {
      store.Add(Point{0.5, 0.5}, KeywordSet({kw_}), "clone");
    }
    corpus_.emplace(CorpusBuilder().Build(std::move(store)));
  }
  Query MakeQuery(uint32_t k) {
    Query q;
    q.loc = Point{0.25, 0.75};
    q.doc = KeywordSet({kw_});
    q.k = k;
    return q;
  }
  TermId kw_;
  std::optional<Corpus> corpus_;
};

TEST_F(FullyDegenerateStore, IndexesValidate) {
  EXPECT_TRUE(corpus_->rtree().Validate().ok())
      << corpus_->rtree().Validate().ToString();
}

TEST_F(FullyDegenerateStore, TopKReturnsLowestIds) {
  const TopKResult r = LocalWhyNotOracle(*corpus_).TopK(MakeQuery(7));
  ASSERT_EQ(r.size(), 7u);
  for (uint32_t i = 0; i < 7; ++i) EXPECT_EQ(r[i].id, i);
}

TEST_F(FullyDegenerateStore, RanksAreIdPlusOne) {
  const Query q = MakeQuery(5);
  for (ObjectId id : {0u, 42u, 99u}) {
    EXPECT_EQ(reference::Rank(corpus_->store(), q, id), id + 1);
  }
}

TEST_F(FullyDegenerateStore, WhyNotStillRevives) {
  WhyNotEngine engine(*corpus_);
  const Query q = MakeQuery(5);
  // Object 50 ranks 51 purely by tie-break; only k-enlargement can help
  // (neither w nor doc changes can reorder perfect ties).
  auto answer = engine.Answer(q, {50});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_TRUE(answer->preference.has_value());
  EXPECT_EQ(answer->preference->original_rank, 51u);
  EXPECT_GE(answer->preference->refined.k, 51u);
  std::set<ObjectId> ids;
  for (const ScoredObject& so : answer->refined_result) ids.insert(so.id);
  EXPECT_TRUE(ids.count(50));
}

TEST(DegenerateTest, SingleObjectStore) {
  ObjectStore store;
  const TermId kw = store.mutable_vocab()->Intern("solo");
  store.Add(Point{0.1, 0.9}, KeywordSet({kw}), "only");
  const Corpus corpus = CorpusBuilder().Build(std::move(store));
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({kw});
  q.k = 3;
  const TopKResult r = LocalWhyNotOracle(corpus).TopK(q);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].id, 0u);
  // A why-not question about the only object: it is trivially in the result.
  WhyNotEngine why(corpus);
  auto answer = why.Answer(q, {0});
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->recommended, RefinementModel::kNone);
}

TEST(DegenerateTest, ZeroSimilarityQueryStillRanksSpatially) {
  ObjectStore store;
  const TermId a = store.mutable_vocab()->Intern("a");
  const TermId b = store.mutable_vocab()->Intern("b");
  store.Add(Point{0.9, 0.9}, KeywordSet({a}), "far");
  store.Add(Point{0.2, 0.2}, KeywordSet({a}), "near");
  store.Add(Point{0.0, 1.0}, KeywordSet({a}), "corner");
  const Corpus corpus = CorpusBuilder().Build(ObjectStore(store));
  Query q;
  q.loc = Point{0.2, 0.2};
  q.doc = KeywordSet({b});  // Matches nothing: pure spatial ranking.
  q.k = 2;
  const TopKResult r = LocalWhyNotOracle(corpus).TopK(q);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].id, 1u);  // "near".
  EXPECT_EQ(r, TopKScan(store, q));
}

TEST(DegenerateTest, CollinearScorePlanePoints) {
  // All objects on the same score line (identical SDist and TSim): the
  // preference module must fall back to pure-k (no crossing can help).
  ObjectStore store;
  const TermId kw = store.mutable_vocab()->Intern("x");
  for (int i = 0; i < 20; ++i) {
    store.Add(Point{0.3, 0.7}, KeywordSet({kw}), "same");
  }
  Query q;
  q.loc = Point{0.3, 0.3};
  q.doc = KeywordSet({kw});
  q.k = 3;
  auto result =
      AdjustPreference(LocalWhyNotOracle(store, /*rtree=*/nullptr), q, {10});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->already_in_result);
  EXPECT_EQ(result->refined.w, q.w);        // No weight can reorder ties.
  EXPECT_EQ(result->refined.k, 11u);        // Rank 11 by id tie-break.
  EXPECT_EQ(result->stats.crossings_found, 0u);
}

TEST(DegenerateTest, MissingObjectWithEmptyDocument) {
  // An object with no keywords at all: TSim == 0 under every candidate doc,
  // so keyword adaption must fall back to pure-k enlargement.
  ObjectStore store;
  const TermId kw = store.mutable_vocab()->Intern("match");
  for (int i = 0; i < 30; ++i) {
    store.Add(Point{0.5 + 0.01 * i, 0.5}, KeywordSet({kw}), "normal");
  }
  const ObjectId mute = store.Add(Point{0.9, 0.9}, KeywordSet(), "mute");
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({kw});
  q.k = 3;
  auto result =
      AdaptKeywords(LocalWhyNotOracle(store, /*rtree=*/nullptr), q, {mute});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->already_in_result);
  // M.doc is empty: no insertable keywords; only deletions/pure-k remain.
  EXPECT_TRUE(result->refined.doc.IsSubsetOf(q.doc));
  EXPECT_GE(result->refined.k, result->refined_rank);
  // The revival guarantee still holds.
  const TopKResult r = TopKScan(store, result->refined);
  bool revived = false;
  for (const ScoredObject& so : r) {
    if (so.id == mute) revived = true;
  }
  EXPECT_TRUE(revived);
}

TEST(DegenerateTest, AllMissingObjectsAlreadyTop) {
  ObjectStore store;
  const TermId kw = store.mutable_vocab()->Intern("z");
  for (int i = 0; i < 10; ++i) {
    store.Add(Point{0.1 * i, 0.1 * i}, KeywordSet({kw}), "o");
  }
  const Corpus corpus = CorpusBuilder().Build(std::move(store));
  WhyNotEngine engine(corpus);
  Query q;
  q.loc = Point{0, 0};
  q.doc = KeywordSet({kw});
  q.k = 5;
  const TopKResult top = engine.TopK(q);
  auto answer =
      engine.Answer(q, {top[0].id, top[1].id, top[2].id});
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->recommended, RefinementModel::kNone);
  for (const auto& e : answer->explanations) {
    EXPECT_EQ(e.reason, MissingReason::kInResult);
  }
}

}  // namespace
}  // namespace yask
