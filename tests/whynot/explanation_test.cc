#include "src/whynot/explanation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/query/scoring.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

/// Hand-built scenario: a cluster of perfect matches near the query, one
/// far-away perfect keyword match, one near object with alien keywords.
class ExplanationScenario : public ::testing::Test {
 protected:
  void SetUp() override {
    Vocabulary* v = store_.mutable_vocab();
    coffee_ = v->Intern("coffee");
    wifi_ = v->Intern("wifi");
    pizza_ = v->Intern("pizza");
    // 5 perfect matches at the query point.
    for (int i = 0; i < 5; ++i) {
      store_.Add(Point{0.5, 0.5}, KeywordSet({coffee_, wifi_}),
                 "good" + std::to_string(i));
    }
    far_match_ = store_.Add(Point{0.95, 0.95},
                            KeywordSet({coffee_, wifi_}), "FarCafe");
    near_mismatch_ =
        store_.Add(Point{0.5, 0.5}, KeywordSet({pizza_}), "PizzaNextDoor");
    far_mismatch_ =
        store_.Add(Point{0.05, 0.95}, KeywordSet({pizza_}), "RemotePizza");
    // Spread anchor points so the bounds diagonal is stable.
    store_.Add(Point{0.0, 0.0}, KeywordSet({coffee_}), "anchor0");
    store_.Add(Point{1.0, 1.0}, KeywordSet({coffee_}), "anchor1");

    tree_ = std::make_unique<RTree>(&store_);
    tree_->BulkLoad();
    oracle_ = std::make_unique<LocalWhyNotOracle>(store_, tree_.get());

    query_.loc = Point{0.5, 0.5};
    query_.doc = KeywordSet({coffee_, wifi_});
    query_.k = 3;
  }

  ObjectStore store_;
  std::unique_ptr<RTree> tree_;
  std::unique_ptr<LocalWhyNotOracle> oracle_;
  Query query_;
  TermId coffee_, wifi_, pizza_;
  ObjectId far_match_, near_mismatch_, far_mismatch_;
};

TEST_F(ExplanationScenario, FarKeywordMatchBlamesDistance) {
  auto result = ExplainMissing(*oracle_, query_, {far_match_});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  const MissingObjectExplanation& e = result->at(0);
  EXPECT_GT(e.rank, query_.k);
  EXPECT_DOUBLE_EQ(e.tsim, 1.0);
  EXPECT_TRUE(e.reason == MissingReason::kTooFar ||
              e.reason == MissingReason::kNarrowlyOutranked)
      << MissingReasonToString(e.reason);
  if (e.reason == MissingReason::kTooFar) {
    EXPECT_EQ(e.recommendation,
              RefinementRecommendation::kPreferenceAdjustment);
  }
  EXPECT_FALSE(e.text.empty());
  EXPECT_NE(e.text.find("FarCafe"), std::string::npos);
}

TEST_F(ExplanationScenario, NearMismatchBlamesKeywords) {
  auto result = ExplainMissing(*oracle_, query_, {near_mismatch_});
  ASSERT_TRUE(result.ok());
  const MissingObjectExplanation& e = result->at(0);
  EXPECT_DOUBLE_EQ(e.tsim, 0.0);
  EXPECT_EQ(e.reason, MissingReason::kKeywordMismatch)
      << MissingReasonToString(e.reason);
  EXPECT_EQ(e.recommendation, RefinementRecommendation::kKeywordAdaption);
}

TEST_F(ExplanationScenario, FarMismatchBlamesBoth) {
  auto result = ExplainMissing(*oracle_, query_, {far_mismatch_});
  ASSERT_TRUE(result.ok());
  const MissingObjectExplanation& e = result->at(0);
  EXPECT_EQ(e.reason, MissingReason::kBoth)
      << MissingReasonToString(e.reason);
}

TEST_F(ExplanationScenario, InResultObjectReported) {
  const TopKResult top = TopKScan(store_, query_);
  auto result = ExplainMissing(*oracle_, query_, {top[0].id});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->at(0).reason, MissingReason::kInResult);
  EXPECT_EQ(result->at(0).recommendation, RefinementRecommendation::kNone);
  EXPECT_EQ(result->at(0).rank, 1u);
}

TEST_F(ExplanationScenario, RankMatchesIndependentComputation) {
  auto result = ExplainMissing(*oracle_, query_,
                               {far_match_, near_mismatch_});
  ASSERT_TRUE(result.ok());
  for (const MissingObjectExplanation& e : *result) {
    size_t brute = 1;
    Scorer scorer(store_, query_);
    const double s = scorer.Score(e.id);
    for (const SpatialObject& o : store_.objects()) {
      if (o.id == e.id) continue;
      const double so = scorer.Score(o);
      if (so > s || (so == s && o.id < e.id)) ++brute;
    }
    EXPECT_EQ(e.rank, brute);
  }
}

TEST_F(ExplanationScenario, ErrorsOnBadInput) {
  EXPECT_FALSE(ExplainMissing(*oracle_, query_, {}).ok());
  EXPECT_FALSE(ExplainMissing(*oracle_, query_, {123456}).ok());
  Query bad = query_;
  bad.doc = KeywordSet();
  EXPECT_FALSE(ExplainMissing(*oracle_, bad, {far_match_}).ok());
}

TEST(ExplanationGenerated, WorksOnSyntheticDataset) {
  DatasetSpec spec;
  spec.num_objects = 1000;
  const ObjectStore store = GenerateDataset(spec);
  RTree tree(&store);
  tree.BulkLoad();
  const LocalWhyNotOracle oracle(store, &tree);
  Rng rng(5);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 3, &rng);
  q.k = 5;
  // Explain 5 random objects; every explanation is internally consistent.
  std::vector<ObjectId> missing;
  for (int i = 0; i < 5; ++i) {
    missing.push_back(static_cast<ObjectId>(rng.NextBounded(store.size())));
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  auto result = ExplainMissing(oracle, q, missing);
  ASSERT_TRUE(result.ok());
  for (const MissingObjectExplanation& e : *result) {
    EXPECT_EQ(e.reason == MissingReason::kInResult, e.rank <= q.k);
    EXPECT_FALSE(e.text.empty());
    EXPECT_GE(e.score, 0.0);
    EXPECT_LE(e.score, 1.0);
  }
}

}  // namespace
}  // namespace yask
