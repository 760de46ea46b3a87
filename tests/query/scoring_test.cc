#include "src/query/scoring.h"

#include <gtest/gtest.h>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

TEST(NormalizedSpatialDistanceTest, Basics) {
  EXPECT_DOUBLE_EQ(NormalizedSpatialDistance({0, 0}, {3, 4}, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(NormalizedSpatialDistance({0, 0}, {3, 4}, 5.0), 1.0);
  // Clamped to 1 beyond the normaliser.
  EXPECT_DOUBLE_EQ(NormalizedSpatialDistance({0, 0}, {30, 40}, 5.0), 1.0);
  // Degenerate normaliser.
  EXPECT_DOUBLE_EQ(NormalizedSpatialDistance({0, 0}, {3, 4}, 0.0), 0.0);
}

class ScorerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Vocabulary* v = store_.mutable_vocab();
    coffee_ = v->Intern("coffee");
    wifi_ = v->Intern("wifi");
    cozy_ = v->Intern("cozy");
    // Two objects on a 3-4-5 triangle; diag of bounds = 5.
    store_.Add(Point{0, 0}, KeywordSet({coffee_, wifi_}), "near");
    store_.Add(Point{3, 4}, KeywordSet({coffee_, cozy_}), "far");
    query_.loc = Point{0, 0};
    query_.doc = KeywordSet({coffee_, wifi_});
    query_.k = 1;
    query_.w = Weights::FromWs(0.6);
  }
  ObjectStore store_;
  Query query_;
  TermId coffee_, wifi_, cozy_;
};

TEST_F(ScorerTest, EqnOneHandComputed) {
  Scorer scorer(store_, query_);
  // Object 0: SDist = 0, TSim = 1 -> 0.6*1 + 0.4*1 = 1.0.
  EXPECT_DOUBLE_EQ(scorer.Score(ObjectId{0}), 1.0);
  // Object 1: SDist = 5/5 = 1, TSim = |{coffee}|/|{coffee,wifi,cozy}| = 1/3.
  EXPECT_DOUBLE_EQ(scorer.Score(ObjectId{1}), 0.6 * 0.0 + 0.4 * (1.0 / 3.0));
}

TEST_F(ScorerTest, ExplicitNormalizerOverride) {
  Scorer scorer(store_, query_, 10.0);
  EXPECT_DOUBLE_EQ(scorer.SDist(Point{3, 4}), 0.5);
}

TEST_F(ScorerTest, SpatialComponentBoundCoversObjects) {
  Scorer scorer(store_, query_);
  const Rect mbr = Rect::FromBounds(1, 1, 4, 5);
  const double max_c = scorer.MaxSpatialComponent(mbr);
  // A point inside the MBR has its spatial component under the bound.
  const double c = 1.0 - scorer.SDist(Point{2, 3});
  EXPECT_LE(c, max_c + 1e-12);
}

TEST(ScorerPropertyTest, ScoresAlwaysInUnitInterval) {
  DatasetSpec spec;
  spec.num_objects = 500;
  const ObjectStore store = GenerateDataset(spec);
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 3, &rng);
    q.k = 10;
    q.w = Weights::FromWs(rng.NextDouble(0.05, 0.95));
    Scorer scorer(store, q);
    for (const SpatialObject& o : store.objects()) {
      const double s = scorer.Score(o);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      EXPECT_GE(scorer.SDist(o.loc), 0.0);
      EXPECT_LE(scorer.SDist(o.loc), 1.0);
    }
  }
}

}  // namespace
}  // namespace yask
