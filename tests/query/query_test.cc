#include "src/query/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace yask {
namespace {

TEST(WeightsTest, FromWs) {
  const Weights w = Weights::FromWs(0.3);
  EXPECT_DOUBLE_EQ(w.ws, 0.3);
  EXPECT_DOUBLE_EQ(w.wt, 0.7);
}

TEST(WeightsTest, DistanceIsL2) {
  const Weights a = Weights::FromWs(0.5);
  const Weights b = Weights::FromWs(0.8);
  // (0.3, -0.3) -> sqrt(0.18) = 0.3 * sqrt(2).
  EXPECT_NEAR(a.DistanceTo(b), 0.3 * std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0.0);
}

TEST(WeightsTest, PenaltyNormalizerMatchesEqnThree) {
  const Weights w = Weights::FromWs(0.5);
  EXPECT_DOUBLE_EQ(w.PenaltyNormalizer(), std::sqrt(1.0 + 0.25 + 0.25));
}

TEST(QueryValidateTest, AcceptsWellFormed) {
  Query q;
  q.loc = Point{1, 2};
  q.doc = KeywordSet({0});
  q.k = 3;
  q.w = Weights::FromWs(0.5);
  EXPECT_TRUE(q.Validate().ok());
}

TEST(QueryValidateTest, RejectsZeroK) {
  Query q;
  q.doc = KeywordSet({0});
  q.k = 0;
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryValidateTest, RejectsBoundaryWeights) {
  Query q;
  q.doc = KeywordSet({0});
  q.k = 1;
  q.w = Weights{1.0, 0.0};
  EXPECT_FALSE(q.Validate().ok());
  q.w = Weights{0.0, 1.0};
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryValidateTest, RejectsNonUnitSum) {
  Query q;
  q.doc = KeywordSet({0});
  q.k = 1;
  q.w = Weights{0.5, 0.6};
  EXPECT_FALSE(q.Validate().ok());
}

TEST(QueryValidateTest, RejectsNonFiniteLocation) {
  // An overflowing JSON number such as 1e999 parses to +inf; no coordinate
  // outside the finite doubles may reach scoring or a cache key.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Point loc : {Point{inf, 22.28}, Point{-inf, 22.28},
                          Point{114.1, inf}, Point{nan, 22.28},
                          Point{114.1, nan}}) {
    Query q;
    q.loc = loc;
    q.doc = KeywordSet({0});
    q.k = 3;
    q.w = Weights::FromWs(0.5);
    const Status s = q.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << loc.x << "," << loc.y;
  }
}

TEST(QueryValidateTest, RejectsEmptyKeywords) {
  Query q;
  q.k = 1;
  EXPECT_FALSE(q.Validate().ok());
}

TEST(ScoredObjectTest, OrderingIsScoreDescIdAsc) {
  const ScoredObject a{1, 0.9};
  const ScoredObject b{2, 0.8};
  const ScoredObject c{0, 0.8};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(c < b);  // Equal score, smaller id first.
  EXPECT_FALSE(b < c);
}

TEST(QueryToStringTest, MentionsKeywords) {
  Vocabulary v;
  Query q;
  q.doc = KeywordSet({v.Intern("coffee")});
  q.k = 3;
  const std::string s = q.ToString(v);
  EXPECT_NE(s.find("coffee"), std::string::npos);
  EXPECT_NE(s.find("k=3"), std::string::npos);
}

}  // namespace
}  // namespace yask
