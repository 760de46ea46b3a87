#include "src/common/geometry.h"

#include <gtest/gtest.h>

#include "src/common/random.h"

namespace yask {
namespace {

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

/// True if `inner` is empty or lies inside `outer`, boundary included.
bool Covers(const Rect& outer, const Rect& inner) {
  return inner.empty() ||
         (inner.min_x >= outer.min_x && inner.max_x <= outer.max_x &&
          inner.min_y >= outer.min_y && inner.max_y <= outer.max_y);
}

TEST(RectTest, EmptyBasics) {
  Rect r = Rect::Empty();
  EXPECT_TRUE(r.empty());
}

TEST(RectTest, FromPointIsDegenerate) {
  Rect r = Rect::FromPoint({2, 3});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r, Rect::FromBounds(2, 3, 2, 3));
}

TEST(RectTest, ExtendPoint) {
  Rect r = Rect::Empty();
  r.Extend(Point{1, 2});
  r.Extend(Point{-1, 5});
  EXPECT_EQ(r, Rect::FromBounds(-1, 2, 1, 5));
}

TEST(RectTest, ExtendEmptyRectIsNoop) {
  Rect r = Rect::FromBounds(0, 0, 1, 1);
  r.Extend(Rect::Empty());
  EXPECT_EQ(r, Rect::FromBounds(0, 0, 1, 1));
}

TEST(RectTest, Union) {
  Rect a = Rect::FromBounds(0, 0, 2, 2);
  Rect b = Rect::FromBounds(1, 1, 3, 3);
  EXPECT_EQ(Rect::Union(a, b), Rect::FromBounds(0, 0, 3, 3));
  EXPECT_EQ(Rect::Union(a, Rect::Empty()), a);
}

TEST(RectTest, MinDistanceHandComputed) {
  Rect r = Rect::FromBounds(1, 1, 3, 3);
  EXPECT_DOUBLE_EQ(r.MinDistance(Point{2, 2}), 0.0);     // Inside.
  EXPECT_DOUBLE_EQ(r.MinDistance(Point{0, 2}), 1.0);     // Left of.
  EXPECT_DOUBLE_EQ(r.MinDistance(Point{0, 0}), std::sqrt(2.0));
}

TEST(RectTest, CenterAndToString) {
  Rect r = Rect::FromBounds(0, 2, 4, 6);
  EXPECT_EQ(r.Center(), (Point{2, 4}));
  EXPECT_FALSE(r.ToString().empty());
}

// Property sweep: MINDIST <= distance to any contained point.
class RectDistanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RectDistanceProperty, MinDistanceBoundsContainedPoints) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    const double x1 = rng.NextDouble(-10, 10);
    const double y1 = rng.NextDouble(-10, 10);
    Rect r = Rect::FromBounds(x1, y1, x1 + rng.NextDouble(0, 5),
                              y1 + rng.NextDouble(0, 5));
    const Point q{rng.NextDouble(-20, 20), rng.NextDouble(-20, 20)};
    // A random point inside the rect.
    const Point inside{rng.NextDouble(r.min_x, r.max_x),
                       rng.NextDouble(r.min_y, r.max_y)};
    ASSERT_TRUE(Covers(r, Rect::FromPoint(inside)));
    EXPECT_LE(r.MinDistance(q), Distance(q, inside) + 1e-12);
  }
}

TEST_P(RectDistanceProperty, UnionCoversBoth) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int iter = 0; iter < 200; ++iter) {
    auto random_rect = [&] {
      const double x1 = rng.NextDouble(-10, 10);
      const double y1 = rng.NextDouble(-10, 10);
      return Rect::FromBounds(x1, y1, x1 + rng.NextDouble(0, 5),
                              y1 + rng.NextDouble(0, 5));
    };
    const Rect a = random_rect();
    const Rect b = random_rect();
    const Rect u = Rect::Union(a, b);
    EXPECT_TRUE(Covers(u, a));
    EXPECT_TRUE(Covers(u, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectDistanceProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace yask
