#include "src/common/geo.h"

#include <gtest/gtest.h>

namespace yask {
namespace {

TEST(HaversineTest, ZeroDistance) {
  const Point p{114.17, 22.30};
  EXPECT_DOUBLE_EQ(HaversineKm(p, p), 0.0);
}

TEST(HaversineTest, KnownCityPairs) {
  // Hong Kong (114.17E, 22.30N) to Macau (113.54E, 22.19N): ~65 km.
  EXPECT_NEAR(HaversineKm({114.17, 22.30}, {113.54, 22.19}), 65.0, 3.0);
  // London (-0.13, 51.51) to Paris (2.35, 48.86): ~344 km.
  EXPECT_NEAR(HaversineKm({-0.13, 51.51}, {2.35, 48.86}), 344.0, 5.0);
  // Quarter of the equator: (0,0) to (90,0) = 10007.5 km.
  EXPECT_NEAR(HaversineKm({0, 0}, {90, 0}), 10007.5, 10.0);
}

TEST(HaversineTest, Symmetry) {
  const Point a{114.17, 22.30};
  const Point b{113.54, 22.19};
  EXPECT_DOUBLE_EQ(HaversineKm(a, b), HaversineKm(b, a));
}

TEST(HaversineTest, AntipodalIsHalfCircumference) {
  EXPECT_NEAR(HaversineKm({0, 0}, {180, 0}), 3.14159265 * kEarthRadiusKm,
              1.0);
}

}  // namespace
}  // namespace yask
