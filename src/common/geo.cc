#include "src/common/geo.h"

#include <algorithm>
#include <cmath>

namespace yask {

namespace {
constexpr double kDegToRad = 3.14159265358979323846 / 180.0;
}  // namespace

double HaversineKm(const Point& lonlat_a, const Point& lonlat_b) {
  const double lat1 = lonlat_a.y * kDegToRad;
  const double lat2 = lonlat_b.y * kDegToRad;
  const double dlat = (lonlat_b.y - lonlat_a.y) * kDegToRad;
  const double dlon = (lonlat_b.x - lonlat_a.x) * kDegToRad;
  const double s1 = std::sin(dlat / 2);
  const double s2 = std::sin(dlon / 2);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

}  // namespace yask
