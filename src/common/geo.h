// Copyright (c) 2026 The YASK reproduction authors.
// Geographic helpers for lon/lat datasets (the demo's Hong Kong hotels are
// WGS84 coordinates). The engines rank by normalised Euclidean distance per
// Eqn. (1) — fine within a city — but user-facing output ("1.3 km away")
// needs great-circle distances.
//
// Convention: Point.x = longitude in degrees, Point.y = latitude in degrees.

#ifndef YASK_COMMON_GEO_H_
#define YASK_COMMON_GEO_H_

#include "src/common/geometry.h"

namespace yask {

/// Mean Earth radius (IUGG).
inline constexpr double kEarthRadiusKm = 6371.0088;

/// Great-circle distance between two lon/lat points, in kilometres
/// (haversine formula; good to ~0.5% everywhere).
double HaversineKm(const Point& lonlat_a, const Point& lonlat_b);

}  // namespace yask

#endif  // YASK_COMMON_GEO_H_
