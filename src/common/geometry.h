// Copyright (c) 2026 The YASK reproduction authors.
// 2-D geometry primitives for the spatial side of spatial keyword queries.
//
// All spatial objects live in the Euclidean plane (the paper computes
// SDist(o, q) as Euclidean distance, Eqn. (1)). Rectangles are axis-aligned
// and closed; they serve as R-tree minimum bounding rectangles (MBRs).

#ifndef YASK_COMMON_GEOMETRY_H_
#define YASK_COMMON_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace yask {

/// A point in the 2-D Euclidean plane.
struct Point {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const Point& other) const = default;
};

/// Euclidean distance between two points.
double Distance(const Point& a, const Point& b);

/// Squared Euclidean distance (avoids the sqrt when only comparing).
double SquaredDistance(const Point& a, const Point& b);

/// An axis-aligned closed rectangle; the R-tree MBR type.
///
/// An empty rectangle (min > max) is the identity of Extend()/Union and
/// intersects nothing; `Rect::Empty()` constructs one.
struct Rect {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  /// The empty rectangle (union identity).
  static Rect Empty() { return Rect{}; }

  /// The degenerate rectangle covering exactly one point.
  static Rect FromPoint(const Point& p) { return Rect{p.x, p.y, p.x, p.y}; }

  /// A rectangle from explicit bounds; asserts min <= max per axis.
  static Rect FromBounds(double min_x, double min_y, double max_x,
                         double max_y);

  bool empty() const { return min_x > max_x || min_y > max_y; }

  /// Grows this rectangle to cover `p`.
  void Extend(const Point& p);
  /// Grows this rectangle to cover `other`.
  void Extend(const Rect& other);

  /// Smallest rectangle covering both inputs.
  static Rect Union(const Rect& a, const Rect& b);

  /// Minimum Euclidean distance from `p` to any point of this rectangle;
  /// 0 when `p` is inside. This is the R-tree MINDIST bound.
  double MinDistance(const Point& p) const;

  Point Center() const { return Point{(min_x + max_x) / 2, (min_y + max_y) / 2}; }

  bool operator==(const Rect& other) const = default;

  std::string ToString() const;
};

}  // namespace yask

#endif  // YASK_COMMON_GEOMETRY_H_
