#include "src/common/geometry.h"

#include <cassert>
#include <cstdio>

namespace yask {

double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

Rect Rect::FromBounds(double min_x, double min_y, double max_x, double max_y) {
  assert(min_x <= max_x && min_y <= max_y);
  return Rect{min_x, min_y, max_x, max_y};
}

void Rect::Extend(const Point& p) {
  min_x = std::min(min_x, p.x);
  min_y = std::min(min_y, p.y);
  max_x = std::max(max_x, p.x);
  max_y = std::max(max_y, p.y);
}

void Rect::Extend(const Rect& other) {
  if (other.empty()) return;
  min_x = std::min(min_x, other.min_x);
  min_y = std::min(min_y, other.min_y);
  max_x = std::max(max_x, other.max_x);
  max_y = std::max(max_y, other.max_y);
}

Rect Rect::Union(const Rect& a, const Rect& b) {
  Rect out = a;
  out.Extend(b);
  return out;
}

double Rect::MinDistance(const Point& p) const {
  assert(!empty());
  const double dx = std::max({min_x - p.x, 0.0, p.x - max_x});
  const double dy = std::max({min_y - p.y, 0.0, p.y - max_y});
  return std::sqrt(dx * dx + dy * dy);
}

std::string Rect::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%.6g,%.6g]x[%.6g,%.6g]", min_x, max_x,
                min_y, max_y);
  return buf;
}

}  // namespace yask
