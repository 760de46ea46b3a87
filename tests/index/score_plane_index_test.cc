#include "src/index/score_plane_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "src/common/random.h"

namespace yask {
namespace {

constexpr double kEps = 1e-9;  // The index's crossing retrieval slack.

std::vector<PlanePoint> RandomPoints(size_t n, Rng* rng) {
  std::vector<PlanePoint> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(PlanePoint{rng->NextDouble(), rng->NextDouble(),
                             static_cast<ObjectId>(i)});
  }
  return pts;
}

/// A Jaccard value of a 3-keyword query against a document of 3..10
/// keywords, computed as KeywordSet::Jaccard does.
double JaccardY(Rng* rng) {
  const size_t len = 3 + rng->NextBounded(8);
  const size_t inter = rng->NextBounded(4);
  return static_cast<double>(inter) / static_cast<double>(3 + len - inter);
}

/// Tie-heavy plane points: Jaccard-valued y and, when `grid` > 0, x drawn
/// from `grid` evenly spaced values so many points share an x.
std::vector<PlanePoint> JaccardPoints(size_t n, size_t grid, Rng* rng) {
  std::vector<PlanePoint> pts;
  for (size_t i = 0; i < n; ++i) {
    const double x = grid > 0 ? static_cast<double>(rng->NextBounded(grid)) /
                                    static_cast<double>(grid)
                              : rng->NextDouble();
    pts.push_back(PlanePoint{x, JaccardY(rng), static_cast<ObjectId>(i)});
  }
  return pts;
}

size_t BruteCountAbove(const std::vector<PlanePoint>& pts, double w,
                       double threshold, ObjectId tie_id) {
  size_t count = 0;
  for (const PlanePoint& p : pts) {
    const double s = p.ScoreAt(w);
    if (s > threshold || (s == threshold && p.id < tie_id)) ++count;
  }
  return count;
}

/// Every point passing the per-point crossing test, sorted by id.
std::vector<ObjectId> BruteCrossings(const std::vector<PlanePoint>& pts,
                                     const PlanePoint& anchor, double wlo,
                                     double whi) {
  const double a_lo = anchor.ScoreAt(wlo);
  const double a_hi = anchor.ScoreAt(whi);
  std::vector<ObjectId> ids;
  for (const PlanePoint& p : pts) {
    const double d_lo = p.ScoreAt(wlo) - a_lo;
    const double d_hi = p.ScoreAt(whi) - a_hi;
    if ((d_lo <= kEps && d_hi >= -kEps) || (d_lo >= -kEps && d_hi <= kEps)) {
      ids.push_back(p.id);
    }
  }
  return ids;
}

/// What the index emits, sorted by id (a point emitted twice shows twice).
std::vector<ObjectId> IndexCrossings(const ScorePlaneIndex& index,
                                     const PlanePoint& anchor, double wlo,
                                     double whi) {
  std::vector<ObjectId> ids;
  index.ForEachCrossing(anchor, wlo, whi,
                        [&](const PlanePoint& p) { ids.push_back(p.id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Checks CountAbove against brute force for `anchor` at w and at w ± 1e-7
/// (weights kept inside (0, 1)).
void ExpectCountsAround(const std::vector<PlanePoint>& pts,
                        const ScorePlaneIndex& index, const PlanePoint& anchor,
                        double w, const std::string& tag) {
  for (double wi : {w, w - 1e-7, w + 1e-7}) {
    if (!(wi > 0.0 && wi < 1.0)) continue;
    const double threshold = anchor.ScoreAt(wi);
    EXPECT_EQ(index.CountAbove(wi, threshold, anchor.id),
              BruteCountAbove(pts, wi, threshold, anchor.id))
        << tag << " w=" << wi;
  }
}

/// The weight where the lines of a and p cross, or -1 if they are parallel.
double CrossingWeight(const PlanePoint& a, const PlanePoint& p) {
  const double slope = (p.x - a.x) - (p.y - a.y);
  if (slope == 0.0) return -1.0;
  return (a.y - p.y) / slope;
}

TEST(PlanePointTest, ScoreAtIsLinearInterpolation) {
  PlanePoint p{0.8, 0.2, 0};
  EXPECT_DOUBLE_EQ(p.ScoreAt(0.0), 0.2);
  EXPECT_DOUBLE_EQ(p.ScoreAt(1.0), 0.8);
  EXPECT_DOUBLE_EQ(p.ScoreAt(0.5), 0.5);
}

TEST(ScorePlaneIndexTest, EmptyIndex) {
  ScorePlaneIndex index({});
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.CountAbove(0.5, 0.3, 0), 0u);
  size_t hits = 0;
  index.ForEachCrossing(PlanePoint{0.5, 0.5, 99}, 0.1, 0.9,
                        [&](const PlanePoint&) { ++hits; });
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(index.last_nodes_visited(), 0u);
}

TEST(ScorePlaneIndexTest, CountAboveMatchesBruteForce) {
  Rng rng(17);
  const auto pts = RandomPoints(2000, &rng);
  ScorePlaneIndex index(pts);
  for (int trial = 0; trial < 100; ++trial) {
    const double w = rng.NextDouble(0.01, 0.99);
    const PlanePoint& anchor = pts[rng.NextBounded(pts.size())];
    const double threshold = anchor.ScoreAt(w);
    EXPECT_EQ(index.CountAbove(w, threshold, anchor.id),
              BruteCountAbove(pts, w, threshold, anchor.id));
  }
}

TEST(ScorePlaneIndexTest, TieHeavyCountAboveMatchesBruteForce) {
  // Jaccard-valued y and x on a coarse grid: long equal-score runs, and
  // weights at exact crossings (where two lines tie) and 1e-7 either side.
  Rng rng(41);
  for (size_t grid : {size_t{0}, size_t{16}, size_t{256}}) {
    const auto pts = JaccardPoints(3000, grid, &rng);
    ScorePlaneIndex index(pts);
    for (int trial = 0; trial < 60; ++trial) {
      const PlanePoint& anchor = pts[rng.NextBounded(pts.size())];
      const PlanePoint& other = pts[rng.NextBounded(pts.size())];
      const std::string tag = "grid=" + std::to_string(grid) +
                              " trial=" + std::to_string(trial);
      ExpectCountsAround(pts, index, anchor, rng.NextDouble(0.01, 0.99), tag);
      const double wx = CrossingWeight(anchor, other);
      if (wx > 0.0 && wx < 1.0) ExpectCountsAround(pts, index, anchor, wx, tag);
    }
  }
}

TEST(ScorePlaneIndexTest, CountAboveUsesFewerNodesThanLinear) {
  Rng rng(23);
  const auto pts = JaccardPoints(20000, 0, &rng);
  ScorePlaneIndex index(pts);
  // A threshold near the top of the score range skips almost every column.
  index.CountAbove(0.5, 0.99, 0);
  EXPECT_LT(index.last_nodes_visited(), pts.size() / 100);
  // A mid-range threshold costs one binary search per column.
  const PlanePoint& anchor = pts[rng.NextBounded(pts.size())];
  EXPECT_EQ(index.CountAbove(0.5, anchor.ScoreAt(0.5), anchor.id),
            BruteCountAbove(pts, 0.5, anchor.ScoreAt(0.5), anchor.id));
  EXPECT_LT(index.last_nodes_visited(), pts.size() / 10);
}

TEST(ScorePlaneIndexTest, ForEachCrossingMatchesBruteForce) {
  // Exactly the points passing the per-point ε test, each once.
  Rng rng(29);
  const auto pts = RandomPoints(3000, &rng);
  ScorePlaneIndex index(pts);
  for (int trial = 0; trial < 50; ++trial) {
    const PlanePoint anchor = pts[rng.NextBounded(pts.size())];
    const double wlo = rng.NextDouble(0.0, 0.5);
    const double whi = wlo + rng.NextDouble(0.0, 0.5);
    EXPECT_EQ(IndexCrossings(index, anchor, wlo, whi),
              BruteCrossings(pts, anchor, wlo, whi))
        << "trial " << trial;
  }
}

TEST(ScorePlaneIndexTest, TieHeavyForEachCrossingMatchesBruteForce) {
  // Interval ends at exact crossings and 1e-7 either side, where the ε test
  // decides borderline points.
  Rng rng(43);
  for (size_t grid : {size_t{0}, size_t{16}, size_t{256}}) {
    const auto pts = JaccardPoints(3000, grid, &rng);
    ScorePlaneIndex index(pts);
    for (int trial = 0; trial < 40; ++trial) {
      const PlanePoint& anchor = pts[rng.NextBounded(pts.size())];
      const PlanePoint& other = pts[rng.NextBounded(pts.size())];
      const double wx = CrossingWeight(anchor, other);
      const double w = wx > 0.0 && wx < 1.0 ? wx : rng.NextDouble(0.01, 0.99);
      const double width = rng.NextDouble(0.0, 0.3);
      for (double delta : {0.0, -1e-7, 1e-7}) {
        const double end = w + delta;
        const std::string tag = "grid=" + std::to_string(grid) + " trial=" +
                                std::to_string(trial) +
                                " delta=" + std::to_string(delta);
        // The crossing as the lower end, as the upper end, and as both.
        const double lo_end = std::max(0.0, end);
        EXPECT_EQ(IndexCrossings(index, anchor, lo_end, lo_end + width),
                  BruteCrossings(pts, anchor, lo_end, lo_end + width))
            << tag;
        const double hi_end = std::max(width, end);
        EXPECT_EQ(IndexCrossings(index, anchor, hi_end - width, hi_end),
                  BruteCrossings(pts, anchor, hi_end - width, hi_end))
            << tag;
        EXPECT_EQ(IndexCrossings(index, anchor, lo_end, lo_end),
                  BruteCrossings(pts, anchor, lo_end, lo_end))
            << tag;
      }
    }
  }
}

TEST(ScorePlaneIndexTest, CrossingQueryPrunes) {
  Rng rng(31);
  // Jaccard-valued y, x below it: no line crosses an anchor far above.
  std::vector<PlanePoint> pts;
  for (size_t i = 0; i < 20000; ++i) {
    const double y = JaccardY(&rng);
    pts.push_back(PlanePoint{y * rng.NextDouble(0.0, 0.5), y,
                             static_cast<ObjectId>(i)});
  }
  ScorePlaneIndex index(pts);
  const PlanePoint anchor{0.9, 0.9, 999999};  // Far above all lines.
  size_t hits = 0;
  index.ForEachCrossing(anchor, 0.2, 0.8, [&](const PlanePoint&) { ++hits; });
  EXPECT_EQ(hits, 0u);
  EXPECT_LT(index.last_nodes_visited(), pts.size() / 10);
}

TEST(ScorePlaneIndexTest, AnchorItselfReportsAsCrossing) {
  // The anchor has zero difference everywhere, which counts as touching.
  std::vector<PlanePoint> pts{{0.3, 0.7, 0}, {0.6, 0.1, 1}};
  ScorePlaneIndex index(pts);
  std::set<ObjectId> got;
  index.ForEachCrossing(pts[0], 0.1, 0.9,
                        [&](const PlanePoint& p) { got.insert(p.id); });
  EXPECT_TRUE(got.count(0));  // Callers filter the anchor out.
}

TEST(ScorePlaneIndexTest, SinglePoint) {
  const std::vector<PlanePoint> pts{PlanePoint{0.4, 0.6, 7}};
  ScorePlaneIndex index(pts);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.CountAbove(0.5, 0.49, 99), 1u);
  EXPECT_EQ(index.CountAbove(0.5, 0.51, 99), 0u);
  EXPECT_EQ(index.CountAbove(0.5, 0.5, 99), 1u);  // Tie, smaller id.
  EXPECT_EQ(index.CountAbove(0.5, 0.5, 7), 0u);   // Itself.
  const PlanePoint crossing{0.6, 0.4, 8};  // Meets the point at w = 0.5.
  EXPECT_EQ(IndexCrossings(index, crossing, 0.4, 0.6),
            std::vector<ObjectId>{7});
  EXPECT_EQ(IndexCrossings(index, crossing, 0.1, 0.3),
            BruteCrossings(pts, crossing, 0.1, 0.3));
}

TEST(ScorePlaneIndexTest, SignedZeroYColumnsAgreeWithBruteForce) {
  // +0 and -0 are distinct bit patterns, hence distinct columns; both score
  // alike, so counts and crossings must not depend on the split.
  std::vector<PlanePoint> pts{{0.3, 0.0, 0},  {0.3, -0.0, 1}, {0.5, 0.0, 2},
                              {0.2, -0.0, 3}, {0.0, 0.0, 4},  {0.0, -0.0, 5},
                              {0.4, 0.25, 6}, {0.3, 0.0, 7}};
  ScorePlaneIndex index(pts);
  for (const PlanePoint& anchor : pts) {
    for (double w : {0.1, 0.5, 0.9}) {
      const double threshold = anchor.ScoreAt(w);
      EXPECT_EQ(index.CountAbove(w, threshold, anchor.id),
                BruteCountAbove(pts, w, threshold, anchor.id))
          << "anchor " << anchor.id << " w=" << w;
    }
    EXPECT_EQ(IndexCrossings(index, anchor, 0.2, 0.8),
              BruteCrossings(pts, anchor, 0.2, 0.8))
        << "anchor " << anchor.id;
  }
}

TEST(ScorePlaneIndexTest, TieCountingRespectsAnchorId) {
  // Two identical points; only the one with smaller id counts at a tie.
  std::vector<PlanePoint> pts{{0.5, 0.5, 3}, {0.5, 0.5, 8}};
  ScorePlaneIndex index(pts);
  // Anchor id 8: the equal-scored id 3 counts.
  EXPECT_EQ(index.CountAbove(0.4, 0.5, 8), 1u);
  // Anchor id 3: id 8 does not count.
  EXPECT_EQ(index.CountAbove(0.4, 0.5, 3), 0u);
  // Anchor id 0: both equal-scored points with larger ids do not count.
  EXPECT_EQ(index.CountAbove(0.4, 0.5, 0), 0u);
}

}  // namespace
}  // namespace yask
