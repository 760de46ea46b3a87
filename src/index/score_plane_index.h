// Copyright (c) 2026 The YASK reproduction authors.
// The score-plane index behind the preference-adjusted why-not module
// (§3.3, ref [5]).
//
// For a fixed query q, every object o maps to a point
//     P(o) = (x, y) = (1 − SDist(o,q), TSim(o,q))
// and its score as a function of the (normalised, ws + wt = 1) weight
// w := ws is the line
//     f_o(w) = w·x + (1−w)·y .
// The best refined weight must sit where a missing object's line crosses
// another object's line (ref [5]); the module therefore needs, per missing
// object m and feasible interval [wlo, whi], all objects whose line crosses
// f_m inside the interval. The paper retrieves them "using two range
// queries"; this index serves exactly those queries, plus above-threshold
// counting (rank of m at a given w), over TSim columns: the points grouped
// by the bits of y (a Jaccard value, so few distinct ones per query), each
// column sorted by x. Within a column the score never decreases as x grows
// (w ≥ 0), so every query is a few exact binary searches per column
// (docs/architecture.md, "Score-plane columns").
//
// The index is per-query (P(o) depends on q) and built in linear time: a
// hash by y, then a radix sort of each column by x.

#ifndef YASK_INDEX_SCORE_PLANE_INDEX_H_
#define YASK_INDEX_SCORE_PLANE_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/storage/object.h"

namespace yask {

/// One object in the score plane.
struct PlanePoint {
  double x = 0.0;  // 1 - SDist(o, q)
  double y = 0.0;  // TSim(o, q)
  ObjectId id = kInvalidObject;

  /// Score at weight w (ws = w, wt = 1-w).
  double ScoreAt(double w) const { return w * x + (1.0 - w) * y; }
};

/// Sorts xs[0, n) ascending and permutes ids[0, n) alike, keeping input
/// order among equal x: an LSD radix sort over the bytes of an
/// order-preserving key of x, skipping the bytes every entry shares, and an
/// insertion sort for short runs. `xs_tmp` and `ids_tmp` are scratch for n
/// entries. Shared by the TSim columns here and the keyword-mask columns of
/// src/whynot/shard_primitives.h.
void SortByX(double* xs, ObjectId* ids, double* xs_tmp, ObjectId* ids_tmp,
             size_t n);

/// Score-plane points in TSim columns, each sorted by x.
class ScorePlaneIndex {
 public:
  /// Builds over the given points. Every coordinate must be finite.
  explicit ScorePlaneIndex(const std::vector<PlanePoint>& points);

  /// Invokes `fn` once for every point whose score line crosses the line
  /// through (anchor.x, anchor.y) within the weight interval [wlo, whi]
  /// (0 ≤ wlo ≤ whi), i.e. whose score difference to the anchor changes sign
  /// (or touches zero) between the interval ends. A small epsilon slack
  /// makes the retrieval a superset near boundaries: callers re-filter by
  /// the crossing weight they compute from the line coefficients. The
  /// anchor object itself, if present in the index, trivially "crosses"
  /// everywhere and is reported too.
  void ForEachCrossing(const PlanePoint& anchor, double wlo, double whi,
                       const std::function<void(const PlanePoint&)>& fn) const;

  /// Number of points whose score at `w` (≥ 0) is strictly greater than
  /// `threshold`, plus the number equal to it with id < tie_id
  /// (deterministic rank order, DESIGN.md D6). One binary search per column
  /// plus a walk over the equal-score run.
  size_t CountAbove(double w, double threshold, ObjectId tie_id) const;

  size_t size() const { return xs_.size(); }

  /// Score evaluations (binary-search probes and tie-run points) of the last
  /// ForEachCrossing/CountAbove call (for the pruning-effectiveness
  /// benchmark E10/E4).
  size_t last_nodes_visited() const { return last_nodes_visited_; }

 private:
  struct Column {
    double y;
    uint32_t begin, end;  // [begin, end) into xs_ / ids_.
  };

  std::vector<Column> columns_;
  std::vector<double> xs_;     // Column-major, ascending x within a column.
  std::vector<ObjectId> ids_;  // Parallel to xs_.
  mutable size_t last_nodes_visited_ = 0;
};

}  // namespace yask

#endif  // YASK_INDEX_SCORE_PLANE_INDEX_H_
