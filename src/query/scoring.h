// Copyright (c) 2026 The YASK reproduction authors.
// The ranking function of Eqn. (1):
//
//   ST(o, q) = ws * (1 - SDist(o, q)) + wt * TSim(o, q)
//
// SDist is Euclidean distance normalised into [0, 1] by a dataset constant
// (the diagonal of the data MBR, the usual choice); TSim is Jaccard
// similarity (Eqn. (2)). A Scorer binds a query + normaliser and evaluates
// scores and node-level score bounds.

#ifndef YASK_QUERY_SCORING_H_
#define YASK_QUERY_SCORING_H_

#include <algorithm>

#include "src/common/geometry.h"
#include "src/common/keyword_set.h"
#include "src/query/query.h"
#include "src/storage/object_store.h"

namespace yask {

/// Normalised spatial distance: min(1, |a-b| / norm); 0 when norm <= 0.
double NormalizedSpatialDistance(const Point& a, const Point& b, double norm);

/// Evaluates ST(o, q) for one fixed query against one store.
///
/// The normaliser defaults to the store's bounding-box diagonal so that
/// SDist ∈ [0, 1] for every object, as Eqn. (1) requires.
class Scorer {
 public:
  Scorer(const ObjectStore& store, const Query& query);
  Scorer(const ObjectStore& store, const Query& query, double dist_norm);

  /// Normalised spatial distance of a location to the query point.
  double SDist(const Point& loc) const {
    return NormalizedSpatialDistance(loc, query_->loc, dist_norm_);
  }

  /// Jaccard textual similarity of a document to the query keywords.
  double TSim(const KeywordSet& doc) const { return query_->doc.Jaccard(doc); }

  /// Full score of Eqn. (1).
  double Score(const SpatialObject& o) const {
    return query_->w.ws * (1.0 - SDist(o.loc)) + query_->w.wt * TSim(o.doc);
  }
  double Score(ObjectId id) const { return Score(store_->Get(id)); }

  /// Best possible spatial contribution for any point in `mbr`.
  double MaxSpatialComponent(const Rect& mbr) const {
    return 1.0 - NormalizedSpatialDistance1(mbr.MinDistance(query_->loc));
  }

  const Query& query() const { return *query_; }
  const ObjectStore& store() const { return *store_; }
  double dist_norm() const { return dist_norm_; }

 private:
  double NormalizedSpatialDistance1(double raw) const {
    if (dist_norm_ <= 0.0) return 0.0;
    return std::min(1.0, raw / dist_norm_);
  }

  const ObjectStore* store_;
  const Query* query_;
  double dist_norm_;
};

}  // namespace yask

#endif  // YASK_QUERY_SCORING_H_
