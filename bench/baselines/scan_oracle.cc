#include "bench/baselines/scan_oracle.h"

#include "src/query/scoring.h"
#include "src/whynot/shard_primitives.h"

namespace yask {

namespace {

/// Every object's score-plane point under one query, answered by scans.
class ScanPlaneSession final : public ScorePlaneSession {
 public:
  ScanPlaneSession(const ObjectStore& store, const Query& query) {
    const double dist_norm = store.BoundsDiagonal();
    points_.reserve(store.size());
    for (const SpatialObject& o : store.objects()) {
      // The arithmetic of every layout's anchors and columns.
      const ObjectScoreParts parts = ScorePartsOf(query, dist_norm, o);
      points_.push_back(PlanePoint{1.0 - parts.sdist, parts.tsim, o.id});
    }
  }

  PlanePoint Anchor(ObjectId global_id) const override {
    return points_[global_id];
  }

  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        PreferenceAdjustStats* /*stats*/) const override {
    for (const PlanePoint& p : points_) {
      AppendCrossingWeight(anchor, p, wlo, whi, events);
    }
  }

  std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<PlanePoint>& anchors,
      PreferenceAdjustStats* stats) const override {
    std::vector<size_t> counts(weights.size() * anchors.size(), 0);
    for (size_t wi = 0; wi < weights.size(); ++wi) {
      const double w = weights[wi];
      for (size_t a = 0; a < anchors.size(); ++a) {
        const PlanePoint& anchor = anchors[a];
        const double threshold = anchor.ScoreAt(w);
        size_t& count = counts[wi * anchors.size() + a];
        for (const PlanePoint& p : points_) {
          if (p.id != anchor.id &&
              OutranksTarget(p.ScoreAt(w), p.id, threshold, anchor.id)) {
            ++count;
          }
        }
      }
    }
    stats->index_nodes_visited += counts.size() * points_.size();
    return counts;
  }

 private:
  std::vector<PlanePoint> points_;  // By object id.
};

}  // namespace

size_t ComputeRankScan(const ObjectStore& store, const Query& query,
                       ObjectId target) {
  Scorer scorer(store, query);
  const double target_score = scorer.Score(target);
  size_t above = 0;
  for (const SpatialObject& o : store.objects()) {
    if (o.id == target) continue;
    if (OutranksTarget(scorer.Score(o), o.id, target_score, target)) ++above;
  }
  return above + 1;
}

std::unique_ptr<ScorePlaneSession> ScanOracle::PrepareScorePlane(
    const Query& query, PrefAdjustMode /*mode*/) const {
  return std::make_unique<ScanPlaneSession>(*store_, query);
}

std::unique_ptr<RankProbeBatch> ScanOracle::ProbeRankBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  // Each spec compares every object's score with its target's. The scores
  // are computed with Scorer::Score's arithmetic, so the ranks are
  // ComputeRankScan's, once per run of specs sharing a query (the |M| specs
  // of an AdaptKeywords candidate), and their 1 − SDist parts once per run
  // sharing a location (a whole AdaptKeywords batch).
  const std::vector<SpatialObject>& objects = store_->objects();
  std::vector<double> spatial(objects.size());
  std::vector<double> scores(objects.size());
  const Query* spatial_of = nullptr;
  const Query* scores_of = nullptr;
  std::vector<size_t> ranks;
  ranks.reserve(specs.size());
  for (const OracleTargetSpec& spec : specs) {
    const Query& q = *spec.query;
    if (scores_of != &q) {
      if (spatial_of == nullptr || !(spatial_of->loc == q.loc)) {
        const Scorer scorer(*store_, q);
        for (const SpatialObject& o : objects) {
          spatial[o.id] = 1.0 - scorer.SDist(o.loc);
        }
        spatial_of = &q;
      }
      for (const SpatialObject& o : objects) {
        scores[o.id] = q.w.ws * spatial[o.id] + q.w.wt * q.doc.Jaccard(o.doc);
      }
      scores_of = &q;
    }
    const double target_score = scores[spec.target];
    size_t above = 0;
    for (ObjectId id = 0; id < scores.size(); ++id) {
      if (id != spec.target &&
          OutranksTarget(scores[id], id, target_score, spec.target)) {
        ++above;
      }
    }
    ranks.push_back(above + 1);
  }
  stats->objects_scored += objects.size() * specs.size();
  return std::make_unique<ExactRankBatch>(std::move(ranks));
}

}  // namespace yask
