// Copyright (c) 2026 The YASK reproduction authors.
// The paper's basic why-not baselines as one more oracle layout.
//
// The §3.3 refinement modules differ from their baselines (refs [5] and
// [6]) in one thing only: how a candidate's rank is computed. The baseline
// of preference adjustment enumerates the crossings by brute force and
// rescans the dataset per (weight, missing object) pair; the baseline of
// keyword adaption scores every object per (candidate, missing object) pair.
// So a baseline is not a mode of AdjustPreference or AdaptKeywords: it is
// those same searches run over ScanOracle, an oracle over one ObjectStore
// that answers every rank, count and crossing by scanning it. The searches,
// their sweep schedule and their cuts are the served code's; only the rank
// route differs.
//
// Rank convention (DESIGN.md D6), consistent with the top-k engines' result
// order: rank(o, q) = 1 + #{o' : ST(o',q) > ST(o,q) or
//                                (ST(o',q) == ST(o,q) and o'.id < o.id)} ,
// which guarantees o ∈ top-k(q) iff rank(o, q) <= k. Every score is
// Scorer::Score's (or PlanePoint::ScoreAt's) double, so the baselines answer
// bit-identically to every served layout.

#ifndef YASK_BENCH_BASELINES_SCAN_ORACLE_H_
#define YASK_BENCH_BASELINES_SCAN_ORACLE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/query/query.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

/// The tie-aware "outranks the target" predicate (D6); ids compare as
/// global ids.
inline bool OutranksTarget(double score, ObjectId id, double target_score,
                           ObjectId target_id) {
  return score > target_score || (score == target_score && id < target_id);
}

/// Exact rank by full Scorer::Score scan.
size_t ComputeRankScan(const ObjectStore& store, const Query& query,
                       ObjectId target);

/// The scanning oracle over one store (ids are the store's). Its plane
/// session computes each object's (1 − SDist, TSim) point once, then
/// answers each (weight, anchor) count and each anchor's crossings by
/// scanning those points; it counts the points it scores into
/// `index_nodes_visited` (n per counted pair). ProbeRankBatch ranks each
/// spec by comparing every object's score with its target's
/// (ComputeRankScan's ranks; the scores computed once per run of specs
/// sharing a query), and `objects_scored` grows by n per spec. TopK is
/// TopKScan. It opens no questions. The store must outlive the oracle.
class ScanOracle final : public WhyNotOracle {
 public:
  explicit ScanOracle(const ObjectStore& store) : store_(&store) {}

  size_t size() const override { return store_->size(); }
  double dist_norm() const override { return store_->BoundsDiagonal(); }
  const SpatialObject& Object(ObjectId global_id) const override {
    return store_->Get(global_id);
  }
  TopKResult TopK(const Query& query,
                  TopKStats* stats = nullptr) const override {
    return TopKScan(*store_, query, stats);
  }
  std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const override;
  std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override;

 private:
  const ObjectStore* store_;
};

}  // namespace yask

#endif  // YASK_BENCH_BASELINES_SCAN_ORACLE_H_
