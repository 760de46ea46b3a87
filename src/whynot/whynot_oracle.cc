#include "src/whynot/whynot_oracle.h"

#include <cassert>

#include "src/corpus/corpus.h"
#include "src/query/ranking.h"

namespace yask {

namespace {

// --- Score-plane session -----------------------------------------------------

/// The one ScorePlaneSession implementation: one ShardPlane per shard view
/// (src/whynot/shard_primitives.h), merged by partition-sum /
/// partition-union. One shard with a null mapping reproduces the original
/// unsharded data path bit for bit.
class MultiShardScorePlaneSession : public ScorePlaneSession {
 public:
  MultiShardScorePlaneSession(const OracleContext* ctx,
                              const WhyNotOracle* oracle, const Query* query,
                              PrefAdjustMode mode)
      : ctx_(ctx),
        oracle_(oracle),
        query_(query),
        optimized_(mode == PrefAdjustMode::kOptimized) {
    planes_.resize(ctx_->views.size());
    FanOut(ctx_->pool, ctx_->all_shards, [&](size_t s) {
      planes_[s] = std::make_unique<ShardPlane>(ctx_->views[s], *query_,
                                                ctx_->dist_norm, optimized_);
    });
  }

  PlanePoint Anchor(ObjectId global_id) const override {
    // Computed from the object with the exact arithmetic BuildPlanePoints
    // uses, so the anchor is the same point in every layout.
    const ObjectScoreParts parts =
        ScorePartsOf(*query_, ctx_->dist_norm, oracle_->Object(global_id));
    return PlanePoint{1.0 - parts.sdist, parts.tsim, global_id};
  }

  std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<PlanePoint>& anchors,
      PreferenceAdjustStats* stats) const override {
    const size_t n = planes_.size();
    const size_t pairs = weights.size() * anchors.size();
    // ONE fan-out for the whole (weights × anchors) grid: each shard task
    // counts every pair, and each pair's total is an exact partition-sum —
    // bit-identical in every layout, one pool dispatch.
    std::vector<std::vector<size_t>> counts(n);
    std::vector<size_t> nodes(n, 0);
    FanOut(ctx_->pool, ctx_->all_shards, [&](size_t s) {
      counts[s].resize(pairs);
      planes_[s]->CountAboveBatch(weights, anchors, &counts[s], &nodes[s]);
    });
    std::vector<size_t> total(pairs, 0);
    for (size_t s = 0; s < n; ++s) {
      for (size_t i = 0; i < pairs; ++i) total[i] += counts[s][i];
      stats->index_nodes_visited += nodes[s];
    }
    // One logical dataset rescan per (weight, anchor) pair in basic mode.
    if (!optimized_) stats->full_rescans += pairs;
    return total;
  }

  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        PreferenceAdjustStats* stats) const override {
    const size_t n = planes_.size();
    std::vector<std::vector<double>> parts(n);
    std::vector<size_t> nodes(n, 0);
    FanOut(ctx_->pool, ctx_->all_shards, [&](size_t s) {
      planes_[s]->CollectCrossings(anchor, wlo, whi, &parts[s], &nodes[s]);
    });
    // Union in shard order; the caller sorts + deduplicates the merged set,
    // so the final event sequence is layout-independent.
    for (size_t s = 0; s < n; ++s) {
      events->insert(events->end(), parts[s].begin(), parts[s].end());
      stats->index_nodes_visited += nodes[s];
    }
  }

 private:
  const OracleContext* ctx_;
  const WhyNotOracle* oracle_;
  const Query* query_;
  bool optimized_;
  std::vector<std::unique_ptr<ShardPlane>> planes_;
};

}  // namespace

// --- ContextWhyNotOracle -----------------------------------------------------

size_t ContextWhyNotOracle::size() const {
  size_t total = 0;
  for (const OracleShardView& v : ctx_.views) total += v.store->size();
  return total;
}

size_t ContextWhyNotOracle::Rank(const Query& query,
                                 ObjectId global_id) const {
  const double target_score =
      ScorePartsOf(query, ctx_.dist_norm, Object(global_id)).score;
  const size_t n = ctx_.views.size();
  std::vector<size_t> counts(n, 0);
  FanOut(ctx_.pool, ctx_.all_shards, [&](size_t s) {
    const OracleShardView& view = ctx_.views[s];
    assert(view.setr != nullptr && "Rank requires the SetR-tree");
    const Scorer scorer(*view.store, query, ctx_.dist_norm);
    counts[s] = CountOutscoring(*view.store, *view.setr, scorer, target_score,
                                global_id, view.to_global);
  });
  size_t above = 0;
  for (size_t c : counts) above += c;
  return above + 1;
}

std::vector<size_t> ContextWhyNotOracle::SumOverShards(
    const std::vector<OracleTargetSpec>& specs, ShardCounter count) const {
  // Target scores are resolved up front (the target of a spec need not live
  // in any particular shard), then one fan-out counts every spec per shard.
  std::vector<ScanTarget> targets;
  targets.reserve(specs.size());
  for (const OracleTargetSpec& spec : specs) {
    targets.push_back(ScanTarget{
        spec.query,
        ScorePartsOf(*spec.query, ctx_.dist_norm, Object(spec.target)).score,
        spec.target});
  }
  const size_t n = ctx_.views.size();
  std::vector<std::vector<size_t>> counts(n);
  FanOut(ctx_.pool, ctx_.all_shards, [&](size_t s) {
    counts[s] = count(ctx_.views[s], ctx_.dist_norm, targets);
  });
  std::vector<size_t> total(specs.size(), 0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t i = 0; i < specs.size(); ++i) total[i] += counts[s][i];
  }
  return total;
}

std::vector<size_t> ContextWhyNotOracle::OutscoringCountBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += size() * specs.size();
  return SumOverShards(specs, &ShardScanOutscoring);
}

std::unique_ptr<ScorePlaneSession> ContextWhyNotOracle::PrepareScorePlane(
    const Query& query, PrefAdjustMode mode) const {
  return std::make_unique<MultiShardScorePlaneSession>(&ctx_, this, &query,
                                                       mode);
}

std::unique_ptr<RankProbeBatch> ContextWhyNotOracle::ProbeRankBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += size();
  std::vector<size_t> ranks = SumOverShards(specs, &ShardColumnOutscoring);
  for (size_t& rank : ranks) ++rank;
  return std::make_unique<ExactRankBatch>(std::move(ranks));
}

// --- LocalWhyNotOracle -------------------------------------------------------

LocalWhyNotOracle::LocalWhyNotOracle(const ObjectStore& store,
                                     const SetRTree* setr)
    : store_(&store) {
  ctx_.views.push_back(OracleShardView{&store, setr, nullptr});
  ctx_.all_shards.push_back(0);
  ctx_.dist_norm = store.BoundsDiagonal();
  if (setr != nullptr) topk_.emplace(store, *setr);
}

LocalWhyNotOracle::LocalWhyNotOracle(const Corpus& corpus)
    : LocalWhyNotOracle(corpus.store(), &corpus.setr()) {}

TopKResult LocalWhyNotOracle::TopK(const Query& query, TopKStats* stats) const {
  assert(topk_.has_value() && "TopK requires the SetR-tree");
  return topk_->Query(query, stats);
}

}  // namespace yask
