#include "src/whynot/whynot_oracle.h"

#include <algorithm>
#include <cassert>
#include <latch>

#include "src/common/timer.h"
#include "src/corpus/corpus.h"
#include "src/query/ranking.h"

namespace yask {

namespace {

/// Runs fn(s) for the given shard indices — on the pool when the context
/// has one and more than one shard is involved (the caller blocks until all
/// complete), inline otherwise — accumulating per-shard busy time when the
/// bench instrumentation is on. Pool tasks are leaves (they never
/// re-submit), so a caller waiting on the latch cannot deadlock the pool.
void ForShards(const OracleContext& ctx, const std::vector<size_t>& shards,
               const std::function<void(size_t)>& fn) {
  auto timed = [&](size_t s) {
    if (ctx.shard_busy_ms == nullptr) {
      fn(s);
      return;
    }
    Timer timer;
    fn(s);
    (*ctx.shard_busy_ms)[s] += timer.ElapsedMillis();
  };
  if (ctx.pool == nullptr || shards.size() <= 1) {
    for (size_t s : shards) timed(s);
    return;
  }
  std::latch latch(static_cast<ptrdiff_t>(shards.size()));
  for (size_t s : shards) {
    ctx.pool->Submit([&timed, &latch, s] {
      timed(s);
      latch.count_down();
    });
  }
  latch.wait();
}

/// ForShards over every shard view (the context caches the index list).
void ForEachShard(const OracleContext& ctx,
                  const std::function<void(size_t)>& fn) {
  assert(ctx.all_shards.size() == ctx.views.size());
  ForShards(ctx, ctx.all_shards, fn);
}

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
    ForEachShard(*ctx_, [&](size_t s) {
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
    ForEachShard(*ctx_, [&](size_t s) {
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
    ForEachShard(*ctx_, [&](size_t s) {
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

// --- Rank probes -------------------------------------------------------------

/// The RankProbeBatch over the context's shard views: per member a candidate
/// query copy plus one ShardRankRefiner per shard; rank interval of a member
/// = 1 + elementwise sum of its shard count intervals. RefineLevel descends
/// every listed member's open frontiers in ONE fan-out (each shard task
/// runs ShardRankRefiner::RefineLevel over all listed members, decoding
/// each opened leaf once), so the pool — or, remotely, the wire — is hit
/// once per level instead of once per (member, level). Members live behind
/// unique_ptrs: the per-shard scorers point into the member's query copy,
/// which therefore must never move.
class ContextRankProbeBatch : public RankProbeBatch {
 public:
  ContextRankProbeBatch(const OracleContext* ctx, const WhyNotOracle* oracle,
                        const std::vector<OracleTargetSpec>& specs,
                        KeywordAdaptStats* stats)
      : ctx_(ctx), stats_(stats) {
    const size_t n = ctx_->views.size();
    shard_stats_.resize(n);
    members_.reserve(specs.size());
    for (const OracleTargetSpec& spec : specs) {
      members_.push_back(std::make_unique<Member>());
      Member& m = *members_.back();
      m.query = *spec.query;
      m.target = spec.target;
      m.target_score =
          ScorePartsOf(m.query, ctx_->dist_norm, oracle->Object(spec.target))
              .score;
      m.scorers.reserve(n);
      for (size_t s = 0; s < n; ++s) {
        assert(ctx_->views[s].kcr != nullptr &&
               "ProbeRankBatch requires the KcR-tree on every shard");
        m.scorers.emplace_back(*ctx_->views[s].store, m.query,
                               ctx_->dist_norm);
      }
      m.refiners.resize(n);
    }
    // One fan-out builds every member's per-shard refiner (a root-node bound
    // computation each). A batch of one is built inline: its per-shard cost
    // is far below the pool's dispatch + latch cost.
    auto build_shard = [&](size_t s) {
      for (const auto& member : members_) {
        member->refiners[s] = std::make_unique<ShardRankRefiner>(
            ctx_->views[s], member->scorers[s], member->target,
            member->target_score, &shard_stats_[s]);
      }
    };
    if (members_.size() == 1) {
      for (size_t s = 0; s < n; ++s) build_shard(s);
    } else {
      ForEachShard(*ctx_, build_shard);
    }
  }

  ContextRankProbeBatch(const ContextRankProbeBatch&) = delete;
  ContextRankProbeBatch& operator=(const ContextRankProbeBatch&) = delete;

  ~ContextRankProbeBatch() override {
    for (const KeywordAdaptStats& s : shard_stats_) {
      stats_->kcr_nodes_expanded += s.kcr_nodes_expanded;
      stats_->objects_scored += s.objects_scored;
    }
  }

  size_t size() const override { return members_.size(); }

  size_t lower(size_t i) const override {
    size_t sum = 0;
    for (const auto& r : members_[i]->refiners) sum += r->count_lower();
    return sum + 1;
  }
  size_t upper(size_t i) const override {
    size_t sum = 0;
    for (const auto& r : members_[i]->refiners) sum += r->count_upper();
    return sum + 1;
  }
  bool resolved(size_t i) const override {
    for (const auto& r : members_[i]->refiners) {
      if (!r->resolved()) return false;
    }
    return true;
  }

  void RefineLevel(const std::vector<size_t>& members) override {
    // Only the shards with open frontiers for at least one listed member do
    // work; dispatching the rest would spend pool scheduling on no-ops in
    // the hottest /whynot loop.
    std::vector<size_t> active;
    for (size_t s = 0; s < ctx_->views.size(); ++s) {
      for (size_t m : members) {
        if (!members_[m]->refiners[s]->resolved()) {
          active.push_back(s);
          break;
        }
      }
    }
    ForShards(*ctx_, active, [&](size_t s) {
      std::vector<ShardRankRefiner*> refiners;
      refiners.reserve(members.size());
      for (size_t m : members) {
        refiners.push_back(members_[m]->refiners[s].get());
      }
      ShardRankRefiner::RefineLevel(refiners);
    });
  }

 private:
  struct Member {
    Query query;
    ObjectId target = kInvalidObject;
    double target_score = 0.0;
    std::vector<Scorer> scorers;  // One per shard, bound to `query`.
    std::vector<std::unique_ptr<ShardRankRefiner>> refiners;  // One per shard.
  };

  const OracleContext* ctx_;
  std::vector<std::unique_ptr<Member>> members_;
  std::vector<KeywordAdaptStats> shard_stats_;  // Flushed into stats_ at end.
  KeywordAdaptStats* stats_;
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
  ForEachShard(ctx_, [&](size_t s) {
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

std::vector<size_t> ContextWhyNotOracle::OutscoringCountBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  // Target scores are resolved up front (the target of a spec need not live
  // in any particular shard), then one fan-out scans every spec per shard.
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
  ForEachShard(ctx_, [&](size_t s) {
    counts[s] = ShardScanOutscoring(ctx_.views[s], ctx_.dist_norm, targets);
  });
  std::vector<size_t> total(specs.size(), 0);
  for (size_t s = 0; s < n; ++s) {
    for (size_t i = 0; i < specs.size(); ++i) total[i] += counts[s][i];
    stats->objects_scored += ctx_.views[s].store->size() * specs.size();
  }
  return total;
}

std::unique_ptr<ScorePlaneSession> ContextWhyNotOracle::PrepareScorePlane(
    const Query& query, PrefAdjustMode mode) const {
  return std::make_unique<MultiShardScorePlaneSession>(&ctx_, this, &query,
                                                       mode);
}

std::unique_ptr<RankProbeBatch> ContextWhyNotOracle::ProbeRankBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  return std::make_unique<ContextRankProbeBatch>(&ctx_, this, specs, stats);
}

// --- LocalWhyNotOracle -------------------------------------------------------

LocalWhyNotOracle::LocalWhyNotOracle(const ObjectStore& store,
                                     const SetRTree* setr, const KcRTree* kcr)
    : store_(&store) {
  ctx_.views.push_back(OracleShardView{&store, setr, kcr, nullptr});
  ctx_.all_shards.push_back(0);
  ctx_.dist_norm = store.BoundsDiagonal();
  if (setr != nullptr) topk_.emplace(store, *setr);
}

LocalWhyNotOracle::LocalWhyNotOracle(const Corpus& corpus)
    : LocalWhyNotOracle(corpus.store(), &corpus.setr(),
                        corpus.has_kcr() ? &corpus.kcr() : nullptr) {}

TopKResult LocalWhyNotOracle::TopK(const Query& query, TopKStats* stats) const {
  assert(topk_.has_value() && "TopK requires the SetR-tree");
  return topk_->Query(query, stats);
}

}  // namespace yask
