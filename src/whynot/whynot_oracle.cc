#include "src/whynot/whynot_oracle.h"

#include <cassert>

#include "src/corpus/corpus.h"

namespace yask {

// --- FanOutWhyNotOracle ------------------------------------------------------

namespace {

/// The partition-sum: per item, the answering shards' counts added up.
std::vector<size_t> SumOver(const std::vector<size_t>& answered,
                            const std::vector<std::vector<size_t>>& counts,
                            size_t items) {
  std::vector<size_t> total(items, 0);
  for (const size_t s : answered) {
    for (size_t i = 0; i < items; ++i) total[i] += counts[s][i];
  }
  return total;
}

}  // namespace

/// The one ScorePlaneSession: one plane per shard, merged by partition-sum /
/// partition-union. A shard whose plane failed to open adds nothing for the
/// rest of the session (its error was recorded at open).
class FanOutScorePlaneSession : public ScorePlaneSession {
 public:
  FanOutScorePlaneSession(const FanOutWhyNotOracle* oracle, const Query* query,
                          PrefAdjustMode mode)
      : oracle_(oracle),
        query_(query),
        optimized_(mode == PrefAdjustMode::kOptimized),
        planes_(oracle->shards_.size()) {
    live_ = oracle_->FanOutShards(oracle_->all_shards_, [&](size_t s) {
      Result<std::unique_ptr<OracleShardPlane>> plane =
          oracle_->shards_[s]->OpenPlane(*query_, optimized_);
      if (!plane.ok()) return plane.status();
      planes_[s] = std::move(plane).value();
      return Status::OK();
    });
  }

  PlanePoint Anchor(ObjectId global_id) const override {
    // Computed from the object with the exact arithmetic BuildPlanePoints
    // uses, so the anchor is the same point in every layout.
    const ObjectScoreParts parts = ScorePartsOf(
        *query_, oracle_->dist_norm(), oracle_->Object(global_id));
    return PlanePoint{1.0 - parts.sdist, parts.tsim, global_id};
  }

  std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<PlanePoint>& anchors,
      PreferenceAdjustStats* stats) const override {
    const size_t pairs = weights.size() * anchors.size();
    // ONE fan-out for the whole (weights × anchors) grid: each shard counts
    // every pair, and each pair's total is an exact partition-sum.
    std::vector<std::vector<size_t>> counts(planes_.size());
    std::vector<size_t> nodes(planes_.size(), 0);
    const std::vector<size_t> answered =
        oracle_->FanOutShards(live_, [&](size_t s) {
          counts[s].resize(pairs);
          return planes_[s]->CountAboveBatch(weights, anchors, &counts[s],
                                             &nodes[s]);
        });
    for (const size_t s : answered) stats->index_nodes_visited += nodes[s];
    // One logical dataset rescan per (weight, anchor) pair in basic mode.
    if (!optimized_) stats->full_rescans += pairs;
    return SumOver(answered, counts, pairs);
  }

  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        PreferenceAdjustStats* stats) const override {
    std::vector<std::vector<double>> parts(planes_.size());
    std::vector<size_t> nodes(planes_.size(), 0);
    const std::vector<size_t> answered =
        oracle_->FanOutShards(live_, [&](size_t s) {
          return planes_[s]->CollectCrossings(anchor, wlo, whi, &parts[s],
                                              &nodes[s]);
        });
    // Union in shard order; the caller sorts + deduplicates the merged set,
    // so the final event sequence is layout-independent.
    for (const size_t s : answered) {
      events->insert(events->end(), parts[s].begin(), parts[s].end());
      stats->index_nodes_visited += nodes[s];
    }
  }

 private:
  const FanOutWhyNotOracle* oracle_;
  const Query* query_;
  bool optimized_;
  std::vector<std::unique_ptr<OracleShardPlane>> planes_;
  std::vector<size_t> live_;  // Shards whose plane opened.
};

FanOutWhyNotOracle::FanOutWhyNotOracle(
    std::vector<std::unique_ptr<const OracleShard>> shards, double dist_norm,
    ThreadPool* pool, std::function<void(const Status&)> record_error)
    : shards_(std::move(shards)),
      dist_norm_(dist_norm),
      pool_(pool),
      record_error_(std::move(record_error)) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    all_shards_.push_back(s);
    size_ += shards_[s]->size();
  }
}

std::vector<size_t> FanOutWhyNotOracle::FanOutShards(
    const std::vector<size_t>& shards,
    const std::function<Status(size_t)>& call) const {
  std::vector<Status> status(shards_.size());
  FanOut(pool_, shards, [&](size_t s) { status[s] = call(s); });
  std::vector<size_t> answered;
  answered.reserve(shards.size());
  for (const size_t s : shards) {
    if (status[s].ok()) {
      answered.push_back(s);
    } else {
      assert(record_error_ && "an in-process shard never fails");
      record_error_(status[s]);
    }
  }
  return answered;
}

std::vector<size_t> FanOutWhyNotOracle::SumCounts(
    const std::vector<OracleTargetSpec>& specs,
    OutscoringKernel kernel) const {
  // Target scores are resolved up front (the target of a spec need not live
  // in any particular shard), then one fan-out counts every spec per shard.
  std::vector<ScanTarget> targets;
  targets.reserve(specs.size());
  for (const OracleTargetSpec& spec : specs) {
    targets.push_back(ScanTarget{
        spec.query,
        ScorePartsOf(*spec.query, dist_norm_, Object(spec.target)).score,
        spec.target});
  }
  std::vector<std::vector<size_t>> counts(shards_.size());
  const std::vector<size_t> answered = FanOutShards(all_shards_, [&](size_t s) {
    Result<std::vector<size_t>> shard_counts =
        shards_[s]->CountOutscoring(targets, kernel);
    if (!shard_counts.ok()) return shard_counts.status();
    counts[s] = std::move(shard_counts).value();
    return Status::OK();
  });
  return SumOver(answered, counts, specs.size());
}

size_t FanOutWhyNotOracle::Rank(const Query& query, ObjectId global_id) const {
  return SumCounts({{&query, global_id}}, OutscoringKernel::kSetR)[0] + 1;
}

std::unique_ptr<ScorePlaneSession> FanOutWhyNotOracle::PrepareScorePlane(
    const Query& query, PrefAdjustMode mode) const {
  return std::make_unique<FanOutScorePlaneSession>(this, &query, mode);
}

std::vector<size_t> FanOutWhyNotOracle::OutscoringCountBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += size_ * specs.size();
  return SumCounts(specs, OutscoringKernel::kScan);
}

std::unique_ptr<RankProbeBatch> FanOutWhyNotOracle::ProbeRankBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += size_;
  std::vector<size_t> ranks = SumCounts(specs, OutscoringKernel::kColumns);
  for (size_t& rank : ranks) ++rank;
  return std::make_unique<ExactRankBatch>(std::move(ranks));
}

// --- LocalWhyNotOracle -------------------------------------------------------

namespace {

std::vector<std::unique_ptr<const OracleShard>> OneShard(
    const ObjectStore& store, const SetRTree* setr) {
  std::vector<std::unique_ptr<const OracleShard>> shards;
  shards.push_back(std::make_unique<LocalOracleShard>(
      OracleShardView{&store, setr, nullptr}, store.BoundsDiagonal()));
  return shards;
}

}  // namespace

LocalWhyNotOracle::LocalWhyNotOracle(const ObjectStore& store,
                                     const SetRTree* setr)
    : FanOutWhyNotOracle(OneShard(store, setr), store.BoundsDiagonal(),
                         /*pool=*/nullptr),
      store_(&store) {
  if (setr != nullptr) topk_.emplace(store, *setr);
}

LocalWhyNotOracle::LocalWhyNotOracle(const Corpus& corpus)
    : LocalWhyNotOracle(corpus.store(), &corpus.setr()) {}

TopKResult LocalWhyNotOracle::TopK(const Query& query, TopKStats* stats) const {
  assert(topk_.has_value() && "TopK requires the SetR-tree");
  return topk_->Query(query, stats);
}

}  // namespace yask
