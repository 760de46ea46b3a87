// Copyright (c) 2026 The YASK reproduction authors.
// The rank/candidate oracle seam between the why-not algorithms and the
// corpus they run over.
//
// The three why-not modules (explanation, preference adjustment, keyword
// adaption) are global by construction: they rank objects against the WHOLE
// dataset, sweep the weight plane over every object's (1−SDist, TSim) point,
// and bracket candidate ranks with index bounds. Before this seam existed
// they walked one store's SetR/KcR-trees directly, which is why a sharded
// service could not answer /whynot. The observation that unlocks exact
// distributed why-not is that every one of those primitives is a
// partition-sum or a partition-union:
//
//   * rank(o, q) − 1   = Σ over shards of the shard's tie-aware outscoring
//                        count (scores are bit-identical across layouts —
//                        global SDist normaliser, shared vocabulary — and the
//                        tie order compares GLOBAL ids);
//   * the Eqn. (3) crossing-weight candidates of a missing object are the
//     union of each shard's crossings (each crossing is computed from the
//     same two doubles in either layout, so the union deduplicates exactly);
//   * the Eqn. (4) rank interval of a candidate query is 1 + Σ over shards
//     of per-shard KcR count intervals ([lo,hi] sums elementwise).
//
// WhyNotOracle captures exactly those primitives. The algorithms run
// unchanged over any implementation; LocalWhyNotOracle serves one store,
// ShardedWhyNotOracle (src/corpus/sharded_whynot_oracle.h) fans every call
// out over the shard pool and merges as above. Determinism argument:
// docs/architecture.md, "Distributed why-not".

#ifndef YASK_WHYNOT_WHYNOT_ORACLE_H_
#define YASK_WHYNOT_WHYNOT_ORACLE_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/index/kcr_tree.h"
#include "src/index/score_plane_index.h"
#include "src/index/setr_tree.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/shard_primitives.h"

namespace yask {

class Corpus;

/// SDist / TSim / ST(o, q) of one object, normalised by `dist_norm` — the
/// exact floating-point arithmetic Scorer uses, evaluable from an object
/// reference alone (a sharded oracle has no single backing store to bind a
/// Scorer to).
struct ObjectScoreParts {
  double sdist = 0.0;
  double tsim = 0.0;
  double score = 0.0;
};

inline ObjectScoreParts ScorePartsOf(const Query& query, double dist_norm,
                                     const SpatialObject& o) {
  ObjectScoreParts parts;
  parts.sdist = NormalizedSpatialDistance(o.loc, query.loc, dist_norm);
  parts.tsim = query.doc.Jaccard(o.doc);
  parts.score =
      query.w.ws * (1.0 - parts.sdist) + query.w.wt * parts.tsim;
  return parts;
}

/// A per-query score-plane session: the Eqn. (3) primitives over whatever
/// corpus layout the oracle serves. The query passed to PrepareScorePlane
/// must outlive the session.
class ScorePlaneSession {
 public:
  virtual ~ScorePlaneSession() = default;

  /// The score-plane point (1 − SDist, TSim) of a missing object, carrying
  /// its GLOBAL id (the tie-break identity everywhere in the weight sweep).
  virtual PlanePoint Anchor(ObjectId global_id) const = 0;

  /// Appends every crossing weight of `anchor`'s score line with another
  /// object's line inside [wlo, whi] to `events` (duplicates allowed — the
  /// caller sorts and deduplicates the merged set).
  virtual void CollectCrossings(const PlanePoint& anchor, double wlo,
                                double whi, std::vector<double>* events,
                                PreferenceAdjustStats* stats) const = 0;

  /// Tie-aware counts of objects outscoring each anchor at each weight
  /// (rank − 1): counts[wi * anchors.size() + a] is the count for
  /// (weights[wi], anchors[a]). The whole grid is ONE fan-out (one request
  /// per shard for a remote session). Work counters accumulate into `stats`.
  virtual std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<PlanePoint>& anchors,
      PreferenceAdjustStats* stats) const = 0;

  /// One (weight, anchor) count — a batch of one. The algorithms never call
  /// it; it exists for callers outside src/ that probe a single pair.
  virtual size_t CountAbove(double w, const PlanePoint& anchor,
                            PreferenceAdjustStats* stats) const {
    return CountAboveBatch({w}, {anchor}, stats).front();
  }

  /// How many candidate weights per CountAboveBatch this session wants the
  /// Step-4 sweep to speculate on. In-process sessions return 1 (a fan-out
  /// costs microseconds; speculated work past the floor cut is pure waste);
  /// remote sessions size the segment from observed RPC latency.
  virtual size_t PreferredSweepBatch() const { return 1; }
};

/// A progressive rank interval for one (candidate query, missing object)
/// pair: 1 + Σ per-shard KcR outscoring-count intervals, tightened one tree
/// level at a time ("when traversing the KcR-tree downwards, we get tighter
/// bounds", §3.3). Contract: lower() <= true rank <= upper() always;
/// RefineLevel() never widens either end; resolved() means lower == upper.
class RankProbe {
 public:
  virtual ~RankProbe() = default;
  virtual size_t lower() const = 0;
  virtual size_t upper() const = 0;
  virtual bool resolved() const = 0;
  virtual void RefineLevel() = 0;
};

/// One (query, target object) pair of a batched oracle call. The query must
/// outlive the call; batch implementations that keep per-target state (rank
/// probes) copy it.
struct OracleTargetSpec {
  const Query* query = nullptr;
  ObjectId target = kInvalidObject;  // Global id.
};

/// A batch of Eqn. (4) rank probes sharing fan-outs: created in one fan-out
/// across the shards, and refined one tree level per fan-out across every
/// listed member. This is the batching seam of keyword adaption: instead of
/// one oracle round-trip per (candidate, missing object, level) probe, the
/// search issues ONE RefineLevel per refinement level covering ALL live
/// candidates — which a remote oracle turns into one request per shard per
/// level, regardless of how many candidates are in flight.
class RankProbeBatch {
 public:
  virtual ~RankProbeBatch() = default;

  virtual size_t size() const = 0;
  /// Rank interval of member i (same contract as RankProbe): lower() <=
  /// true rank <= upper(); RefineLevel never widens; resolved == collapsed.
  virtual size_t lower(size_t i) const = 0;
  virtual size_t upper(size_t i) const = 0;
  virtual bool resolved(size_t i) const = 0;
  /// Descends every listed member's open frontiers one level in one fan-out.
  /// Members already resolved are no-ops. Listed members must be distinct
  /// (a remote shard answers a repeated index with 400).
  virtual void RefineLevel(const std::vector<size_t>& members) = 0;
};

/// RankProbe as a batch of one — the single-probe API is a view over the
/// batch machinery (WhyNotOracle::ProbeRank wraps ProbeRankBatch in this).
class BatchOfOneProbe : public RankProbe {
 public:
  explicit BatchOfOneProbe(std::unique_ptr<RankProbeBatch> batch)
      : batch_(std::move(batch)) {}

  size_t lower() const override { return batch_->lower(0); }
  size_t upper() const override { return batch_->upper(0); }
  bool resolved() const override { return batch_->resolved(0); }
  void RefineLevel() override { batch_->RefineLevel(kSelf); }

 private:
  static inline const std::vector<size_t> kSelf{0};
  std::unique_ptr<RankProbeBatch> batch_;
};

/// The seam. All object ids crossing this interface are GLOBAL ids.
class WhyNotOracle {
 public:
  virtual ~WhyNotOracle() = default;

  virtual size_t size() const = 0;
  /// The SDist normaliser of Eqn. (1): the WHOLE dataset's MBR diagonal.
  virtual double dist_norm() const = 0;
  /// The object with a global id. Note: in a sharded layout the returned
  /// object's `.id` field is shard-local; use the id you passed for identity.
  virtual const SpatialObject& Object(ObjectId global_id) const = 0;

  /// Exact top-k under any query, with global result ids.
  virtual TopKResult TopK(const Query& query,
                          TopKStats* stats = nullptr) const = 0;

  /// Tie-aware exact rank of an object (D6 order), via pruned index walks.
  virtual size_t Rank(const Query& query, ObjectId global_id) const = 0;

  /// Builds the per-query score-plane state for Eqn. (3). `query` must
  /// outlive the returned session.
  virtual std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const = 0;

  /// Tie-aware exact counts of objects outscoring each spec's target under
  /// its query (== Rank − 1), by full scan — the cache-friendly path the
  /// keyword model uses for R(M, q) and for basic-mode candidate ranks. One
  /// fan-out for the whole batch (one round-trip per shard for a remote
  /// oracle).
  virtual std::vector<size_t> OutscoringCountBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const = 0;

  /// One rank interval per spec, created in one fan-out and refined
  /// level-synchronously (see RankProbeBatch). Requires the corpus to have
  /// its KcR-tree(s). `stats` must outlive the batch (counters are flushed
  /// on destruction).
  virtual std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const = 0;

  /// Single-target views of the two batches above — batches of one. The
  /// algorithms never call them; they exist for callers outside src/ that
  /// ask about one (query, target) pair.
  virtual size_t OutscoringCount(const Query& query, ObjectId global_id,
                                 KeywordAdaptStats* stats) const {
    const std::vector<OracleTargetSpec> specs{{&query, global_id}};
    return OutscoringCountBatch(specs, stats).front();
  }
  virtual std::unique_ptr<RankProbe> ProbeRank(
      const Query& candidate, ObjectId global_id,
      KeywordAdaptStats* stats) const {
    const std::vector<OracleTargetSpec> specs{{&candidate, global_id}};
    return std::make_unique<BatchOfOneProbe>(ProbeRankBatch(specs, stats));
  }
};

/// Everything the shared fan-out/merge implementation needs: the shard
/// views, the global normaliser, and the worker pool (null = run fan-outs
/// inline on the calling thread — single-shard corpora and one-core hosts).
struct OracleContext {
  std::vector<OracleShardView> views;
  /// Precomputed 0..views.size()-1, so full fan-outs on hot paths reuse one
  /// index list instead of allocating per call (kept in sync by the oracle
  /// constructors that fill `views`).
  std::vector<size_t> all_shards;
  double dist_norm = 0.0;
  ThreadPool* pool = nullptr;
  /// Benchmark instrumentation: when non-null (size == views.size()), every
  /// per-shard fan-out task adds its busy time here — the scatter-gather
  /// deployment model of bench_whynot_sharded. Not safe under concurrent
  /// oracle calls; leave null in servers.
  std::vector<double>* shard_busy_ms = nullptr;
};

/// The shared implementation of every oracle primitive except TopK (whose
/// engines differ): partition-sum / partition-union fan-outs over the
/// context's shard views. LocalWhyNotOracle and ShardedWhyNotOracle differ
/// only in how they build the context and answer Object()/TopK().
class ContextWhyNotOracle : public WhyNotOracle {
 public:
  size_t size() const override;
  double dist_norm() const override { return ctx_.dist_norm; }

  size_t Rank(const Query& query, ObjectId global_id) const override;
  std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const override;
  /// One fan-out for the whole batch: each shard task scans/refines every
  /// spec, so the pool is dispatched once per call instead of once per spec.
  std::vector<size_t> OutscoringCountBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override;
  std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override;

  const ThreadPool* pool() const { return ctx_.pool; }
  void set_shard_busy_ms(std::vector<double>* sink) {
    ctx_.shard_busy_ms = sink;
  }

 protected:
  OracleContext ctx_;
};

/// The oracle over one unsharded store — the original why-not data path.
/// Null `setr` / `kcr` are allowed for callers that never touch the methods
/// needing them (the legacy module entry points pass only what they have).
class LocalWhyNotOracle : public ContextWhyNotOracle {
 public:
  LocalWhyNotOracle(const ObjectStore& store, const SetRTree* setr,
                    const KcRTree* kcr);
  /// Over a full corpus (requires nothing; ProbeRankBatch needs
  /// corpus.has_kcr()).
  explicit LocalWhyNotOracle(const Corpus& corpus);

  const SpatialObject& Object(ObjectId global_id) const override {
    return store_->Get(global_id);
  }
  TopKResult TopK(const Query& query, TopKStats* stats) const override;

 private:
  const ObjectStore* store_;
  std::optional<SetRTopKEngine> topk_;  // Engaged when setr is present.
};

}  // namespace yask

#endif  // YASK_WHYNOT_WHYNOT_ORACLE_H_
