// Copyright (c) 2026 The YASK reproduction authors.
// The rank/candidate oracle seam between the why-not algorithms and the
// corpus they run over.
//
// The three why-not modules (explanation, preference adjustment, keyword
// adaption) are global by construction: they rank objects against the WHOLE
// dataset, sweep the weight plane over every object's (1−SDist, TSim) point,
// and rank every candidate keyword set. Before this seam existed they
// walked one store's indexes directly, which is why a sharded
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
//   * the Eqn. (4) rank of a candidate query is 1 + Σ over shards of each
//     shard's keyword-mask group count (the same partition-sum).
//
// All three rank the same missing objects against the same query location,
// so the engine opens ONE question per /whynot (OpenQuestion): each shard
// builds its QuestionColumns once, and the explanations' ranks, the Eqn. (3)
// sweep and the Eqn. (4) ranks are all answered from them. A rank batch or
// a plane asked for outside a question opens a one-call question of its own
// (one per distinct location of a batch), so the question is the one route
// to a shard's ranks.
//
// WhyNotOracle captures exactly those primitives, and the algorithms run
// unchanged over any implementation. The fan-out and the merge above are
// written once, in FanOutWhyNotOracle, and so is the top-k query's
// threshold-broadcast fan-out; a layout supplies only each shard's half
// through OracleShard: LocalOracleShard in process (LocalWhyNotOracle, one
// per store of an unsharded or a sharded corpus), or a remote shard's
// replicas (RemoteShardOracle, src/corpus/remote_whynot_oracle.h). Determinism
// argument: docs/architecture.md, "Distributed why-not". The paper's basic
// baselines are one more layout, outside src/: ScanOracle
// (bench/baselines/scan_oracle.h) answers every rank, count and crossing by
// scanning one store.

#ifndef YASK_WHYNOT_WHYNOT_ORACLE_H_
#define YASK_WHYNOT_WHYNOT_ORACLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
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
class ShardedCorpus;

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

  /// Events in the Step-4 sweep's first segment (8); the sweep doubles it
  /// from there (AdjustPreference owns the schedule, the same in every
  /// layout). The one source of that size: no session in src/ overrides
  /// it. Virtual only because servebench/tracing.h, its last reader,
  /// forwards it (ROADMAP item 2 deletes it once item 1 retires tracing.h).
  virtual size_t PreferredSweepBatch() const { return 8; }
};

/// A rank interval for one (candidate query, missing object) pair.
/// Contract: lower() <= true rank <= upper(); RefineLevel() never widens
/// either end; resolved() means lower == upper. Every oracle in src/ answers
/// exactly at open. Kept only because servebench/tracing.h overrides it
/// (its last reader; ROADMAP item 2 deletes it once item 1 retires
/// tracing.h).
class RankProbe {
 public:
  virtual ~RankProbe() = default;
  virtual size_t lower() const = 0;
  virtual size_t upper() const = 0;
  virtual bool resolved() const = 0;
  virtual void RefineLevel() = 0;
};

/// One (query, target object) pair of a batched oracle call. The query must
/// outlive the call.
struct OracleTargetSpec {
  const Query* query = nullptr;
  ObjectId target = kInvalidObject;  // Global id.
};

/// A batch of Eqn. (4) rank probes created in one fan-out across the
/// shards. Every oracle in src/ returns an ExactRankBatch: each member is
/// resolved at open (lower == upper == the exact tie-aware rank).
class RankProbeBatch {
 public:
  virtual ~RankProbeBatch() = default;

  virtual size_t size() const = 0;
  /// Rank interval of member i (same contract as RankProbe).
  virtual size_t lower(size_t i) const = 0;
  virtual size_t upper(size_t i) const = 0;
  virtual bool resolved(size_t i) const = 0;
  /// Narrows the listed members' intervals. A no-op on an exact batch; kept
  /// only because servebench/tracing.h overrides it (its last reader).
  virtual void RefineLevel(const std::vector<size_t>& members) = 0;
};

/// The RankProbeBatch of exact ranks, known at open.
class ExactRankBatch final : public RankProbeBatch {
 public:
  explicit ExactRankBatch(std::vector<size_t> ranks)
      : ranks_(std::move(ranks)) {}

  size_t size() const override { return ranks_.size(); }
  size_t lower(size_t i) const override { return ranks_[i]; }
  size_t upper(size_t i) const override { return ranks_[i]; }
  bool resolved(size_t) const override { return true; }
  void RefineLevel(const std::vector<size_t>&) override {}

 private:
  std::vector<size_t> ranks_;
};

/// RankProbe as a batch of one (WhyNotOracle::ProbeRank wraps
/// ProbeRankBatch in this). Its last reader is servebench/tracing.h.
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

  /// Tie-aware exact rank of an object (D6 order): a ProbeRankBatch of one.
  /// The algorithms never call it. Virtual only because
  /// servebench/tracing.h overrides it.
  virtual size_t Rank(const Query& query, ObjectId global_id) const {
    const std::vector<OracleTargetSpec> specs{{&query, global_id}};
    KeywordAdaptStats unused;
    return ProbeRankBatch(specs, &unused)->lower(0);
  }

  /// Builds the per-query score-plane state for Eqn. (3). `query` must
  /// outlive the returned session. Nothing reads the mode; the parameter is
  /// kept only because servebench/tracing.h overrides this signature.
  virtual std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const = 0;

  /// Tie-aware exact counts of objects outscoring each spec's target under
  /// its query: ProbeRankBatch's ranks − 1. The algorithms never call it.
  /// Virtual only because servebench/tracing.h overrides it (ROADMAP item 2
  /// deletes it once item 1 retires tracing.h).
  virtual std::vector<size_t> OutscoringCountBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const {
    const std::unique_ptr<RankProbeBatch> batch = ProbeRankBatch(specs, stats);
    std::vector<size_t> counts(batch->size());
    for (size_t i = 0; i < counts.size(); ++i) counts[i] = batch->lower(i) - 1;
    return counts;
  }

  /// Exact tie-aware ranks (count + 1) of every spec's target, by keyword-
  /// mask groups: from the open question's columns, or outside a question
  /// from one one-call question per distinct location of the specs. No
  /// keyword or shape cap applies. `stats->objects_scored` grows by the
  /// dataset size (the objects placed into columns) per call.
  virtual std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const = 0;

  /// Opens the why-not question (q, M): the returned oracle answers TopK,
  /// Rank, PrepareScorePlane and ProbeRankBatch from per-shard question
  /// columns built once, for every query the question covers (q's location,
  /// a doc within q.doc ∪ M.doc, any weights — for TopK finite and ≥ 0 —
  /// and any k; the plane for q itself);
  /// every other call passes through to this oracle, which must outlive it.
  /// Null when this oracle opens no questions, or when (q, M) is invalid —
  /// the stages then run over this oracle and report why.
  virtual std::unique_ptr<const WhyNotOracle> OpenQuestion(
      const Query& /*query*/, const std::vector<ObjectId>& /*missing*/) const {
    return nullptr;
  }

  /// Single-target views of the two batches above — batches of one. The
  /// algorithms never call them; their last reader is servebench/tracing.h
  /// (ROADMAP item 2 deletes them once item 1 retires tracing.h).
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

struct ShardQuestionSet;  // One open question's per-shard states (.cc).

/// The one fan-out and merge, for every layout: each why-not primitive
/// resolves its target scores once, fans the per-shard half out over the
/// pool, and merges by partition-sum (counts) or partition-union
/// (crossings), keeping the work counters; TopK merges the shards' rows. A
/// shard that fails has its error recorded and adds nothing.
/// LocalWhyNotOracle and RemoteShardOracle differ only in their shards, pool
/// and Object().
///
/// Outside an open question, PrepareScorePlane and ProbeRankBatch open
/// one-call questions (a question opened for a single
/// oracle call and closed after it), so every rank, count and crossing runs
/// through OracleShard::OpenQuestion either way.
class FanOutWhyNotOracle : public WhyNotOracle {
 public:
  size_t size() const override { return size_; }
  double dist_norm() const override { return dist_norm_; }

  /// Threshold-broadcast top-k: the home shard (nearest root MBR) is
  /// searched first, and its k-th score is the prune threshold of every
  /// other shard, searched at once over the pool (spans "topk/fanout" and
  /// "topk/merge") or, without one, nearest-first with the threshold
  /// re-tightened after each merge; a shard's search stops once its
  /// frontier bound falls below the threshold. Per-shard stats are summed
  /// into `stats` when non-null.
  TopKResult TopK(const Query& query,
                  TopKStats* stats = nullptr) const override;
  std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const override;
  std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override;
  /// Records a "whynot/question" span detailing the shards' columns summed.
  std::unique_ptr<const WhyNotOracle> OpenQuestion(
      const Query& query,
      const std::vector<ObjectId>& missing) const override;

  /// The fan-out pool (null = fan-outs run inline on the calling thread).
  const ThreadPool* pool() const { return pool_; }

 protected:
  /// `record_error` receives every failed shard call (a remote layout bumps
  /// its corpus error epoch); null for shards that never fail.
  FanOutWhyNotOracle(std::vector<std::unique_ptr<const OracleShard>> shards,
                     double dist_norm, ThreadPool* pool,
                     std::function<void(const Status&)> record_error = {});

 private:
  friend class FanOutScorePlaneSession;
  friend class FanOutQuestion;

  /// Runs `call(s)` for each listed shard over the pool and returns the
  /// shards that answered, in order. A failed call's error is recorded.
  std::vector<size_t> FanOutShards(
      const std::vector<size_t>& shards,
      const std::function<Status(size_t)>& call) const;

  /// The specs with their target scores resolved (a spec's target need not
  /// live in any particular shard).
  std::vector<ScanTarget> ResolveTargets(
      const std::vector<OracleTargetSpec>& specs) const;

  /// Every shard's question on `query` (ranks over query.doc ∪ `universe`).
  std::shared_ptr<ShardQuestionSet> OpenShardQuestions(
      const Query& query, const KeywordSet& universe) const;

  /// Partition-sum of every target's count over an open question.
  std::vector<size_t> SumQuestionCounts(
      ShardQuestionSet* questions,
      const std::vector<ScanTarget>& targets) const;

  /// Every spec's count outside a question: one one-call question per
  /// distinct location of the specs (told apart by their bits, in
  /// first-seen order), whose doc is the union of the docs there.
  std::vector<size_t> CountByLocation(
      const std::vector<OracleTargetSpec>& specs) const;

  std::vector<std::unique_ptr<const OracleShard>> shards_;
  std::vector<size_t> all_shards_;  // 0..shards_.size()-1.
  size_t size_ = 0;
  double dist_norm_;
  ThreadPool* pool_;
  std::function<void(const Status&)> record_error_;
};

/// The in-process oracle: one LocalOracleShard per store. Over one
/// unsharded store it runs inline (no pool), and a null `setr` is allowed
/// for callers that never call TopK(). Over a ShardedCorpus its fan-outs run
/// on the corpus's shared worker pool; the merge compares GLOBAL ids and
/// scores under the GLOBAL SDist normaliser, so the sharded answers are
/// bit-identical to the unsharded ones. The store or corpus must outlive
/// the oracle.
class LocalWhyNotOracle : public FanOutWhyNotOracle {
 public:
  LocalWhyNotOracle(const ObjectStore& store, const SetRTree* setr);
  explicit LocalWhyNotOracle(const Corpus& corpus);
  explicit LocalWhyNotOracle(const ShardedCorpus& corpus);

  const SpatialObject& Object(ObjectId global_id) const override;

 private:
  const ObjectStore* store_ = nullptr;     // Unsharded.
  const ShardedCorpus* sharded_ = nullptr;  // Sharded.
};

}  // namespace yask

#endif  // YASK_WHYNOT_WHYNOT_ORACLE_H_
