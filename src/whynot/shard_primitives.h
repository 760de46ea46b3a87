// Copyright (c) 2026 The YASK reproduction authors.
// Per-shard why-not primitives: the single-shard halves of every oracle
// fan-out, factored out of the oracle so that EVERY deployment shape runs
// the same code on a shard's data.
//
// Three call sites share these:
//   * LocalWhyNotOracle       — one shard, in process (views it as 1 shard);
//   * ShardedWhyNotOracle     — N shards, fan-out over a thread pool;
//   * ShardService (remote)   — one shard behind HTTP; the coordinator's
//                               RemoteShardOracle merges the responses.
// The cross-layout bit-identity argument (docs/architecture.md, "Distributed
// why-not") only needs each shard's contribution to be the same doubles
// arithmetic everywhere — which is guaranteed here by having exactly one
// implementation of each per-shard primitive, keyed on GLOBAL ids and the
// GLOBAL SDist normaliser.

#ifndef YASK_WHYNOT_SHARD_PRIMITIVES_H_
#define YASK_WHYNOT_SHARD_PRIMITIVES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/index/kcr_tree.h"
#include "src/index/score_plane_index.h"
#include "src/index/setr_tree.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/storage/object_store.h"
#include "src/whynot/keyword_adaption.h"

namespace yask {

/// One shard as the generic fan-out machinery sees it. `to_global` maps the
/// shard store's local ids to global ids (null = ids are already global,
/// i.e. the unsharded layout).
struct OracleShardView {
  const ObjectStore* store = nullptr;
  const SetRTree* setr = nullptr;  // Null only where Rank() is never used.
  const KcRTree* kcr = nullptr;    // Null only where ProbeRank() is unused.
  const std::vector<ObjectId>* to_global = nullptr;
};

/// The one shard-side loop that counts the objects outranking a target. It
/// is bound to a list of members, each a scorer (candidate query + SDist
/// normaliser) over the view's store, and works on small blocks of objects
/// (one KcR-tree leaf, or one slice of a scan). A block is decoded ONCE for
/// every member: per object its global id, |o.doc|, a bitmask over the
/// union of the members' query keywords (several 64-bit words when the
/// union exceeds 64), and ws·(1 − SDist) per distinct (loc, ws, dist_norm)
/// query shape. A member's score of a decoded object is then
///
///   spatial + wt · inter / (|q'| + |o.doc| − inter),
///   inter = popcount(object mask & member mask),
///
/// the same IEEE operations on the same operands as Scorer::Score, so every
/// score is bit-identical to it (the build disables FMA contraction, which
/// could fuse the final multiply-add differently in the two places).
/// Scratch is sized to the largest block decoded; nothing scales with the
/// store.
class OutrankKernel {
 public:
  /// `scorers` must be bound to `view.store` (the kernel copies what it
  /// needs from them); `view` must outlive the kernel.
  OutrankKernel(const OracleShardView& view,
                const std::vector<const Scorer*>& scorers);

  /// Replaces the decoded block with a leaf's objects / local ids
  /// [first, last).
  void DecodeLeaf(const KcRTree::Node& leaf);
  void DecodeRange(ObjectId first, ObjectId last);

  size_t decoded() const { return gid_.size(); }
  ObjectId global_id(size_t i) const { return gid_[i]; }

  /// Member `m`'s score of decoded object `i`.
  double Score(size_t m, size_t i) const;

  /// Tie-aware count of decoded objects outranking a target of member `m`
  /// scoring `target_score` (D6 order on GLOBAL ids); the target itself is
  /// skipped, every other object adds one to `*scored`.
  size_t CountOutranking(size_t m, double target_score, ObjectId target,
                         size_t* scored) const;

 private:
  struct Shape {
    Point loc;
    double ws = 0.0;
    double dist_norm = 0.0;
  };
  struct Member {
    size_t shape = 0;
    size_t qlen = 0;  // |q'.doc|.
    double wt = 0.0;
  };

  void Resize(size_t count);
  void Decode(size_t i, ObjectId local);

  const OracleShardView* view_;
  std::vector<TermId> terms_;  // Sorted union of the members' keywords.
  uint64_t filter_[4] = {};    // Bit t % 256 set for every t in terms_.
  size_t words_ = 1;           // 64-bit mask words per object / member.
  std::vector<Shape> shapes_;
  std::vector<Member> members_;
  std::vector<uint64_t> member_masks_;  // members_.size() × words_.
  // The decoded block, one column per field.
  std::vector<ObjectId> gid_;
  std::vector<uint32_t> len_;
  std::vector<uint64_t> masks_;  // decoded() × words_.
  std::vector<double> spatial_;  // decoded() × shapes_.size(), object-major.
};

/// One target of a shard scan: the query it is ranked under and its score.
struct ScanTarget {
  const Query* query = nullptr;
  double target_score = 0.0;
  ObjectId target = kInvalidObject;  // Global id.
};

/// Tie-aware scan counts of the objects in one shard outscoring each
/// target under `dist_norm`: score > target_score, or == with global id <
/// target (D6). A target (present in at most one shard) is skipped by
/// global id. One pass over the store serves every target through
/// OutrankKernel.
std::vector<size_t> ShardScanOutscoring(const OracleShardView& view,
                                        double dist_norm,
                                        const std::vector<ScanTarget>& targets);

/// One shard's Eqn. (3) score-plane state for one query: the plane points
/// (basic mode) or a ScorePlaneIndex over them (optimized mode), with the
/// two per-shard primitives the weight sweep fans out — count-above and
/// crossing collection. Plane points carry GLOBAL ids.
class ShardPlane {
 public:
  ShardPlane(const OracleShardView& view, const Query& query, double dist_norm,
             bool optimized);

  /// Tie-aware count of this shard's points outscoring `anchor` at weight
  /// `w`. `threshold` must be anchor.ScoreAt(w) — the caller computes it
  /// once per sweep event so every shard compares against the same double.
  /// Allocation-free (this sits on the weight sweep's innermost loop).
  size_t CountAbove(double w, double threshold, const PlanePoint& anchor,
                    size_t* nodes_visited) const;

  /// Batched CountAbove over the (weights × anchors) grid:
  /// (*counts)[wi * anchors.size() + a] = CountAbove(weights[wi], anchors[a])
  /// with threshold anchors[a].ScoreAt(weights[wi]) — the same expression
  /// every caller of CountAbove evaluates, so each batched count is the same
  /// double-for-double computation as its per-call twin. `counts` must be
  /// pre-sized to weights.size() * anchors.size().
  void CountAboveBatch(const std::vector<double>& weights,
                       const std::vector<PlanePoint>& anchors,
                       std::vector<size_t>* counts,
                       size_t* nodes_visited) const;

  /// Appends every crossing weight of `anchor`'s score line with one of this
  /// shard's lines inside [wlo, whi] to `events` (duplicates allowed — the
  /// caller sorts and deduplicates the merged set).
  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        size_t* nodes_visited) const;

  bool optimized() const { return optimized_; }

 private:
  bool optimized_;
  std::vector<PlanePoint> pts_;             // Basic mode only.
  std::unique_ptr<ScorePlaneIndex> index_;  // Optimized mode only.
};

/// Per-shard progressive outscoring-count interval over that shard's
/// KcR-tree: exact counts from resolved leaves plus per-frontier-node
/// CountBounds. Tie-breaks compare GLOBAL ids, so the interval is the
/// shard's exact contribution to the global rank (Eqn. (4) sums them).
class ShardRankRefiner {
 public:
  /// `scorer` must be bound to the candidate query and outlive the refiner;
  /// `stats` must outlive it too (counters accumulate as levels refine).
  ShardRankRefiner(const OracleShardView& view, const Scorer& scorer,
                   ObjectId target_global, double target_score,
                   KeywordAdaptStats* stats);

  size_t count_lower() const { return exact_ + sum_lower_; }
  size_t count_upper() const { return exact_ + sum_upper_; }
  bool resolved() const { return frontier_.empty() || sum_lower_ == sum_upper_; }

  /// Descends every listed refiner's frontier one tree level ("when
  /// traversing the KcR-tree downwards, we get tighter bounds", §3.3): each
  /// frontier node is replaced by its children's bounds, each leaf by its
  /// exact tie-aware count. Resolved refiners are no-ops; all refiners must
  /// share one shard view. Refiners should be distinct: a repeated one is
  /// refined once, not once per listing. Two phases: inner nodes expand per
  /// refiner, then the opened leaves are walked once in node order, each
  /// decoded once by an OutrankKernel over the batch and counted for every
  /// refiner that opened it. Counts, bounds and work counters equal those of
  /// refining each refiner on its own.
  static void RefineLevel(const std::vector<ShardRankRefiner*>& refiners);

 private:
  struct Frontier {
    KcRTree::NodeId node;
    CountBounds bounds;
  };

  /// Phase 1 of a level: replaces every inner frontier node by its
  /// children's bounds and moves the frontier leaves to `leaves_`, sorted.
  void ExpandInner();
  void PushNode(KcRTree::NodeId id, const KcRTree::Node& node);

  const OracleShardView* view_;
  const Scorer* scorer_;
  ObjectId target_;
  double target_score_;
  KeywordAdaptStats* stats_;
  std::vector<Frontier> frontier_;
  std::vector<KcRTree::NodeId> leaves_;  // Reused across levels.
  bool in_level_ = false;  // Set only during RefineLevel's phase 1.
  size_t exact_ = 0;
  size_t sum_lower_ = 0;
  size_t sum_upper_ = 0;
};

}  // namespace yask

#endif  // YASK_WHYNOT_SHARD_PRIMITIVES_H_
