// Copyright (c) 2026 The YASK reproduction authors.
// Per-shard why-not primitives: the single-shard halves of every oracle
// fan-out, factored out of the oracle so that EVERY deployment shape runs
// the same code on a shard's data.
//
// OracleShard is that half as an interface; LocalOracleShard, its in-process
// implementation, is the one caller of the kernels. The in-process oracles
// run one per shard view, and ShardService runs one behind HTTP for a remote
// coordinator, so every layout computes a shard's share with the same code;
// FanOutWhyNotOracle merges the shares. The cross-layout bit-identity
// argument (docs/architecture.md, "Distributed why-not") only needs each
// shard's contribution to be the same doubles arithmetic everywhere — which
// is guaranteed here by having exactly one implementation of each per-shard
// primitive, keyed on GLOBAL ids and the GLOBAL SDist normaliser.

#ifndef YASK_WHYNOT_SHARD_PRIMITIVES_H_
#define YASK_WHYNOT_SHARD_PRIMITIVES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/index/score_plane_index.h"
#include "src/index/setr_tree.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/storage/object_store.h"

namespace yask {

/// Most (weight, anchor) pairs one count fan-out may ask of a shard
/// (2^16: a 512 KiB count_batch response). A shard answers 400 above it;
/// the Eqn. (3) sweep sizes its segments to stay within it.
inline constexpr size_t kMaxCountBatchPairs = size_t{1} << 16;

/// Most distinct keywords in the union of one rank batch's query documents
/// (for keyword adaption, |q.doc ∪ M.doc|), so that an object's keyword mask
/// over the union is one uint64_t. AdaptKeywords answers InvalidArgument and
/// a shard answers 400 above it.
inline constexpr size_t kMaxKeywordUniverse = 64;

/// Most (query, target) specs one /shard/probe/rank or /shard/count request
/// may carry (2^15: a 256 KiB response). A shard answers 400 above it;
/// AdaptKeywords sizes its column chunks to stay within it, and a remote
/// oracle splits larger count batches into requests under it.
inline constexpr size_t kMaxProbeSpecs = size_t{1} << 15;

/// Most distinct (loc, ws) query shapes in one rank batch. The columns hold
/// an x and an id per object per shape, so a batch allocates at most
/// kMaxProbeShapes × 12 bytes per object of the shard. A shard answers 400
/// above it; AdaptKeywords' batches hold one shape.
inline constexpr size_t kMaxProbeShapes = 8;

/// One shard as the generic fan-out machinery sees it. `to_global` maps the
/// shard store's local ids to global ids (null = ids are already global,
/// i.e. the unsharded layout).
struct OracleShardView {
  const ObjectStore* store = nullptr;
  const SetRTree* setr = nullptr;  // Null only where Rank() is never used.
  const std::vector<ObjectId>* to_global = nullptr;
};

/// The shard-side scan loop that counts the objects outranking a target
/// (the basic keyword-adaption baseline). It is bound to a list of members,
/// each a scorer (candidate query + SDist normaliser) over the view's store,
/// and works on small slices of the store. A slice is decoded ONCE for
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

  /// Replaces the decoded block with local ids [first, last).
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

/// The view's local id of a global id; nullopt when the shard does not hold
/// it. Shards hold their objects in ascending global id order.
std::optional<ObjectId> LocalOf(const OracleShardView& view, ObjectId global);

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

/// The sorted union of the targets' query keywords: the universe the
/// keyword masks of ShardColumnOutscoring range over.
std::vector<TermId> KeywordUniverse(const std::vector<ScanTarget>& targets);

/// The number of distinct (loc, ws) query shapes among the targets, told
/// apart by their bits as ShardColumnOutscoring keys them; counting stops at
/// kMaxProbeShapes + 1.
size_t CountQueryShapes(const std::vector<ScanTarget>& targets);

/// ShardScanOutscoring's counts, exactly, from keyword-mask columns: the
/// Eqn. (4) rank kernel. Under a target's query an object scores
///
///   x + wt · inter / (|q'| + |o.doc| − inter),  x = ws·(1 − SDist),
///
/// and inter depends only on o.doc's bitmask over the keyword universe. So
/// the shard's objects are grouped by (mask, |o.doc|), per distinct
/// (loc, ws) query shape, and each group is sorted by x: the text term is
/// one constant per group, the score never decreases along it, and a count
/// is one binary search plus the equal-score run per group
/// (docs/architecture.md, "Keyword-mask columns"). The columns are built
/// once per call for every target, in one pass over the store.
/// Requires KeywordUniverse(targets).size() <= kMaxKeywordUniverse and
/// CountQueryShapes(targets) <= kMaxProbeShapes.
std::vector<size_t> ShardColumnOutscoring(
    const OracleShardView& view, double dist_norm,
    const std::vector<ScanTarget>& targets);

/// One shard's Eqn. (3) plane state for one query: ShardPlane in process,
/// or a remote shard's plane session. An error means the shard answered
/// nothing; only a remote plane returns one. Calls never overlap.
class OracleShardPlane {
 public:
  virtual ~OracleShardPlane() = default;
  /// See ShardPlane.
  virtual Status CountAboveBatch(const std::vector<double>& weights,
                                 const std::vector<PlanePoint>& anchors,
                                 std::vector<size_t>* counts,
                                 size_t* nodes_visited) = 0;
  virtual Status CollectCrossings(const PlanePoint& anchor, double wlo,
                                  double whi, std::vector<double>* events,
                                  size_t* nodes_visited) = 0;
};

/// One shard's Eqn. (3) score-plane state for one query: the plane points
/// scanned in full (basic mode, the paper's baseline) or the ScorePlaneIndex
/// TSim columns over them (optimized mode: binary searches per column), with
/// the two per-shard primitives the weight sweep fans out — count-above and
/// crossing collection. Plane points carry GLOBAL ids; `nodes_visited`
/// accumulates the index's score evaluations (optimized mode only). Never
/// fails.
class ShardPlane final : public OracleShardPlane {
 public:
  ShardPlane(const OracleShardView& view, const Query& query, double dist_norm,
             bool optimized);

  /// Tie-aware counts of this shard's points outscoring each anchor at each
  /// weight ≥ 0 over the (weights × anchors) grid:
  /// (*counts)[wi * anchors.size() + a] compares against the threshold
  /// anchors[a].ScoreAt(weights[wi]) — the same double every layout
  /// computes. `counts` must be pre-sized to weights.size() * anchors.size().
  Status CountAboveBatch(const std::vector<double>& weights,
                         const std::vector<PlanePoint>& anchors,
                         std::vector<size_t>* counts,
                         size_t* nodes_visited) override;

  /// Appends every crossing weight of `anchor`'s score line with one of this
  /// shard's lines inside [wlo, whi] (0 ≤ wlo ≤ whi) to `events` (duplicates
  /// allowed — the caller sorts and deduplicates the merged set).
  Status CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                          std::vector<double>* events,
                          size_t* nodes_visited) override;

 private:
  bool optimized_;
  std::vector<PlanePoint> pts_;             // Basic mode only.
  std::unique_ptr<ScorePlaneIndex> index_;  // Optimized mode only.
};

/// Which outscoring kernel a count runs: the SetR-tree walk behind Rank(),
/// the full scan of basic keyword adaption, or the keyword-mask columns.
enum class OutscoringKernel : uint8_t { kSetR, kScan, kColumns };

/// One shard's half of every why-not oracle primitive but TopK; the oracle
/// (FanOutWhyNotOracle, src/whynot/whynot_oracle.h) does the rest. An error
/// means the shard added nothing; only a remote shard returns one.
class OracleShard {
 public:
  virtual ~OracleShard() = default;

  /// Objects the shard holds.
  virtual size_t size() const = 0;

  /// Tie-aware counts of the shard's objects outscoring each target, by
  /// `kernel` — one per target.
  virtual Result<std::vector<size_t>> CountOutscoring(
      const std::vector<ScanTarget>& targets,
      OutscoringKernel kernel) const = 0;

  /// The shard's plane state for `query`, which must outlive it.
  virtual Result<std::unique_ptr<OracleShardPlane>> OpenPlane(
      const Query& query, bool optimized) const = 0;
};

/// The in-process shard: the kernels above over a view, under the GLOBAL
/// SDist normaliser. Never fails.
class LocalOracleShard final : public OracleShard {
 public:
  /// `view` must outlive the shard; its SetR-tree may be null where kSetR
  /// is never asked.
  LocalOracleShard(const OracleShardView& view, double dist_norm)
      : view_(view), dist_norm_(dist_norm) {}

  size_t size() const override { return view_.store->size(); }
  Result<std::vector<size_t>> CountOutscoring(
      const std::vector<ScanTarget>& targets,
      OutscoringKernel kernel) const override;
  Result<std::unique_ptr<OracleShardPlane>> OpenPlane(
      const Query& query, bool optimized) const override {
    return std::unique_ptr<OracleShardPlane>(
        std::make_unique<ShardPlane>(view_, query, dist_norm_, optimized));
  }

 private:
  OracleShardView view_;
  double dist_norm_;
};

}  // namespace yask

#endif  // YASK_WHYNOT_SHARD_PRIMITIVES_H_
