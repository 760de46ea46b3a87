// Copyright (c) 2026 The YASK reproduction authors.
// Per-shard why-not primitives: the single-shard halves of every oracle
// fan-out, factored out of the oracle so that EVERY deployment shape runs
// the same code on a shard's data.
//
// OracleShard is that half as an interface; LocalOracleShard, its in-process
// implementation, is the one caller of the kernel. The in-process oracles
// run one per shard view, and ShardService runs one behind HTTP for a remote
// coordinator, so every layout computes a shard's share with the same code;
// FanOutWhyNotOracle merges the shares. The cross-layout bit-identity
// argument (docs/architecture.md, "Distributed why-not") only needs each
// shard's contribution to be the same doubles arithmetic everywhere — which
// is guaranteed here by having exactly one implementation of each per-shard
// primitive, keyed on GLOBAL ids and the GLOBAL SDist normaliser.
//
// There is one kernel. Every rank, count and crossing runs through a
// question (OracleShard::OpenQuestion, QuestionColumns in process), whether
// the engine opened it for a /whynot or the oracle opened it for one call.

#ifndef YASK_WHYNOT_SHARD_PRIMITIVES_H_
#define YASK_WHYNOT_SHARD_PRIMITIVES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/setr_tree.h"
#include "src/query/query.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"
#include "src/whynot/preference_adjustment.h"

namespace yask {

/// Most (weight, anchor) pairs one count fan-out may ask of a shard
/// (2^16: a 512 KiB count_batch response). A shard answers 400 above it;
/// the Eqn. (3) sweep sizes its segments to stay within it.
inline constexpr size_t kMaxCountBatchPairs = size_t{1} << 16;
static_assert(kMaxMissing == kMaxCountBatchPairs / 3);

/// Most keywords in a question's universe U on the wire (/shard/plane/open);
/// a shard answers 400 above it. q.doc itself has no cap. For keyword
/// adaption U = q.doc ∪ M.doc, and AdaptKeywords answers InvalidArgument
/// above it; a larger union still opens a question over q.doc alone, which
/// answers the explanations and the Eqn. (3) sweep.
inline constexpr size_t kMaxKeywordUniverse = 64;

/// Most candidate keyword sets one keyword adaption generates. U allows up
/// to 2^|U| candidates; past this bound AdaptKeywords answers the best
/// candidate generated so far and sets `stats.truncated`, which /whynot
/// reports as the keyword block's "truncated".
inline constexpr size_t kMaxKeywordCandidates = 500000;

/// Most (query, target) specs one /shard/plane/rank request may carry (2^15: a 256 KiB response). A shard answers 400 above it;
/// AdaptKeywords sizes its rank chunks to stay within it, and a remote
/// oracle splits larger batches into requests under it.
inline constexpr size_t kMaxProbeSpecs = size_t{1} << 15;

/// One shard as the generic fan-out machinery sees it. `to_global` maps the
/// shard store's local ids to global ids (null = ids are already global,
/// i.e. the unsharded layout). `setr` indexes `store` for the shard's
/// top-k, whose k-NN half walks its MBRs (null for a shard that is never
/// asked one).
struct OracleShardView {
  const ObjectStore* store = nullptr;
  const std::vector<ObjectId>* to_global = nullptr;
  const SetRTree* setr = nullptr;
};

/// One store's keyword postings in CSR form: each term's local ids in
/// ascending order. LocalOracleShard builds them once; a question ORs the
/// postings of its universe's terms into per-object keyword masks, so an
/// object holding none of them never has its keyword list read, and the
/// top-k counts each object's query terms from them.
class KeywordPostings {
 public:
  /// One counting sort over the store's keyword lists.
  explicit KeywordPostings(const ObjectStore& store);

  /// The ascending local ids holding `term`; empty past the store's largest
  /// term.
  std::span<const ObjectId> Of(TermId term) const;

  /// Bytes held by the offsets and the ids.
  size_t bytes() const;

 private:
  std::vector<size_t> offsets_;  // Largest term + 2 entries (or none).
  std::vector<ObjectId> ids_;    // Term-major, ascending within a term.
};

/// The view's local id of a global id; nullopt when the shard does not hold
/// it. Shards hold their objects in ascending global id order.
std::optional<ObjectId> LocalOf(const OracleShardView& view, ObjectId global);

/// Appends the crossing weight of the anchor `m`'s score line with `p`'s
/// when the lines cross inside [wlo, whi] and p is not m — the one re-filter
/// every plane runs, so a crossing's weight is the same double wherever it
/// is computed.
void AppendCrossingWeight(const PlanePoint& m, const PlanePoint& p, double wlo,
                          double whi, std::vector<double>* events);

/// One target of a rank count: the query it is ranked under and its score.
struct ScanTarget {
  const Query* query = nullptr;
  double target_score = 0.0;
  ObjectId target = kInvalidObject;  // Global id.
};

/// True when a question at `question`'s location whose ranks range over
/// `universe` (q.doc ∪ U, sorted) answers `target`: the same location,
/// down to the bits, and target.doc ⊆ universe. The weights may differ.
bool QuestionCovers(const Query& question, const KeywordSet& universe,
                    const Query& target);

/// True when a question's top-k answers `target`: QuestionCovers, and
/// finite weights ws, wt ≥ 0 (along a mask group a score never decreases
/// only for ws ≥ 0). Any k.
bool QuestionCoversTopK(const Query& question, const KeywordSet& universe,
                        const Query& target);

/// The size of one shard's question columns (span details, the wire).
struct QuestionShape {
  size_t objects = 0;   // Objects placed.
  size_t groups = 0;    // (keyword mask, |o.doc|) groups.
  size_t columns = 0;   // TSim columns.
  size_t universe = 0;  // Keywords the masks range over.
};

/// "objects=… groups=… columns=… universe=…": the question spans' detail.
std::string DescribeQuestion(const QuestionShape& shape);

/// One shard's state for one why-not question: QuestionColumns in process,
/// or a remote shard's question session. It answers the per-shard
/// primitives of a question: the Eqn. (4) and explanation rank counts, the
/// Eqn. (3) sweep's counts and crossings, and the top-k of the query and of
/// its refinements. An error means the shard
/// answered nothing; only a remote question returns one. Calls may overlap:
/// the preference and keyword stages of one question share it from two
/// threads.
class OracleShardQuestion {
 public:
  virtual ~OracleShardQuestion() = default;

  virtual QuestionShape shape() const = 0;

  /// Tie-aware counts of the shard's objects outscoring each target (D6 on
  /// global ids). Every target's query must be covered (QuestionCovers).
  virtual Result<std::vector<size_t>> CountOutscoring(
      const std::vector<ScanTarget>& targets) = 0;

  /// The shard's first min(k, size) rows under `query` (ScoredObject
  /// order, GLOBAL ids), scored bit-identically to Scorer::Score. `query`
  /// must be covered (QuestionCoversTopK). Work counters go into `stats`
  /// when non-null: mask groups opened and rows scored.
  virtual Result<TopKResult> TopK(const Query& query, TopKStats* stats) = 0;

  /// Tie-aware counts of this shard's objects outscoring each anchor at each
  /// weight ≥ 0 over the (weights × anchors) grid:
  /// (*counts)[wi * anchors.size() + a] compares against the threshold
  /// anchors[a].ScoreAt(weights[wi]) — the same double every layout
  /// computes. `counts` must be pre-sized to weights.size() * anchors.size().
  /// `nodes_visited` accumulates score evaluations.
  virtual Status CountAboveBatch(const std::vector<double>& weights,
                                 const std::vector<PlanePoint>& anchors,
                                 std::vector<size_t>* counts,
                                 size_t* nodes_visited) = 0;

  /// Appends every crossing weight of `anchor`'s score line with one of this
  /// shard's lines inside [wlo, whi] (0 ≤ wlo ≤ whi) to `events` (duplicates
  /// allowed — the caller sorts and deduplicates the merged set).
  virtual Status CollectCrossings(const PlanePoint& anchor, double wlo,
                                  double whi, std::vector<double>* events,
                                  size_t* nodes_visited) = 0;
};

/// The one per-shard kernel of a why-not question (docs/architecture.md,
/// "Question columns"). Every object's keyword mask over the universe
/// q.doc ∪ U is ORed from the shard's postings of the universe's terms;
/// one pass over the shard then computes each object's
///
///   x = 1 − SDist(o, q.loc)
///
/// (the double Scorer::Score multiplies by ws) and its group: its mask and
/// |o.doc|. One stable sort by x (ties in ascending id order) is then
/// scattered two ways, so every slice below is sorted by x:
///
///   * into the mask groups. Under any query at q.loc with a doc ⊆ the
///     universe, at any ws, an object scores ws·x + wt·J(inter, |q'|,
///     |o.doc|), and inter is one popcount per group: the text term is a
///     constant per group and the score never decreases along it, so a
///     rank count is one binary search plus the equal-score run per group
///     (Eqn. (4) candidates and the explanations' R(M, q)), and a top-k
///     walks the groups best tail first, each from its tail while its
///     scores can still beat the k-th best row so far;
///   * into TSim columns: the groups merged by the bits of
///     y = TSim(o, q), computed from the group's mask. Along a column
///     w·x + (1 − w)·y never decreases for w ≥ 0, so the Eqn. (3) sweep's
///     counts and crossings are binary searches per column — far fewer
///     columns than groups.
///
/// Every score is the same IEEE arithmetic on the same operands as
/// Scorer::Score and PlanePoint::ScoreAt (the build disables FMA
/// contraction), so counts are exact. The universe may span any number of
/// 64-bit mask words; the wire caps U at kMaxKeywordUniverse. Immutable once
/// built, so calls may overlap.
class QuestionColumns final : public OracleShardQuestion {
 public:
  /// `view` must outlive the columns; `postings` are its store's, read only
  /// while building. `universe` lists the keywords beyond query.doc that
  /// covered targets may use.
  QuestionColumns(const OracleShardView& view, const KeywordPostings& postings,
                  double dist_norm, const Query& query,
                  const KeywordSet& universe);

  QuestionShape shape() const override;

  /// Never fail.
  Result<std::vector<size_t>> CountOutscoring(
      const std::vector<ScanTarget>& targets) override;
  Result<TopKResult> TopK(const Query& query, TopKStats* stats) override;
  /// Never fail.
  Status CountAboveBatch(const std::vector<double>& weights,
                         const std::vector<PlanePoint>& anchors,
                         std::vector<size_t>* counts,
                         size_t* nodes_visited) override;
  Status CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                          std::vector<double>* events,
                          size_t* nodes_visited) override;

  /// One target's count (see CountOutscoring).
  size_t CountOutscoring(const ScanTarget& target) const;

 private:
  /// [begin, end) of a slice of the group or column arrays.
  struct Group {
    uint32_t len = 0;  // |o.doc|.
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  struct Column {
    double y = 0.0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// `doc`'s mask over the universe, ORed into `words_` words at `mask`
  /// (the query's and the targets' docs; objects' masks come from postings).
  void MaskOf(const KeywordSet& doc, uint64_t* mask) const;
  /// wt · J(inter, qlen, len) of a doc with mask `mask` and `len` keywords
  /// under a query doc with mask `qmask` and `qlen` keywords.
  double TextOf(const uint64_t* mask, size_t len, const uint64_t* qmask,
                size_t qlen, double wt) const;
  size_t CountAbove(double w, double threshold, ObjectId tie_id,
                    size_t* evals) const;

  OracleShardView view_;
  double dist_norm_;
  Point loc_;
  std::vector<TermId> terms_;  // The universe, sorted.
  size_t words_ = 1;           // 64-bit mask words per group.
  std::vector<Group> groups_;
  std::vector<uint64_t> group_masks_;  // groups_.size() × words_.
  std::vector<double> gx_;     // Group-major, x ascending within a group.
  std::vector<ObjectId> gid_;  // Parallel to gx_, global ids.
  std::vector<Column> columns_;
  std::vector<double> cx_;     // Column-major, x ascending within a column.
  std::vector<ObjectId> cid_;  // Parallel to cx_, global ids.
};

/// One shard's half of every oracle primitive, top-k included; the oracle
/// (FanOutWhyNotOracle, src/whynot/whynot_oracle.h) does the rest. An error
/// means the shard added nothing; only a remote shard returns one.
class OracleShard {
 public:
  virtual ~OracleShard() = default;

  /// Objects the shard holds.
  virtual size_t size() const = 0;

  /// MinDistance from `loc` to the shard's SetR root MBR; +∞ for an empty
  /// shard. The top-k fan-out searches the nearest shard first.
  virtual double RootDistance(const Point& loc) const = 0;

  /// The shard's first min(k, size) rows under `query` (ScoredObject
  /// order, GLOBAL ids), where rows scoring strictly below `prune_below`
  /// may be left out; `query` has finite weights ≥ 0. Work counters
  /// accumulate into `stats`.
  virtual Result<TopKResult> TopK(const Query& query, double prune_below,
                                  TopKStats* stats) const = 0;

  /// The shard's state for a question on `query`, whose ranks may use the
  /// keywords of query.doc ∪ `universe` (|universe| ≤ kMaxKeywordUniverse).
  /// `query` must be valid.
  virtual Result<std::unique_ptr<OracleShardQuestion>> OpenQuestion(
      const Query& query, const KeywordSet& universe) const = 0;
};

/// The in-process shard: QuestionColumns and the split top-k over a view,
/// under the GLOBAL SDist normaliser, with the view's keyword postings
/// built once. Never fails.
///
/// The split top-k (docs/architecture.md, "A shard's top-k") scores every
/// object holding a term of q.doc — found, with its match count, from the
/// postings — and keeps the best k scoring at least `prune_below`. Every
/// other object scores exactly ws·(1 − SDist), so a best-first k-NN over
/// the SetR-tree's MBRs (node key ws · MaxSpatialComponent) finds them,
/// skipping holders and stopping strictly below max(prune_below, the k-th
/// holder's score); the two lists merge. Every score is Scorer::Score's
/// IEEE expression on the same operands. The SetR-tree's MBRs serve the
/// k-NN and RootDistance; its keyword summaries serve no /query.
/// `nodes_popped` counts the k-NN's node expansions; `objects_scored` the
/// holders plus the non-holders the k-NN scored. The match counters live
/// for one call, so concurrent calls are safe.
class LocalOracleShard final : public OracleShard {
 public:
  /// `view` must outlive the shard.
  LocalOracleShard(const OracleShardView& view, double dist_norm)
      : view_(view), dist_norm_(dist_norm), postings_(*view.store) {}

  size_t size() const override { return view_.store->size(); }
  /// Require view.setr.
  double RootDistance(const Point& loc) const override;
  Result<TopKResult> TopK(const Query& query, double prune_below,
                          TopKStats* stats) const override;
  /// Records a "shard/question" span detailing the columns' shape.
  Result<std::unique_ptr<OracleShardQuestion>> OpenQuestion(
      const Query& query, const KeywordSet& universe) const override;

 private:
  OracleShardView view_;
  double dist_norm_;
  KeywordPostings postings_;
};

}  // namespace yask

#endif  // YASK_WHYNOT_SHARD_PRIMITIVES_H_
