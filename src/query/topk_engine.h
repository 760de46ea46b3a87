// Copyright (c) 2026 The YASK reproduction authors.
// The spatial keyword top-k query engine (§3.3).
//
// The paper's engine follows Cong et al. [4] but swaps the IR-tree for the
// SetR-tree because the IR-tree cannot bound Jaccard similarity: "we maintain
// a priority queue Q initialized with the SetR-tree root node. In each
// iteration we pop the first element; report it if it is an object; otherwise
// unfold it and put its children into Q. The process continues until k
// objects are retrieved."
//
// The full linear scan is its reference. The other baselines of experiment
// E2 (the inverted-index + R-tree hybrid and the IR-tree) live with the
// benches, in bench/baselines/, and reuse BestFirstEntry.
//
// No served path runs SetRTopKEngine: it is the reference the E2 and
// ablation benches and the tests measure against. A /query runs each
// shard's OracleShard::TopK (src/whynot/shard_primitives.h), a split
// search that scores the holders of a query term from the shard's keyword
// postings and finds the rest by a k-NN over the SetR-tree's MBRs, using
// BestFirstEntry but no node's keyword summary; inside a /whynot the open
// question's columns answer the top-k instead.

#ifndef YASK_QUERY_TOPK_ENGINE_H_
#define YASK_QUERY_TOPK_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/common/status.h"
#include "src/index/setr_tree.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/storage/object_store.h"

namespace yask {

/// Work counters reported by the engines (benchmarks E2 and ablation D1).
struct TopKStats {
  size_t nodes_popped = 0;    // Internal/leaf nodes expanded.
  size_t objects_scored = 0;  // Exact score evaluations.
};

/// Priority-queue element of a best-first search: a node or an object.
/// Ordering (via `operator<` for a max-heap): higher key first; at equal key
/// nodes before objects (a node may hide an equal-scored smaller-id object);
/// at equal key among objects, smaller id first.
struct BestFirstEntry {
  double key = 0.0;
  bool is_object = false;
  uint32_t id = 0;  // NodeId or ObjectId.

  bool operator<(const BestFirstEntry& other) const {
    if (key != other.key) return key < other.key;        // Max-heap.
    if (is_object != other.is_object) return is_object;  // Nodes first.
    if (is_object) return id > other.id;                 // Small id first.
    return id < other.id;
  }
};

/// Reference implementation: scores every object, partial-sorts. O(n log k).
TopKResult TopKScan(const ObjectStore& store, const Query& query,
                    TopKStats* stats = nullptr);

/// The paper's engine: best-first search over the SetR-tree.
///
/// Determinism: equal-priority entries pop nodes before objects and objects
/// by ascending id, so results obey the ScoredObject ordering (D6) exactly.
class SetRTopKEngine {
 public:
  /// Both references must outlive the engine; the tree must index `store`.
  SetRTopKEngine(const ObjectStore& store, const SetRTree& tree)
      : store_(&store), tree_(&tree) {}

  /// Runs q against the index. Returns min(k, |D|) objects.
  TopKResult Query(const Query& query, TopKStats* stats = nullptr) const {
    return Query(query, -std::numeric_limits<double>::infinity(), stats);
  }

  /// Thresholded variant: abandons the search once no remaining candidate
  /// can score >= `prune_below`, so objects scoring strictly below it may be
  /// omitted from the result. Exactness contract: every indexed object with
  /// score >= prune_below that belongs to the top-k IS returned (the
  /// best-first frontier bound is admissible and the stop test is strict).
  /// The stop test is exact but prunes little: the node bounds are loose,
  /// so a far shard's search rarely stops at its root, even when it
  /// returns no row.
  TopKResult Query(const ::yask::Query& query, double prune_below,
                   TopKStats* stats = nullptr) const;

  /// Selects the node-bound flavour (default: length-tightened). Exposed for
  /// the D1 ablation benchmark; results are identical either way, only the
  /// amount of pruning differs.
  void set_bound_variant(SetRBoundVariant variant) { variant_ = variant; }

  /// Overrides the SDist normaliser (default: the store's bounds diagonal),
  /// e.g. to a sharded corpus's *global* diagonal, so per-shard scores are
  /// bit-identical to the unsharded engine's.
  void set_dist_norm(double norm) { dist_norm_ = norm; }

  const ObjectStore& store() const { return *store_; }

 private:
  const ObjectStore* store_;
  const SetRTree* tree_;
  SetRBoundVariant variant_ = SetRBoundVariant::kLengthTightened;
  double dist_norm_ = -1.0;  // < 0: use the store's own diagonal.
};

}  // namespace yask

#endif  // YASK_QUERY_TOPK_ENGINE_H_
