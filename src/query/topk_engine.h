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
// Two baselines accompany it for experiment E2: a full linear scan, and an
// inverted-index + R-tree hybrid (text candidates merged with a best-first
// spatial sweep that covers zero-similarity objects).
//
// The served /query reaches SetRTopKEngine through each shard's
// OracleShard::TopK (src/whynot/shard_primitives.h); inside a /whynot the
// open question's columns answer the top-k instead.

#ifndef YASK_QUERY_TOPK_ENGINE_H_
#define YASK_QUERY_TOPK_ENGINE_H_

#include <cstddef>
#include <limits>

#include "src/common/status.h"
#include "src/index/inverted_index.h"
#include "src/index/rtree.h"
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
  /// The sharded fan-out passes the k-th score of the most promising shard
  /// here. The stop test is exact but prunes little: the node bounds are
  /// loose, so a far shard's search rarely stops at its root, even when it
  /// returns no row.
  TopKResult Query(const ::yask::Query& query, double prune_below,
                   TopKStats* stats = nullptr) const;

  /// Selects the node-bound flavour (default: length-tightened). Exposed for
  /// the D1 ablation benchmark; results are identical either way, only the
  /// amount of pruning differs.
  void set_bound_variant(SetRBoundVariant variant) { variant_ = variant; }

  /// Overrides the SDist normaliser (default: the store's bounds diagonal).
  /// A sharded corpus sets every shard engine to the *global* diagonal so
  /// per-shard scores are bit-identical to the unsharded engine's.
  void set_dist_norm(double norm) { dist_norm_ = norm; }

  const ObjectStore& store() const { return *store_; }

 private:
  const ObjectStore* store_;
  const SetRTree* tree_;
  SetRBoundVariant variant_ = SetRBoundVariant::kLengthTightened;
  double dist_norm_ = -1.0;  // < 0: use the store's own diagonal.
};

/// Baseline engine: inverted index for the textual side plus a best-first
/// R-tree sweep for objects with no matching keyword (those can still enter
/// the top-k on spatial score alone).
class InvertedTopKEngine {
 public:
  InvertedTopKEngine(const ObjectStore& store, const InvertedIndex& inverted,
                     const RTree& rtree)
      : store_(&store), inverted_(&inverted), rtree_(&rtree) {}

  TopKResult Query(const Query& query, TopKStats* stats = nullptr) const;

 private:
  const ObjectStore* store_;
  const InvertedIndex* inverted_;
  const RTree* rtree_;
};

}  // namespace yask

#endif  // YASK_QUERY_TOPK_ENGINE_H_
