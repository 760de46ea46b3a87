// Copyright (c) 2026 The YASK reproduction authors.
// The spatial keyword top-k query's shared pieces (§3.3): the full linear
// scan every engine is checked against, the work counters the engines
// report, and the best-first queue entry.
//
// A /query runs each shard's OracleShard::TopK (src/whynot/shard_primitives.h),
// a split search that scores the holders of a query term from the shard's
// keyword postings and finds the rest by a best-first k-NN over a plain
// R-tree's MBRs; inside a /whynot the open question's columns answer the
// top-k instead. The paper's own engine, over a tree whose nodes carry
// keyword sets, and the other baselines of experiment E2 (the inverted-index
// + R-tree hybrid and the IR-tree) live with the benches, in
// bench/baselines/, and reuse BestFirstEntry.

#ifndef YASK_QUERY_TOPK_ENGINE_H_
#define YASK_QUERY_TOPK_ENGINE_H_

#include <cstddef>
#include <cstdint>

#include "src/query/query.h"
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

}  // namespace yask

#endif  // YASK_QUERY_TOPK_ENGINE_H_
