// Copyright (c) 2026 The YASK reproduction authors.
// The threshold-broadcast fan-out top-k: the one implementation behind both
// scale-out layouts. ShardedTopKEngine (in-process shards) and
// RemoteTopKClient (yask_shard_server processes) supply only a shard's root
// MBR distance and a shard search; which shard goes first, the threshold
// the others get and the merge order live here once. Why the merge is
// exact: src/corpus/sharded_corpus.h.

#ifndef YASK_CORPUS_TOPK_FANOUT_H_
#define YASK_CORPUS_TOPK_FANOUT_H_

#include <functional>

#include "src/common/thread_pool.h"
#include "src/query/query.h"
#include "src/query/topk_engine.h"

namespace yask {

/// MinDistance from the query point to shard s's SetR root MBR; +∞ for an
/// empty shard.
using ShardRootDistance = std::function<double(size_t s)>;

/// Shard s's best rows with GLOBAL ids, skipping candidates scoring strictly
/// below `prune_below`; the shard's work counters go into `stats` (zeroed by
/// the caller).
using ShardTopKSearch =
    std::function<TopKResult(size_t s, double prune_below, TopKStats* stats)>;

/// Adds `part`'s rows to `merged` and keeps the first k under the
/// ScoredObject order — the one top-k merge, for FanOutTopK below and for a
/// why-not question's top-k (FanOutWhyNotOracle). Each shard's rows are a
/// disjoint set of objects with exact scores, so the merged first k are
/// the global top-k.
void MergeTopK(const TopKResult& part, size_t k, TopKResult* merged);

/// Exact top-k over `num_shards` shards:
///  1. the home shard — nearest root MBR — is searched unthresholded;
///  2. its k-th score is broadcast as the prune threshold to every other
///     shard at once over `pool` (spans "topk/fanout" and "topk/merge"), or,
///     without a pool, the other shards run nearest-first with the threshold
///     re-tightened after each merge;
///  3. rows merge under the ScoredObject order, truncated to k (MergeTopK).
/// Per-shard stats are summed into `stats` when non-null.
TopKResult FanOutTopK(const Query& query, size_t num_shards, ThreadPool* pool,
                      const ShardRootDistance& root_distance,
                      const ShardTopKSearch& search, TopKStats* stats);

}  // namespace yask

#endif  // YASK_CORPUS_TOPK_FANOUT_H_
