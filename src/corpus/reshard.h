// Copyright (c) 2026 The YASK reproduction authors.
// Offline snapshot resharding: rewrite the N per-shard snapshot files of a
// partitioned corpus into M files (split or merge) without going back to the
// raw dataset. `dataset_tool reshard` is the CLI; the rolling-upgrade flow is
// reshard offline -> boot the new fleet beside the old -> cut the
// coordinator over (POST /admin/layout) -> drain and retire the old fleet.
//
// Exactness: the input shards' stores are streamed back into one global
// store in ascending global id order, sharing the SAME vocabulary instance
// the input shards serialised. That reproduces the original global corpus
// exactly — bounds accumulate in the original insertion order (identical
// doubles), term ids are unchanged, and D6's id-order tie-breaking is
// preserved — so re-partitioning it is indistinguishable from having
// partitioned the raw dataset M ways in the first place, and every layout
// answers byte-identically (the sharded-exactness argument in
// docs/architecture.md does the rest).
//
// A mixed layout can never be served: each output file's ShardManifest names
// its layout (index, count, bounds, global ids), and ShardedCorpus::Load /
// RemoteCorpus::Connect refuse any set of shards whose manifests disagree or
// whose global ids fail to tile 0..total-1 — stale old-layout files left in
// place are rejected, not silently mixed in.

#ifndef YASK_CORPUS_RESHARD_H_
#define YASK_CORPUS_RESHARD_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/corpus/corpus.h"

namespace yask {

struct ReshardOptions {
  /// Output shard count M (>= 1).
  uint32_t num_shards = 1;
  /// Placement policy for the new layout: "grid" (equi-count quantile grid
  /// refitted to the data) or "hash".
  std::string router = "grid";
};

struct ReshardReport {
  uint32_t from_shards = 0;
  uint32_t to_shards = 0;
  uint64_t objects = 0;
  uint64_t bytes_written = 0;
  std::string router;  // The new layout's router description.
};

/// Loads the N-shard snapshot set at `in_prefix`, rebuilds the global corpus,
/// re-partitions it `options.num_shards` ways and saves the new set at
/// `out_prefix` (one "<out_prefix>.shard-<i>.snap" per output shard, indexes
/// rebuilt). Refuses out_prefix == in_prefix: the old layout must survive
/// until the new one is validated and cut over to.
Result<ReshardReport> ReshardSnapshots(const std::string& in_prefix,
                                       const std::string& out_prefix,
                                       const ReshardOptions& options);

}  // namespace yask

#endif  // YASK_CORPUS_RESHARD_H_
