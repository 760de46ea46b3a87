// Copyright (c) 2026 The YASK reproduction authors.
// ShardRouter: the pluggable object -> shard placement policy of a
// ShardedCorpus.
//
// Correctness never depends on the router — the fan-out engine queries every
// shard and the merge is exact — so a router only shapes balance and
// locality. The default GridShardRouter learns an equi-count quantile grid
// from the data (x-quantile columns, y-quantile cells per column, the STR
// idea applied to partitioning), which keeps shards balanced and spatially
// tight so per-shard R-tree MBRs stay small. HashShardRouter scatters by
// location hash: balanced but locality-free, useful as a worst-case
// comparison and to prove the seam is pluggable.

#ifndef YASK_CORPUS_SHARD_ROUTER_H_
#define YASK_CORPUS_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/object_store.h"

namespace yask {

/// Maps objects to shard indexes in [0, num_shards).
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  virtual uint32_t num_shards() const = 0;

  /// The shard an object with this location belongs to. Pure: the same
  /// location always routes to the same shard.
  virtual uint32_t Route(const Point& loc) const = 0;

  /// One-line description for manifests and logs ("grid 2x2", "hash 4").
  virtual std::string Describe() const = 0;
};

/// Equi-count spatial grid learned from a store (the default router).
///
/// The data is cut into C = ceil(sqrt(N)) x-quantile columns; each column is
/// cut into y-quantile cells so that the cell counts across columns differ
/// by at most one and exactly N cells exist. Routing is two binary searches.
class GridShardRouter : public ShardRouter {
 public:
  /// Learns the quantile boundaries of `store` for `num_shards` shards
  /// (clamped to >= 1). An empty store yields a router sending everything to
  /// shard 0's cell block.
  static std::unique_ptr<GridShardRouter> Fit(const ObjectStore& store,
                                              uint32_t num_shards);

  uint32_t num_shards() const override { return num_shards_; }
  uint32_t Route(const Point& loc) const override;
  std::string Describe() const override;

 private:
  GridShardRouter() = default;

  uint32_t num_shards_ = 1;
  /// Upper x bounds of columns 0..C-2 (column C-1 is unbounded).
  std::vector<double> col_upper_x_;
  /// Per column: upper y bounds of its cells 0..R_c-2.
  std::vector<std::vector<double>> cell_upper_y_;
  /// Per column: index of its first cell in the flat shard numbering.
  std::vector<uint32_t> col_offset_;
};

/// Stateless location-hash router: balanced in expectation, no locality.
class HashShardRouter : public ShardRouter {
 public:
  explicit HashShardRouter(uint32_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards) {}

  uint32_t num_shards() const override { return num_shards_; }
  uint32_t Route(const Point& loc) const override;
  std::string Describe() const override;

 private:
  uint32_t num_shards_;
};

}  // namespace yask

#endif  // YASK_CORPUS_SHARD_ROUTER_H_
