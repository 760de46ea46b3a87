#include "src/corpus/sharded_corpus.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace yask {

ShardedCorpus ShardedCorpus::Partition(const ObjectStore& source,
                                       std::unique_ptr<ShardRouter> router) {
  assert(router != nullptr);
  ShardedCorpus sharded;
  const uint32_t n = std::max(1u, router->num_shards());

  // Distribute objects in ascending global id order, so each shard store's
  // local id order is the global order restricted to the shard (the D6
  // tie-order invariant of the exactness argument).
  std::vector<ObjectStore> stores;
  stores.reserve(n);
  for (uint32_t s = 0; s < n; ++s) stores.emplace_back(source.shared_vocab());
  sharded.to_global_.resize(n);
  sharded.locate_.reserve(source.size());
  for (const SpatialObject& o : source.objects()) {
    const uint32_t s = std::min(router->Route(o.loc), n - 1);
    const ObjectId local = stores[s].Add(o);
    sharded.to_global_[s].push_back(o.id);
    sharded.locate_.emplace_back(s, local);
  }

  const CorpusBuilder builder;
  sharded.shards_.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    sharded.shards_.push_back(builder.Build(std::move(stores[s])));
  }
  sharded.bounds_ = source.bounds();
  sharded.dist_norm_ = source.BoundsDiagonal();
  sharded.router_desc_ = router->Describe();
  sharded.router_ = std::move(router);
  return sharded;
}

ThreadPool* ShardedCorpus::pool() const {
  std::lock_guard<std::mutex> lock(*pool_mu_);
  if (!pool_decided_) {
    pool_decided_ = true;
    // On a single-core host a pool buys nothing — the fan-outs run inline
    // (and the top-k one gets a strictly better, incrementally-refined prune
    // threshold). More workers than shards can never help: a fan-out
    // submits at most one task per shard.
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    if (shards_.size() > 1 && hw > 1) {
      pool_ = std::make_unique<ThreadPool>(std::min(hw, shards_.size()));
    }
  }
  return pool_.get();
}

ObjectId ShardedCorpus::FindByName(const std::string& name) const {
  // Scan in global id order so ties resolve exactly like an unsharded
  // store's FindByName (first match by global id).
  for (ObjectId global = 0; global < locate_.size(); ++global) {
    if (Object(global).name == name) return global;
  }
  return kInvalidObject;
}

std::string ShardedCorpus::ShardFilePath(const std::string& prefix,
                                         uint32_t index) {
  return prefix + ".shard-" + std::to_string(index) + ".snap";
}

Result<uint64_t> ShardedCorpus::Save(const std::string& prefix) const {
  uint64_t total_bytes = 0;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    ShardManifest manifest;
    manifest.shard_index = s;
    manifest.shard_count = static_cast<uint32_t>(shards_.size());
    manifest.global_bounds = bounds_;
    manifest.global_ids = to_global_[s];
    manifest.router = router_desc_;
    Result<uint64_t> bytes = shards_[s].Save(ShardFilePath(prefix, s),
                                             &manifest);
    if (!bytes.ok()) return bytes.status();
    total_bytes += *bytes;
  }
  return total_bytes;
}

Result<ShardedCorpus> ShardedCorpus::Load(const std::string& prefix) {
  ShardedCorpus sharded;
  const CorpusBuilder builder;
  uint32_t shard_count = 1;
  uint64_t total_objects = 0;
  for (uint32_t s = 0; s < shard_count; ++s) {
    const std::string path = ShardFilePath(prefix, s);
    std::unique_ptr<ShardManifest> manifest;
    Result<Corpus> corpus = builder.FromSnapshot(path, &manifest);
    if (!corpus.ok()) return corpus.status();
    if (manifest == nullptr) {
      return Status::InvalidArgument(path +
                                     " has no shard manifest section; it is "
                                     "not part of a partitioned corpus");
    }
    if (manifest->shard_index != s) {
      return Status::InvalidArgument(
          path + " claims shard index " +
          std::to_string(manifest->shard_index) + ", expected " +
          std::to_string(s));
    }
    if (s == 0) {
      shard_count = manifest->shard_count;
      sharded.bounds_ = manifest->global_bounds;
      sharded.router_desc_ = manifest->router;
      sharded.shards_.reserve(shard_count);
      sharded.to_global_.reserve(shard_count);
    } else if (manifest->shard_count != shard_count) {
      return Status::InvalidArgument(
          path + " claims " + std::to_string(manifest->shard_count) +
          " shards, expected " + std::to_string(shard_count));
    } else if (!(manifest->global_bounds == sharded.bounds_)) {
      return Status::InvalidArgument(path +
                                     " disagrees on the global bounds");
    }
    total_objects += manifest->global_ids.size();
    sharded.shards_.push_back(std::move(corpus).value());
    sharded.to_global_.push_back(std::move(manifest->global_ids));
  }

  // The shards' global ids must tile 0..total-1 exactly: no holes, no
  // duplicates (a missing or doubled object would silently corrupt results).
  constexpr auto kUnset = static_cast<uint32_t>(-1);
  sharded.locate_.assign(static_cast<size_t>(total_objects),
                         {kUnset, kInvalidObject});
  for (uint32_t s = 0; s < shard_count; ++s) {
    const std::vector<ObjectId>& globals = sharded.to_global_[s];
    for (ObjectId local = 0; local < globals.size(); ++local) {
      const ObjectId global = globals[local];
      if (global >= total_objects || sharded.locate_[global].first != kUnset) {
        return Status::InvalidArgument(
            "shard files disagree: global object id " +
            std::to_string(global) + " is out of range or duplicated");
      }
      sharded.locate_[global] = {s, local};
    }
  }

  sharded.dist_norm_ =
      sharded.bounds_.empty()
          ? 0.0
          : Distance(Point{sharded.bounds_.min_x, sharded.bounds_.min_y},
                     Point{sharded.bounds_.max_x, sharded.bounds_.max_y});
  return sharded;
}

}  // namespace yask
