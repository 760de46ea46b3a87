#include "src/corpus/corpus.h"

#include <utility>

namespace yask {

Result<uint64_t> Corpus::Save(const std::string& path,
                              const ShardManifest* shard) const {
  return WriteSnapshot(path, *store_, rtree_.get(), shard);
}

Corpus CorpusBuilder::Build(ObjectStore store) const {
  Corpus corpus;
  corpus.store_ = std::make_unique<ObjectStore>(std::move(store));
  corpus.rtree_ = std::make_unique<RTree>(corpus.store_.get());
  corpus.rtree_->BulkLoad();
  return corpus;
}

Result<Corpus> CorpusBuilder::FromSnapshot(
    const std::string& path,
    std::unique_ptr<ShardManifest>* manifest_out) const {
  Result<SnapshotBundle> bundle = LoadSnapshot(path);
  if (!bundle.ok()) return bundle.status();

  Corpus corpus;
  corpus.store_ = std::move(bundle->store);
  if (bundle->rtree != nullptr) {
    corpus.rtree_ = std::move(bundle->rtree);
  } else {
    corpus.rtree_ = std::make_unique<RTree>(corpus.store_.get());
    corpus.rtree_->BulkLoad();
  }
  if (manifest_out != nullptr) {
    *manifest_out = std::move(bundle->shard);
  } else if (bundle->shard != nullptr) {
    return Status::InvalidArgument(
        path + " is one shard of a " +
        std::to_string(bundle->shard->shard_count) +
        "-way partitioned corpus; load it with ShardedCorpus::Load");
  }
  return corpus;
}

}  // namespace yask
