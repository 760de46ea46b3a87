// Copyright (c) 2026 The YASK reproduction authors.
// Corpus: one shard's serving state as a first-class owned object.
//
// Before this layer existed, every binary that wanted to serve queries —
// the server demo, each benchmark, the integration tests, YaskService —
// hand-assembled the same pieces (ObjectStore + Vocabulary + R-tree) and
// wired them together with borrowed references. A Corpus owns all of it:
// the store (which owns the shared vocabulary) plus the plain R-tree built
// over it, with stable addresses (the store lives behind a unique_ptr, so
// moving a Corpus never invalidates the tree's store pointers). The tree
// carries no keyword summary: a shard's top-k reads its MBRs only (the
// k-NN half of the split top-k and the root distance), and the keyword
// half runs on the shard's postings.
//
// Build one with CorpusBuilder — from raw objects (bulk-loads the tree) or
// from a snapshot file (adopts the serialized arena, or rebuilds the tree
// when the file has none). Save() writes the whole serving state back to
// one snapshot file; for a partitioned corpus the per-shard file is the
// shippable unit (see sharded_corpus.h).

#ifndef YASK_CORPUS_CORPUS_H_
#define YASK_CORPUS_CORPUS_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/index/rtree.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/storage/object_store.h"

namespace yask {

/// One shard's store + R-tree, owned. Movable, not copyable.
class Corpus {
 public:
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  const ObjectStore& store() const { return *store_; }
  const Vocabulary& vocab() const { return store_->vocab(); }
  const RTree& rtree() const { return *rtree_; }

  size_t size() const { return store_->size(); }

  /// Serialises the whole serving state (store + vocabulary + R-tree) into
  /// one snapshot file. `shard` tags the file as one shard of a partitioned
  /// corpus (ShardedCorpus::Save passes it; standalone corpora leave it
  /// null). Returns the file size in bytes.
  Result<uint64_t> Save(const std::string& path,
                        const ShardManifest* shard = nullptr) const;

 private:
  friend class CorpusBuilder;
  friend class ShardedCorpus;
  Corpus() = default;

  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<RTree> rtree_;
};

/// Builds Corpus instances from raw objects or snapshot files.
///
///   Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
///   Result<Corpus> restored = CorpusBuilder().FromSnapshot("state.snap");
class CorpusBuilder {
 public:
  /// Takes ownership of the store and bulk-loads the R-tree.
  Corpus Build(ObjectStore store) const;

  /// Restores a corpus from a snapshot file (standalone or per-shard).
  /// The R-tree is adopted from the file, or rebuilt if the file lacks it
  /// (a file written before section 7 carries only retired index sections,
  /// which are skipped unread).
  /// When `manifest_out` is non-null, a per-shard file's manifest is moved
  /// there (callers that expect a standalone file can reject it).
  Result<Corpus> FromSnapshot(
      const std::string& path,
      std::unique_ptr<ShardManifest>* manifest_out = nullptr) const;
};

}  // namespace yask

#endif  // YASK_CORPUS_CORPUS_H_
