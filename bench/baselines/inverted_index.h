// Copyright (c) 2026 The YASK reproduction authors.
// A classic inverted index (keyword -> sorted posting list of object ids),
// and over it and a plain R-tree experiment E2's baseline top-k engine
// (bench_topk): text candidates from the index, merged with a best-first
// spatial sweep that covers the zero-similarity objects. No serving path
// builds either, and snapshots no longer carry the index (their section id
// 3 stays reserved).

#ifndef YASK_BENCH_BASELINES_INVERTED_INDEX_H_
#define YASK_BENCH_BASELINES_INVERTED_INDEX_H_

#include <vector>

#include "src/common/keyword_set.h"
#include "src/index/rtree.h"
#include "src/query/query.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"

namespace yask {

/// Immutable-after-build inverted index over an ObjectStore.
class InvertedIndex {
 public:
  /// Builds postings for every object in the store; O(total keywords).
  explicit InvertedIndex(const ObjectStore& store);

  /// Posting list (ascending object ids) for a term; empty for unknown terms.
  const std::vector<ObjectId>& Postings(TermId term) const;

  /// Union of the posting lists of all query keywords: every object with at
  /// least one matching keyword, ascending, deduplicated.
  std::vector<ObjectId> Candidates(const KeywordSet& query_doc) const;

  /// Document frequency of a term (posting-list length).
  size_t DocumentFrequency(TermId term) const;

  size_t MemoryUsageBytes() const;

 private:
  std::vector<std::vector<ObjectId>> postings_;  // Indexed by TermId.
  std::vector<ObjectId> empty_;
};

/// Baseline engine: inverted index for the textual side plus a best-first
/// R-tree sweep for objects with no matching keyword (those can still enter
/// the top-k on spatial score alone). Rows obey the ScoredObject order (D6).
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

#endif  // YASK_BENCH_BASELINES_INVERTED_INDEX_H_
