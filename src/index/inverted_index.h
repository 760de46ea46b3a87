// Copyright (c) 2026 The YASK reproduction authors.
// A classic inverted index (keyword -> sorted posting list of object ids).
// Serves as the textual half of the baseline top-k engine in experiment E2
// (bench_topk) and as a helper for picking query keywords that certainly
// match something. No serving path builds one, and snapshots no longer
// carry one.

#ifndef YASK_INDEX_INVERTED_INDEX_H_
#define YASK_INDEX_INVERTED_INDEX_H_

#include <vector>

#include "src/common/keyword_set.h"
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

}  // namespace yask

#endif  // YASK_INDEX_INVERTED_INDEX_H_
