// Copyright (c) 2026 The YASK reproduction authors.
// KeywordSet: the set-of-keywords value type behind o.doc and q.doc.
//
// Represented as a sorted vector of unique TermIds, which makes the set
// algebra the scoring function needs (|A∩B|, |A∪B|, Jaccard, Eqn. (2)) linear
// merges, and keeps every object's keyword list compact.

#ifndef YASK_COMMON_KEYWORD_SET_H_
#define YASK_COMMON_KEYWORD_SET_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/common/vocabulary.h"

namespace yask {

/// An immutable-ish sorted set of TermIds with linear-merge set algebra.
class KeywordSet {
 public:
  KeywordSet() = default;

  /// Builds from arbitrary ids; sorts and deduplicates.
  explicit KeywordSet(std::vector<TermId> ids);
  KeywordSet(std::initializer_list<TermId> ids);

  /// Adopts an already strictly-ascending id vector without re-sorting (the
  /// snapshot-load fast path; the decoder has validated the order). Passing
  /// unsorted or duplicated ids breaks the set-algebra invariants.
  static KeywordSet FromSortedUnique(std::vector<TermId> ids);

  /// Inserts one id, keeping order; no-op if present.
  void Insert(TermId id);

  /// Removes one id if present; returns whether it was removed.
  bool Erase(TermId id);

  bool Contains(TermId id) const;

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  const std::vector<TermId>& ids() const { return ids_; }

  auto begin() const { return ids_.begin(); }
  auto end() const { return ids_.end(); }

  /// |this ∩ other| by linear merge.
  size_t IntersectionSize(const KeywordSet& other) const;

  /// |this ∪ other| = |this| + |other| − |this ∩ other|.
  size_t UnionSize(const KeywordSet& other) const;

  /// Jaccard similarity |A∩B| / |A∪B| (Eqn. (2)); 0 when both empty.
  double Jaccard(const KeywordSet& other) const;

  /// Set union / intersection / difference as new sets.
  static KeywordSet Union(const KeywordSet& a, const KeywordSet& b);
  static KeywordSet Intersection(const KeywordSet& a, const KeywordSet& b);
  static KeywordSet Difference(const KeywordSet& a, const KeywordSet& b);

  /// Edit distance between keyword sets: the minimum number of single-keyword
  /// insertions/deletions transforming `a` into `b`. This is the ∆doc measure
  /// of penalty Eqn. (4): |a \ b| + |b \ a|.
  static size_t EditDistance(const KeywordSet& a, const KeywordSet& b);

  /// True if `this` is a subset of `other`.
  bool IsSubsetOf(const KeywordSet& other) const;

  bool operator==(const KeywordSet& other) const = default;

  /// Space-joined keyword words, for logs and the demo UI.
  std::string ToString(const Vocabulary& vocab) const;

 private:
  std::vector<TermId> ids_;  // Sorted, unique.
};

/// Hash functor so KeywordSet can key unordered containers (candidate
/// keyword sets in the keyword-adaption module).
struct KeywordSetHash {
  size_t operator()(const KeywordSet& s) const;
};

}  // namespace yask

#endif  // YASK_COMMON_KEYWORD_SET_H_
