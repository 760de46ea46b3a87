// Copyright (c) 2026 The YASK reproduction authors.
// The KcR-tree (Keyword-count R-tree, §3.3 Fig. 2, refs [6, 9]): an R-tree
// whose every node carries
//   * a keyword -> count map: for each keyword in the union of the documents
//     below the node, the number of objects below it containing that keyword,
//   * `cnt`, the number of objects below the node,
// plus min/max document lengths (a cheap extra that tightens Jaccard bounds).
//
// Given a (candidate) query keyword set q' and a score threshold s — in the
// keyword-adaption module, s is a missing object's score under q' — the node
// summary bounds how many objects below the node out-rank the missing object:
//
//   Let c be the number of q'-keywords an object contains,
//       T = Σ_{t ∈ q'} count(t) (match incidences below the node).
//   TSim(o,q') = c / (|o.doc| + |q'| − c) is bounded per c by min/max |o.doc|;
//   combining with MINDIST/MAXDIST yields the smallest c that could (resp.
//   must) out-score s, and counting arguments bound #objects with ≥ j matches:
//       #{c ≥ j} ≤ min(cnt, ⌊T / j⌋)
//       #{c ≥ j} ≥ ⌈(T − (j−1)·cnt) / (|q'| − j + 1)⌉      (pigeonhole)
//
// Bounds tighten as the traversal descends; at leaves counts are exact.

#ifndef YASK_INDEX_KCR_TREE_H_
#define YASK_INDEX_KCR_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/keyword_set.h"
#include "src/index/rtree.h"
#include "src/query/scoring.h"

namespace yask {

/// A sorted keyword -> count map (the "Keyword-Count Map" of Fig. 2).
class CountMap {
 public:
  CountMap() = default;

  /// Builds from pre-sorted entries (the snapshot-load hook). `entries` must
  /// be strictly ascending by TermId with positive counts; callers decoding
  /// untrusted bytes must validate before constructing.
  explicit CountMap(std::vector<std::pair<TermId, uint32_t>> entries)
      : entries_(std::move(entries)) {}

  /// Count for a keyword; 0 when absent.
  uint32_t Get(TermId term) const;

  /// Adds every keyword of a document with count 1.
  void AddDoc(const KeywordSet& doc);

  /// Pointwise addition of another map.
  void MergeFrom(const CountMap& other);

  /// Σ over the query keywords of their counts (the T of the bound formulas).
  uint64_t TotalMatches(const KeywordSet& query_doc) const;

  /// Largest single-keyword count among the query keywords; a lower bound on
  /// the number of objects matching at least one query keyword.
  uint32_t MaxSingleMatch(const KeywordSet& query_doc) const;

  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<std::pair<TermId, uint32_t>>& entries() const {
    return entries_;
  }

  bool operator==(const CountMap& other) const = default;

  size_t MemoryBytes() const {
    return entries_.capacity() * sizeof(entries_[0]);
  }

 private:
  std::vector<std::pair<TermId, uint32_t>> entries_;  // Sorted by TermId.
};

/// Node summary of the KcR-tree.
struct KcSummary {
  CountMap counts;
  uint32_t cnt = 0;
  uint32_t min_doc_len = 0;
  uint32_t max_doc_len = 0;

  void Clear() {
    counts.Clear();
    cnt = 0;
    min_doc_len = 0;
    max_doc_len = 0;
  }

  void AddObject(const SpatialObject& o) {
    counts.AddDoc(o.doc);
    const uint32_t len = static_cast<uint32_t>(o.doc.size());
    if (cnt == 0) {
      min_doc_len = len;
      max_doc_len = len;
    } else {
      min_doc_len = std::min(min_doc_len, len);
      max_doc_len = std::max(max_doc_len, len);
    }
    ++cnt;
  }

  void Merge(const KcSummary& other) {
    if (other.cnt == 0) return;
    if (cnt == 0) {
      *this = other;
      return;
    }
    counts.MergeFrom(other.counts);
    min_doc_len = std::min(min_doc_len, other.min_doc_len);
    max_doc_len = std::max(max_doc_len, other.max_doc_len);
    cnt += other.cnt;
  }

  bool Equals(const KcSummary& other) const {
    return cnt == other.cnt && min_doc_len == other.min_doc_len &&
           max_doc_len == other.max_doc_len && counts == other.counts;
  }

  size_t MemoryBytes() const { return counts.MemoryBytes(); }
};

/// The KcR-tree index.
using KcRTree = RTreeT<KcSummary>;

/// An integer interval [lower, upper] on an object count.
struct CountBounds {
  uint32_t lower = 0;
  uint32_t upper = 0;
};

/// Bounds on the number of objects under a node (given rect + summary) whose
/// score under `scorer` exceeds `threshold`.
///
/// Admissibility contract: every object with score > threshold is inside
/// [lower, upper]; objects with score == threshold may or may not be counted
/// by `upper` (ties are resolved exactly only at leaves).
CountBounds BoundOutscoringCount(const Scorer& scorer, const Rect& mbr,
                                 const KcSummary& s, double threshold);

extern template class RTreeT<KcSummary>;

}  // namespace yask

#endif  // YASK_INDEX_KCR_TREE_H_
