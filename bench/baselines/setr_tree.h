// Copyright (c) 2026 The YASK reproduction authors.
// The SetR-tree (§3.3, ref [6]): an R-tree whose every node carries the
// intersection set and the union set of the keyword sets of all objects
// indexed beneath it. These two sets give admissible bounds on the Jaccard
// similarity — and hence on the full ranking score — of any object under a
// node, which powers the best-first top-k algorithm.
//
// Bound (DESIGN.md D1). For any object o under node N with union set U and
// intersection set I, and query keyword set q:
//     I ⊆ o.doc ⊆ U
//   ⇒ |o.doc ∩ q| ≤ |U ∩ q|      and   |o.doc ∪ q| ≥ |I ∪ q|
//   ⇒ TSim(o,q)  ≤ min(1, |U ∩ q| / |I ∪ q|)
// Combined with MINDIST on the node MBR it bounds ST(o, q) from above.
//
// SetRTopKEngine is the paper's engine on it, following Cong et al. [4]
// with the IR-tree swapped for the SetR-tree: "we maintain a priority queue
// Q initialized with the SetR-tree root node. In each iteration we pop the
// first element; report it if it is an object; otherwise unfold it and put
// its children into Q. The process continues until k objects are
// retrieved."
//
// No served path builds the SetR-tree: a shard's top-k scores the holders
// of a query term from its keyword postings and finds the rest by a k-NN
// over a plain R-tree (src/whynot/shard_primitives.h). The SetR-tree is the
// reference experiment E2 and ablation D1 measure, like the IR-tree next to
// it.

#ifndef YASK_BENCH_BASELINES_SETR_TREE_H_
#define YASK_BENCH_BASELINES_SETR_TREE_H_

#include "src/common/keyword_set.h"
#include "src/index/rtree.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"

namespace yask {

/// Node summary of the SetR-tree: union set, intersection set, object count,
/// plus min/max document lengths. The lengths are an extension over the
/// paper's description (which names only the intersection and union sets);
/// they cost 8 bytes per node and markedly tighten the Jaccard denominator
/// bound when node intersections are empty (common for popular keywords) —
/// see DESIGN.md D1.
struct SetSummary {
  KeywordSet union_set;
  KeywordSet inter_set;
  uint32_t count = 0;
  uint32_t min_doc_len = 0;
  uint32_t max_doc_len = 0;

  void Clear() {
    union_set = KeywordSet();
    inter_set = KeywordSet();
    count = 0;
    min_doc_len = 0;
    max_doc_len = 0;
  }

  void AddObject(const SpatialObject& o) {
    const uint32_t len = static_cast<uint32_t>(o.doc.size());
    if (count == 0) {
      union_set = o.doc;
      inter_set = o.doc;
      min_doc_len = len;
      max_doc_len = len;
    } else {
      union_set = KeywordSet::Union(union_set, o.doc);
      inter_set = KeywordSet::Intersection(inter_set, o.doc);
      min_doc_len = std::min(min_doc_len, len);
      max_doc_len = std::max(max_doc_len, len);
    }
    ++count;
  }

  void Merge(const SetSummary& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    union_set = KeywordSet::Union(union_set, other.union_set);
    inter_set = KeywordSet::Intersection(inter_set, other.inter_set);
    min_doc_len = std::min(min_doc_len, other.min_doc_len);
    max_doc_len = std::max(max_doc_len, other.max_doc_len);
    count += other.count;
  }

  bool Equals(const SetSummary& other) const {
    return count == other.count && min_doc_len == other.min_doc_len &&
           max_doc_len == other.max_doc_len && union_set == other.union_set &&
           inter_set == other.inter_set;
  }

  size_t MemoryBytes() const {
    return (union_set.size() + inter_set.size()) * sizeof(TermId);
  }
};

/// The SetR-tree index.
using SetRTree = RTreeT<SetSummary>;

/// Bound flavour (ablation D1): the paper describes only the union and
/// intersection sets; kLengthTightened additionally exploits the per-node
/// min/max document lengths. Both are admissible; kLengthTightened dominates
/// (is never looser). bench_ablation quantifies the difference.
enum class SetRBoundVariant {
  kLengthTightened,
  kSetsOnly,
};

/// Upper bound on TSim(o, q) for any object under a node with this summary.
double UpperBoundTSim(
    const SetSummary& s, const KeywordSet& query_doc,
    SetRBoundVariant variant = SetRBoundVariant::kLengthTightened);

/// Upper bound on ST(o, q) for any object under the node (rect + summary).
double UpperBoundScore(
    const Scorer& scorer, const Rect& mbr, const SetSummary& s,
    SetRBoundVariant variant = SetRBoundVariant::kLengthTightened);

/// The paper's engine: best-first search over the SetR-tree.
///
/// Determinism: equal-priority entries pop nodes before objects and objects
/// by ascending id, so results obey the ScoredObject ordering (D6) exactly.
class SetRTopKEngine {
 public:
  /// Both references must outlive the engine; the tree must index `store`.
  SetRTopKEngine(const ObjectStore& store, const SetRTree& tree)
      : store_(&store), tree_(&tree) {}

  /// Runs q against the index. Returns min(k, |D|) objects.
  TopKResult Query(const ::yask::Query& query,
                   TopKStats* stats = nullptr) const;

  /// Selects the node-bound flavour (default: length-tightened). Exposed for
  /// the D1 ablation benchmark; results are identical either way, only the
  /// amount of pruning differs.
  void set_bound_variant(SetRBoundVariant variant) { variant_ = variant; }

 private:
  const ObjectStore* store_;
  const SetRTree* tree_;
  SetRBoundVariant variant_ = SetRBoundVariant::kLengthTightened;
};

extern template class RTreeT<SetSummary>;

}  // namespace yask

#endif  // YASK_BENCH_BASELINES_SETR_TREE_H_
