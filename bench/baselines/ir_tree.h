// Copyright (c) 2026 The YASK reproduction authors.
// The IR-tree (Cong, Jensen, Wu, PVLDB 2009, the paper's ref [4]): the index
// family YASK's top-k engine descends from. The original augments each
// R-tree node with a pseudo-document holding, per term, the maximum term
// weight among the node's children; best-first search uses it to bound the
// textual relevance of any object below the node.
//
// With binary term frequencies and a global idf weighting (the text model in
// bench/baselines/text_model.h), the per-term maximum weight below a node is
// simply idf(t) whenever t occurs anywhere below — so the pseudo-document
// reduces to the union term set plus the minimum positive document norm
// below the node (for the cosine denominator). This keeps the IR-tree node
// summary equivalent to the original's bound but cheaper to store.
//
// Bound: for any object o under node N,
//   TSimCos(o, q) = dot(o,q)/(‖o‖‖q‖) <= Σ_{t ∈ U_N ∩ q} idf(t)²
//                                         / (‖q‖ · min_pos_norm_N)
// (objects with zero norm have similarity 0 and cannot exceed it).
//
// YASK itself swaps this index for the SetR-tree because the IR-tree bound
// does not transfer to Jaccard similarity (§3.3); both are provided so that
// the trade-off is reproducible (bench_topk).

#ifndef YASK_BENCH_BASELINES_IR_TREE_H_
#define YASK_BENCH_BASELINES_IR_TREE_H_

#include <limits>

#include "src/common/keyword_set.h"
#include "src/index/rtree.h"
#include "bench/baselines/text_model.h"
#include "src/query/topk_engine.h"

namespace yask {

/// Node summary of the IR-tree; carries the idf table as injected context
/// (see RTreeT's `prototype` constructor parameter).
struct IrSummary {
  /// The context-injecting prototype for RTreeT:
  ///   IrTree tree(&store, {}, IrSummary::WithIdf(&idf));
  static IrSummary WithIdf(const IdfTable* table) {
    IrSummary s;
    s.idf = table;
    return s;
  }

  const IdfTable* idf = nullptr;
  KeywordSet union_set;
  /// Minimum positive document norm below the node; +inf when every
  /// document below is empty (or the node is empty).
  double min_pos_norm = std::numeric_limits<double>::infinity();
  uint32_t count = 0;

  /// Keeps the injected idf context (contract with RTreeT).
  void Clear() {
    union_set = KeywordSet();
    min_pos_norm = std::numeric_limits<double>::infinity();
    count = 0;
  }

  void AddObject(const SpatialObject& o) {
    union_set = count == 0 ? o.doc : KeywordSet::Union(union_set, o.doc);
    const double norm = idf->Norm(o.doc);
    if (norm > 0.0) min_pos_norm = std::min(min_pos_norm, norm);
    ++count;
  }

  void Merge(const IrSummary& other) {
    if (other.count == 0) return;
    if (count == 0) {
      union_set = other.union_set;
    } else {
      union_set = KeywordSet::Union(union_set, other.union_set);
    }
    min_pos_norm = std::min(min_pos_norm, other.min_pos_norm);
    count += other.count;
  }

  bool Equals(const IrSummary& other) const {
    return count == other.count && min_pos_norm == other.min_pos_norm &&
           union_set == other.union_set;
  }

  size_t MemoryBytes() const { return union_set.size() * sizeof(TermId); }
};

/// The IR-tree index. Construct with the idf prototype:
///   IrTree tree(&store, {}, IrSummary::WithIdf(&idf));
using IrTree = RTreeT<IrSummary>;

/// Upper bound on TSimCos(o, q) for any object under the node.
double UpperBoundCosineTSim(const IrSummary& s, const CosineScorer& scorer);

/// Upper bound on the full cosine-model score for any object under the node.
double UpperBoundCosineScore(const CosineScorer& scorer, const Rect& mbr,
                             const IrSummary& s);

/// Best-first top-k under the cosine text model over the IR-tree; the
/// counterpart of SetRTopKEngine for this model.
class IrTopKEngine {
 public:
  IrTopKEngine(const ObjectStore& store, const IdfTable& idf,
               const IrTree& tree)
      : store_(&store), idf_(&idf), tree_(&tree) {}

  TopKResult Query(const ::yask::Query& query,
                   TopKStats* stats = nullptr) const;

 private:
  const ObjectStore* store_;
  const IdfTable* idf_;
  const IrTree* tree_;
};

extern template class RTreeT<IrSummary>;

}  // namespace yask

#endif  // YASK_BENCH_BASELINES_IR_TREE_H_
