#include "src/index/setr_tree.h"

#include <algorithm>

namespace yask {

double UpperBoundTSim(const SetSummary& s, const KeywordSet& query_doc,
                      SetRBoundVariant variant) {
  if (s.count == 0 || query_doc.empty()) return 0.0;
  // Numerator bound: |o ∩ q| <= |U ∩ q|.
  const size_t num = s.union_set.IntersectionSize(query_doc);
  if (num == 0) return 0.0;
  // Denominator: admissible lower bounds on |o ∪ q|; take the largest.
  //   (a) I ⊆ o  =>  |o ∪ q| >= |I ∪ q|
  //   (b) |o ∪ q| = |o| + |q| − |o∩q| >= max(min_len, c) + |q| − c, and the
  //       right-hand side is minimised at c = num (it is non-increasing in c
  //       while c <= min_len and constant after), so it stays valid.
  // Variant kSetsOnly uses only (a) — the summary the paper describes.
  size_t den = s.inter_set.UnionSize(query_doc);
  if (variant == SetRBoundVariant::kLengthTightened) {
    const size_t den_b =
        std::max<size_t>(s.min_doc_len, num) + query_doc.size() - num;
    den = std::max(den, den_b);
  }
  return std::min(1.0, static_cast<double>(num) / static_cast<double>(den));
}

double UpperBoundScore(const Scorer& scorer, const Rect& mbr,
                       const SetSummary& s, SetRBoundVariant variant) {
  const Query& q = scorer.query();
  return q.w.ws * scorer.MaxSpatialComponent(mbr) +
         q.w.wt * UpperBoundTSim(s, q.doc, variant);
}

template class RTreeT<SetSummary>;

}  // namespace yask
