#include "bench/baselines/setr_tree.h"

#include <algorithm>
#include <queue>

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

TopKResult SetRTopKEngine::Query(const ::yask::Query& query,
                                 TopKStats* stats) const {
  Scorer scorer(*store_, query);
  TopKResult result;
  if (store_->empty() || query.k == 0 || tree_->empty()) return result;

  std::priority_queue<BestFirstEntry> pq;
  {
    const auto& root = tree_->node(tree_->root());
    pq.push(BestFirstEntry{
        UpperBoundScore(scorer, root.rect, root.summary, variant_), false,
        tree_->root()});
  }
  while (!pq.empty() && result.size() < query.k) {
    const BestFirstEntry top = pq.top();
    pq.pop();
    if (top.is_object) {
      result.push_back(ScoredObject{top.id, top.key});
      continue;
    }
    const auto& node = tree_->node(top.id);
    if (stats != nullptr) ++stats->nodes_popped;
    if (node.is_leaf) {
      for (const auto& e : node.entries) {
        if (stats != nullptr) ++stats->objects_scored;
        pq.push(BestFirstEntry{scorer.Score(e.id), true, e.id});
      }
    } else {
      for (const auto& e : node.entries) {
        const auto& child = tree_->node(e.id);
        pq.push(BestFirstEntry{
            UpperBoundScore(scorer, child.rect, child.summary, variant_),
            false, e.id});
      }
    }
  }
  return result;
}

template class RTreeT<SetSummary>;

}  // namespace yask
