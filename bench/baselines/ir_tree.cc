#include "bench/baselines/ir_tree.h"

#include <queue>

namespace yask {

double UpperBoundCosineTSim(const IrSummary& s, const CosineScorer& scorer) {
  if (s.count == 0 || scorer.query_norm() == 0.0 ||
      s.min_pos_norm == std::numeric_limits<double>::infinity()) {
    return 0.0;
  }
  const double num = scorer.idf().DotProduct(s.union_set, scorer.query().doc);
  if (num <= 0.0) return 0.0;
  return std::min(1.0, num / (scorer.query_norm() * s.min_pos_norm));
}

double UpperBoundCosineScore(const CosineScorer& scorer, const Rect& mbr,
                             const IrSummary& s) {
  const Query& q = scorer.query();
  return q.w.ws * scorer.MaxSpatialComponent(mbr) +
         q.w.wt * UpperBoundCosineTSim(s, scorer);
}

TopKResult IrTopKEngine::Query(const ::yask::Query& query,
                               TopKStats* stats) const {
  CosineScorer scorer(*store_, *idf_, query);
  TopKResult result;
  if (store_->empty() || query.k == 0 || tree_->empty()) return result;

  std::priority_queue<BestFirstEntry> pq;
  {
    const auto& root = tree_->node(tree_->root());
    pq.push(BestFirstEntry{UpperBoundCosineScore(scorer, root.rect, root.summary),
                       false, tree_->root()});
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
            UpperBoundCosineScore(scorer, child.rect, child.summary), false,
            e.id});
      }
    }
  }
  return result;
}

template class RTreeT<IrSummary>;

}  // namespace yask
