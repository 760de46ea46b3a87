#include "src/query/topk_engine.h"

#include <algorithm>
#include <queue>

namespace yask {

TopKResult TopKScan(const ObjectStore& store, const Query& query,
                    TopKStats* stats) {
  Scorer scorer(store, query);
  TopKResult all;
  all.reserve(store.size());
  for (const SpatialObject& o : store.objects()) {
    all.push_back(ScoredObject{o.id, scorer.Score(o)});
  }
  if (stats != nullptr) stats->objects_scored += store.size();
  const size_t k = std::min<size_t>(query.k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end());
  all.resize(k);
  return all;
}

TopKResult SetRTopKEngine::Query(const ::yask::Query& query,
                                 double prune_below, TopKStats* stats) const {
  Scorer scorer = dist_norm_ >= 0.0 ? Scorer(*store_, query, dist_norm_)
                                    : Scorer(*store_, query);
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
    // The frontier maximum bounds everything still reachable: strictly below
    // the threshold means nothing left can matter to the caller.
    if (top.key < prune_below) break;
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

}  // namespace yask
