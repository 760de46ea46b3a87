#include "src/query/topk_engine.h"

#include <algorithm>

#include "src/query/scoring.h"

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

}  // namespace yask
