#include "src/query/ranking.h"

namespace yask {

size_t ComputeRankScan(const ObjectStore& store, const Query& query,
                       ObjectId target) {
  Scorer scorer(store, query);
  const double target_score = scorer.Score(target);
  size_t above = 0;
  for (const SpatialObject& o : store.objects()) {
    if (o.id == target) continue;
    if (OutranksTarget(scorer.Score(o), o.id, target_score, target)) ++above;
  }
  return above + 1;
}

}  // namespace yask
