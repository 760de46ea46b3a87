#include "src/corpus/topk_fanout.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/trace.h"

namespace yask {

void MergeTopK(const TopKResult& part, size_t k, TopKResult* merged) {
  merged->insert(merged->end(), part.begin(), part.end());
  std::sort(merged->begin(), merged->end());
  if (merged->size() > k) merged->resize(k);
}

TopKResult FanOutTopK(const Query& query, size_t num_shards, ThreadPool* pool,
                      const ShardRootDistance& root_distance,
                      const ShardTopKSearch& search, TopKStats* stats) {
  if (query.k == 0) return {};  // Same guard as the unsharded engine.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t n = num_shards;
  std::vector<double> distance(n);
  for (size_t s = 0; s < n; ++s) distance[s] = root_distance(s);
  std::vector<TopKResult> parts(n);
  std::vector<TopKStats> part_stats(n);

  // Phase 1: the home shard, searched to completion. Its k-th score then
  // bounds what any other shard must beat: far shards usually stop at their
  // root, so a fan-out costs about one small-tree search instead of N.
  size_t home = 0;
  double best_distance = kInf;
  for (size_t s = 0; s < n; ++s) {
    if (distance[s] < best_distance) {
      best_distance = distance[s];
      home = s;
    }
  }
  parts[home] = search(home, -kInf, &part_stats[home]);

  TopKResult merged;
  auto merge_part = [&](size_t s) { MergeTopK(parts[s], query.k, &merged); };
  merge_part(home);
  auto threshold = [&] {
    return merged.size() == query.k ? merged.back().score : -kInf;
  };

  // Phase 2: the remaining shards, thresholded.
  std::vector<size_t> others;
  others.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    if (s != home) others.push_back(s);
  }
  if (!others.empty() && pool != nullptr) {
    // Parallel: every other shard searches against the home shard's k-th
    // score at once.
    const double prune_below = threshold();
    {
      ScopedSpan fanout_span("topk/fanout",
                             std::to_string(others.size()) + " shards");
      FanOut(pool, others, [&](size_t s) {
        parts[s] = search(s, prune_below, &part_stats[s]);
      });
    }
    ScopedSpan merge_span("topk/merge");
    for (const size_t s : others) merge_part(s);
  } else if (!others.empty()) {
    // Sequential: nearest shards first, each seeing the tightest threshold
    // yet.
    std::vector<std::pair<double, size_t>> order;
    order.reserve(others.size());
    for (const size_t s : others) order.emplace_back(distance[s], s);
    std::sort(order.begin(), order.end());
    for (const auto& [d, s] : order) {
      parts[s] = search(s, threshold(), &part_stats[s]);
      merge_part(s);
    }
  }

  if (stats != nullptr) {
    for (const TopKStats& ps : part_stats) {
      stats->nodes_popped += ps.nodes_popped;
      stats->objects_scored += ps.objects_scored;
    }
  }
  return merged;
}

}  // namespace yask
