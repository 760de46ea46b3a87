#include "src/query/topk_engine.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

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

namespace {

/// Priority-queue element of the best-first searches: a node or an object.
/// Ordering (via `operator<` for a max-heap): higher key first; at equal key
/// nodes before objects (a node may hide an equal-scored smaller-id object);
/// at equal key among objects, smaller id first.
struct QueueEntry {
  double key = 0.0;
  bool is_object = false;
  uint32_t id = 0;  // NodeId or ObjectId.

  bool operator<(const QueueEntry& other) const {
    if (key != other.key) return key < other.key;            // Max-heap.
    if (is_object != other.is_object) return is_object;      // Nodes first.
    if (is_object) return id > other.id;                     // Small id first.
    return id < other.id;
  }
};

/// Bounded result heap: keeps the k best ScoredObjects in D6 order.
class ResultHeap {
 public:
  explicit ResultHeap(size_t k) : k_(k) {}

  bool full() const { return items_.size() >= k_; }
  /// The currently worst kept row; only valid when full().
  const ScoredObject& worst() const { return items_.front(); }

  /// Offers a row; keeps it if it beats the current worst (or space remains).
  void Offer(const ScoredObject& so) {
    if (items_.size() < k_) {
      items_.push_back(so);
      std::push_heap(items_.begin(), items_.end(), Cmp());
    } else if (so < items_.front()) {
      std::pop_heap(items_.begin(), items_.end(), Cmp());
      items_.back() = so;
      std::push_heap(items_.begin(), items_.end(), Cmp());
    }
  }

  /// Sorted (best-first) extraction.
  TopKResult Take() {
    std::sort(items_.begin(), items_.end());
    return std::move(items_);
  }

 private:
  // Max-heap on "is better", so front() is the worst kept row.
  struct Cmp {
    bool operator()(const ScoredObject& a, const ScoredObject& b) const {
      return a < b;
    }
  };
  size_t k_;
  TopKResult items_;
};

}  // namespace

TopKResult SetRTopKEngine::Query(const ::yask::Query& query,
                                 double prune_below, TopKStats* stats) const {
  Scorer scorer = dist_norm_ >= 0.0 ? Scorer(*store_, query, dist_norm_)
                                    : Scorer(*store_, query);
  TopKResult result;
  if (store_->empty() || query.k == 0 || tree_->empty()) return result;

  std::priority_queue<QueueEntry> pq;
  {
    const auto& root = tree_->node(tree_->root());
    pq.push(QueueEntry{
        UpperBoundScore(scorer, root.rect, root.summary, variant_), false,
        tree_->root()});
  }
  while (!pq.empty() && result.size() < query.k) {
    const QueueEntry top = pq.top();
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
        pq.push(QueueEntry{scorer.Score(e.id), true, e.id});
      }
    } else {
      for (const auto& e : node.entries) {
        const auto& child = tree_->node(e.id);
        pq.push(QueueEntry{
            UpperBoundScore(scorer, child.rect, child.summary, variant_),
            false, e.id});
      }
    }
  }
  return result;
}

TopKResult InvertedTopKEngine::Query(const ::yask::Query& query,
                                     TopKStats* stats) const {
  Scorer scorer(*store_, query);
  const size_t k = std::min<size_t>(query.k, store_->size());
  if (k == 0) return {};

  // Phase 1: score every textual candidate (objects sharing >= 1 keyword).
  std::vector<ObjectId> candidates = inverted_->Candidates(query.doc);
  std::unordered_set<ObjectId> seen(candidates.begin(), candidates.end());
  ResultHeap heap(k);
  for (ObjectId id : candidates) {
    if (stats != nullptr) ++stats->objects_scored;
    heap.Offer(ScoredObject{id, scorer.Score(id)});
  }

  // Phase 2: best-first spatial sweep over the plain R-tree for the objects
  // phase 1 missed. Those have TSim == 0 exactly, so their score is
  // ws * (1 - SDist) and a node's contribution is bounded by
  // ws * MaxSpatialComponent(mbr). Stop when that cannot beat the k-th row.
  if (!rtree_->empty()) {
    std::priority_queue<QueueEntry> pq;
    {
      const auto& root = rtree_->node(rtree_->root());
      pq.push(QueueEntry{query.w.ws * scorer.MaxSpatialComponent(root.rect),
                         false, rtree_->root()});
    }
    while (!pq.empty()) {
      const QueueEntry top = pq.top();
      pq.pop();
      if (heap.full() && top.key < heap.worst().score) break;
      if (top.is_object) {
        // Key is the exact score (TSim == 0 for unseen objects).
        heap.Offer(ScoredObject{top.id, top.key});
        continue;
      }
      const auto& node = rtree_->node(top.id);
      if (stats != nullptr) ++stats->nodes_popped;
      if (node.is_leaf) {
        for (const auto& e : node.entries) {
          if (seen.count(e.id)) continue;  // Already scored in phase 1.
          if (stats != nullptr) ++stats->objects_scored;
          const double score =
              query.w.ws * (1.0 - scorer.SDist(store_->Get(e.id).loc));
          pq.push(QueueEntry{score, true, e.id});
        }
      } else {
        for (const auto& e : node.entries) {
          pq.push(QueueEntry{query.w.ws * scorer.MaxSpatialComponent(e.rect),
                             false, e.id});
        }
      }
    }
  }
  return heap.Take();
}

}  // namespace yask
