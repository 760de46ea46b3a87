#include "bench/baselines/inverted_index.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "src/query/scoring.h"

namespace yask {

InvertedIndex::InvertedIndex(const ObjectStore& store) {
  postings_.resize(store.vocab().size());
  for (const SpatialObject& o : store.objects()) {
    for (TermId t : o.doc) {
      postings_[t].push_back(o.id);  // Ids ascend as objects are scanned.
    }
  }
}

const std::vector<ObjectId>& InvertedIndex::Postings(TermId term) const {
  if (term >= postings_.size()) return empty_;
  return postings_[term];
}

std::vector<ObjectId> InvertedIndex::Candidates(
    const KeywordSet& query_doc) const {
  std::vector<ObjectId> out;
  for (TermId t : query_doc) {
    const auto& list = Postings(t);
    out.insert(out.end(), list.begin(), list.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t InvertedIndex::DocumentFrequency(TermId term) const {
  return Postings(term).size();
}

size_t InvertedIndex::MemoryUsageBytes() const {
  size_t total = postings_.capacity() * sizeof(postings_[0]);
  for (const auto& list : postings_) {
    total += list.capacity() * sizeof(ObjectId);
  }
  return total;
}

namespace {

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
    std::priority_queue<BestFirstEntry> pq;
    {
      const auto& root = rtree_->node(rtree_->root());
      pq.push(BestFirstEntry{query.w.ws * scorer.MaxSpatialComponent(root.rect),
                         false, rtree_->root()});
    }
    while (!pq.empty()) {
      const BestFirstEntry top = pq.top();
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
          pq.push(BestFirstEntry{score, true, e.id});
        }
      } else {
        for (const auto& e : node.entries) {
          pq.push(BestFirstEntry{query.w.ws * scorer.MaxSpatialComponent(e.rect),
                             false, e.id});
        }
      }
    }
  }
  return heap.Take();
}

}  // namespace yask
