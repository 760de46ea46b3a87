#include "src/index/inverted_index.h"

#include <algorithm>

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

}  // namespace yask
