#include "bench/baselines/text_model.h"

#include <algorithm>
#include <cmath>

namespace yask {

IdfTable::IdfTable(const ObjectStore& store)
    : corpus_size_(store.size()) {
  std::vector<size_t> df(store.vocab().size(), 0);
  for (const SpatialObject& o : store.objects()) {
    for (TermId t : o.doc) ++df[t];
  }
  idf_.resize(df.size());
  for (size_t t = 0; t < df.size(); ++t) {
    idf_[t] = df[t] == 0
                  ? 0.0
                  : std::log(1.0 + static_cast<double>(corpus_size_) /
                                       static_cast<double>(df[t]));
  }
}

double IdfTable::Norm(const KeywordSet& doc) const {
  double sum = 0.0;
  for (TermId t : doc) sum += SquaredIdf(t);
  return std::sqrt(sum);
}

double IdfTable::DotProduct(const KeywordSet& a, const KeywordSet& b) const {
  double sum = 0.0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      sum += SquaredIdf(*ia);
      ++ia;
      ++ib;
    }
  }
  return sum;
}

double CosineSimilarity(const KeywordSet& a, const KeywordSet& b,
                        const IdfTable& idf) {
  const double na = idf.Norm(a);
  const double nb = idf.Norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return std::min(1.0, idf.DotProduct(a, b) / (na * nb));
}

CosineScorer::CosineScorer(const ObjectStore& store, const IdfTable& idf,
                           const Query& query)
    : store_(&store),
      idf_(&idf),
      query_(&query),
      dist_norm_(store.BoundsDiagonal()),
      query_norm_(idf.Norm(query.doc)) {}

double CosineScorer::MaxSpatialComponent(const Rect& mbr) const {
  if (dist_norm_ <= 0.0) return 1.0;
  return 1.0 - std::min(1.0, mbr.MinDistance(query_->loc) / dist_norm_);
}

TopKResult CosineTopKScan(const ObjectStore& store, const IdfTable& idf,
                          const Query& query) {
  CosineScorer scorer(store, idf, query);
  TopKResult all;
  all.reserve(store.size());
  for (const SpatialObject& o : store.objects()) {
    all.push_back(ScoredObject{o.id, scorer.Score(o)});
  }
  const size_t k = std::min<size_t>(query.k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end());
  all.resize(k);
  return all;
}

}  // namespace yask
