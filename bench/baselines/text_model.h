// Copyright (c) 2026 The YASK reproduction authors.
// Alternative textual relevance model: idf-weighted cosine similarity.
//
// The paper adopts Jaccard similarity "without loss of generality" and notes
// that "other textual similarity models can also be supported" (§2.1,
// footnote 1). This module provides the classic IR model used by the
// original IR-tree engine of Cong et al. [4]: documents and queries as
// binary term vectors weighted by inverse document frequency,
//
//   TSimCos(o, q) = Σ_{t ∈ o.doc ∩ q.doc} idf(t)²  /  (‖o‖ · ‖q‖) ,
//   ‖x‖ = sqrt(Σ_{t ∈ x} idf(t)²) ,  idf(t) = ln(1 + N / df(t)) .
//
// By Cauchy-Schwarz the similarity lies in [0, 1], so it drops into Eqn. (1)
// unchanged. CosineScorer mirrors Scorer for this model; the IR-tree
// (bench/baselines/ir_tree.h) provides the matching node score bounds.

#ifndef YASK_BENCH_BASELINES_TEXT_MODEL_H_
#define YASK_BENCH_BASELINES_TEXT_MODEL_H_

#include <vector>

#include "src/common/keyword_set.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/storage/object_store.h"

namespace yask {

/// Corpus-level idf statistics; build once per store, immutable afterwards.
class IdfTable {
 public:
  explicit IdfTable(const ObjectStore& store);

  /// idf(t) = ln(1 + N / df(t)); 0 for terms absent from the corpus.
  double Idf(TermId t) const {
    return t < idf_.size() ? idf_[t] : 0.0;
  }
  double SquaredIdf(TermId t) const {
    const double v = Idf(t);
    return v * v;
  }

  /// Vector norm of a keyword set under this idf weighting.
  double Norm(const KeywordSet& doc) const;

  /// Σ idf(t)² over doc ∩ other (the cosine numerator).
  double DotProduct(const KeywordSet& a, const KeywordSet& b) const;

  size_t corpus_size() const { return corpus_size_; }

 private:
  std::vector<double> idf_;
  size_t corpus_size_;
};

/// TSimCos as defined above; 0 when either side is empty/unweighted.
double CosineSimilarity(const KeywordSet& a, const KeywordSet& b,
                        const IdfTable& idf);

/// Eqn. (1) with the cosine text model: ws·(1−SDist) + wt·TSimCos.
class CosineScorer {
 public:
  CosineScorer(const ObjectStore& store, const IdfTable& idf,
               const Query& query);

  double SDist(const Point& loc) const {
    return NormalizedSpatialDistance(loc, query_->loc, dist_norm_);
  }
  double TSim(const KeywordSet& doc) const {
    return CosineSimilarity(doc, query_->doc, *idf_);
  }
  double Score(const SpatialObject& o) const {
    return query_->w.ws * (1.0 - SDist(o.loc)) + query_->w.wt * TSim(o.doc);
  }
  double Score(ObjectId id) const { return Score(store_->Get(id)); }

  double MaxSpatialComponent(const Rect& mbr) const;

  const Query& query() const { return *query_; }
  const IdfTable& idf() const { return *idf_; }
  /// ‖q.doc‖, precomputed.
  double query_norm() const { return query_norm_; }

 private:
  const ObjectStore* store_;
  const IdfTable* idf_;
  const Query* query_;
  double dist_norm_;
  double query_norm_;
};

/// Reference top-k under the cosine model: score all, partial sort.
TopKResult CosineTopKScan(const ObjectStore& store, const IdfTable& idf,
                          const Query& query);

}  // namespace yask

#endif  // YASK_BENCH_BASELINES_TEXT_MODEL_H_
