// Copyright (c) 2026 The YASK reproduction authors.
// ShardedWhyNotOracle: the WhyNotOracle seam implemented over a
// ShardedCorpus, making the why-not stack — explanations, preference
// adjustment, keyword adaption — exact on the scale-out layout.
//
// One LocalOracleShard per shard behind FanOutWhyNotOracle, whose fan-outs
// — the top-k query's and every why-not primitive's — run on the corpus's
// shared worker pool. Its merge keeps the discipline that makes sharded
// top-k bit-identical:
//   * scores use the GLOBAL SDist normaliser and the shared vocabulary, so
//     an object's score is the same doubles-arithmetic in both layouts;
//   * tie orders compare GLOBAL ids everywhere;
//   * outscoring counts SUM across shards (disjoint partition of one
//     predicate) — the scan counts and the question-column counts alike —
//     crossing-weight candidate sets UNION (then sort + dedupe), and top-k
//     rows merge under the ScoredObject order (src/corpus/sharded_corpus.h).
// The why-not algorithms run unchanged over this oracle, so a sharded
// service answers /whynot bit-identically to an unsharded replica
// (property-tested at 1/2/4/8 shards; bench_whynot_sharded gates on it).

#ifndef YASK_CORPUS_SHARDED_WHYNOT_ORACLE_H_
#define YASK_CORPUS_SHARDED_WHYNOT_ORACLE_H_

#include "src/corpus/sharded_corpus.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

/// The corpus must outlive the oracle.
class ShardedWhyNotOracle : public FanOutWhyNotOracle {
 public:
  explicit ShardedWhyNotOracle(const ShardedCorpus& corpus);

  const SpatialObject& Object(ObjectId global_id) const override {
    return corpus_->Object(global_id);
  }

 private:
  const ShardedCorpus* corpus_;
};

}  // namespace yask

#endif  // YASK_CORPUS_SHARDED_WHYNOT_ORACLE_H_
