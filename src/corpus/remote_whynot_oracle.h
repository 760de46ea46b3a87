// Copyright (c) 2026 The YASK reproduction authors.
// RemoteShardOracle: the WhyNotOracle seam over the wire. It is
// FanOutWhyNotOracle — the one fan-out and merge every layout runs — over
// one remote OracleShard per shard (in the .cc): each per-shard primitive
// becomes RPCs to that shard's yask_shard_server replicas, whose replies are
// decoded and validated before the merge sees them. The shard servers run
// LocalOracleShard, the in-process backend, and every double rides the wire
// as raw bits, so a coordinator's /whynot answers are byte-identical to the
// in-process layouts.
//
// Round-trip shape per why-not question (what the batch APIs buy): the
// engine opens ONE server-side question session per shard
// (/shard/plane/open, closed with /shard/plane/close), and every stage runs
// over it:
//   * the explanations' ranks (all of M) and each Eqn. (4) rank fan-out
//     (ALL (candidate, missing) pairs of a chunk) are one /shard/plane/rank
//     per shard, answered exactly from the session's columns;
//   * explain's top-k of q and the refined query's result are one
//     /shard/plane/topk per shard each, also from the session: a /whynot
//     sends no /shard/topk;
//   * the Eqn. (3) weight sweep pays one /shard/plane/count_batch
//     round-trip per shard per sweep SEGMENT (every candidate weight ×
//     missing object of the segment), plus one /shard/plane/crossings per
//     missing object.
// Outside a question, a rank batch opens one one-call session per shard
// per distinct location of its specs (/shard/plane/open, /shard/plane/rank,
// /shard/plane/close). Spec lists longer than kMaxProbeSpecs, the cap a
// shard enforces, are split into requests.
// A /query's top-k is one /shard/topk per shard: the home shard's first,
// then the others with its k-th score as their prune threshold (the home
// shard is picked from the SetR root MBRs in the shard metas).
//
// Failure model: every stateless call rides ReplicaSet::Call, which fails
// over to a sibling replica mid-call; the question sessions are
// replica-sticky id-keyed server-side state, so their failover re-opens the
// session on a live replica before re-issuing the failed call
// (ShardSessionChannel in the .cc) — a killed replica costs latency, never
// correctness. A shard whose
// every replica is gone, or whose reply is malformed, fails its call; the
// merge then records the error with the RemoteCorpus error epoch (the oracle
// interface has no error channel) and adds nothing from that shard.
// YaskService samples the epoch around each request and answers 503.

#ifndef YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_
#define YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_

#include "src/corpus/remote_corpus.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

/// The corpus must outlive the oracle.
class RemoteShardOracle : public FanOutWhyNotOracle {
 public:
  explicit RemoteShardOracle(const RemoteCorpus& corpus);

  const SpatialObject& Object(ObjectId global_id) const override {
    return corpus_->Object(global_id);
  }

 private:
  const RemoteCorpus* corpus_;
};

}  // namespace yask

#endif  // YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_
