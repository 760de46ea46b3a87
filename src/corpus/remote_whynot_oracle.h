// Copyright (c) 2026 The YASK reproduction authors.
// RemoteShardOracle: the WhyNotOracle seam over the wire — every per-shard
// primitive becomes one RPC per shard against yask_shard_server processes,
// merged with exactly the discipline of ShardedWhyNotOracle (counts sum,
// crossing sets union + sort + dedupe, KcR intervals sum elementwise).
// Because the shard servers run the same per-shard code
// (src/whynot/shard_primitives.h) and every double rides the wire as raw
// bits, a coordinator's /whynot answers are byte-identical to the
// in-process sharded path.
//
// Round-trip shape per why-not question (what the batch APIs buy):
//   * OutscoringCountBatch: one /shard/count per shard for ALL
//     (candidate, missing) pairs of a chunk;
//   * ProbeRankBatch: one /shard/probe/open per shard, then ONE
//     /shard/probe/refine per shard per refinement level across all live
//     candidates;
//   * the Eqn. (3) weight sweep holds one server-side plane session per
//     shard and pays one /shard/plane/count_batch round-trip per shard per
//     sweep SEGMENT (every candidate weight × missing object of the
//     segment; the segment size adapts to the observed RPC latency).
//
// Failure model: every stateless fan-out rides ReplicaSet::Call, which
// fails over to a sibling replica mid-call; the plane/probe sessions are
// replica-sticky id-keyed server-side state, so their failover re-opens the
// session on a live replica and REPLAYS the applied refine history before
// re-issuing the failed call (see ShardSessionChannel in the .cc) — a killed
// replica costs latency, never correctness. Only when every replica of a
// shard is gone does the wire failure bump the owning RemoteCorpus's error
// epoch (the oracle interface has no error channel) and contribute neutral
// values; YaskService samples the epoch around each request and answers 503.

#ifndef YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_
#define YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_

#include <memory>
#include <vector>

#include "src/corpus/remote_corpus.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

/// The corpus must outlive the oracle. ProbeRankBatch requires every remote
/// shard to carry its KcR-tree (corpus.has_kcr()).
class RemoteShardOracle : public WhyNotOracle {
 public:
  explicit RemoteShardOracle(const RemoteCorpus& corpus)
      : corpus_(&corpus), topk_(corpus) {}

  size_t size() const override { return corpus_->size(); }
  double dist_norm() const override { return corpus_->dist_norm(); }
  const SpatialObject& Object(ObjectId global_id) const override {
    return corpus_->Object(global_id);
  }

  TopKResult TopK(const Query& query, TopKStats* stats) const override {
    return topk_.Query(query, stats);
  }

  size_t Rank(const Query& query, ObjectId global_id) const override;
  std::vector<size_t> OutscoringCountBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override;
  std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const override;
  std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override;

  const RemoteCorpus& corpus() const { return *corpus_; }

 private:
  /// Batched /shard/count fan-out shared by Rank / OutscoringCountBatch.
  std::vector<size_t> CountFanout(const std::vector<OracleTargetSpec>& specs,
                                  uint8_t method) const;

  const RemoteCorpus* corpus_;
  RemoteTopKClient topk_;
};

}  // namespace yask

#endif  // YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_
