#include "src/corpus/sharded_whynot_oracle.h"

namespace yask {

ShardedWhyNotOracle::ShardedWhyNotOracle(const ShardedCorpus& corpus)
    : corpus_(&corpus), topk_(corpus) {
  ctx_.views.reserve(corpus.num_shards());
  ctx_.all_shards.reserve(corpus.num_shards());
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    const Corpus& shard = corpus.shard(s);
    ctx_.views.push_back(OracleShardView{
        &shard.store(), &shard.setr(), &corpus.shard_global_ids(s)});
    ctx_.all_shards.push_back(s);
  }
  ctx_.dist_norm = corpus.dist_norm();
  ctx_.pool = corpus.pool();
}

TopKResult ShardedWhyNotOracle::TopK(const Query& query,
                                     TopKStats* stats) const {
  return topk_.Query(query, stats);
}

}  // namespace yask
