#include "src/corpus/sharded_whynot_oracle.h"

namespace yask {

namespace {

std::vector<std::unique_ptr<const OracleShard>> ShardsOf(
    const ShardedCorpus& corpus) {
  std::vector<std::unique_ptr<const OracleShard>> shards;
  shards.reserve(corpus.num_shards());
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    const Corpus& shard = corpus.shard(s);
    shards.push_back(std::make_unique<LocalOracleShard>(
        OracleShardView{&shard.store(), &corpus.shard_global_ids(s),
                        &shard.setr()},
        corpus.dist_norm()));
  }
  return shards;
}

}  // namespace

ShardedWhyNotOracle::ShardedWhyNotOracle(const ShardedCorpus& corpus)
    : FanOutWhyNotOracle(ShardsOf(corpus), corpus.dist_norm(), corpus.pool()),
      corpus_(&corpus) {}

}  // namespace yask
