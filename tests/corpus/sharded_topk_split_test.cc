// Split top-k property suite. A shard's top-k (LocalOracleShard::TopK)
// scores the objects holding a query term from the shard's keyword
// postings, and finds the rest, which score ws·(1 − SDist) exactly, by a
// best-first k-NN over the R-tree's MBRs. Through FanOutWhyNotOracle on
// 1, 2 and 4 shards (grid and hash routers) its rows must be bit-identical
// to the index-free reference::TopK and to TopKScan where the two halves
// meet: rare terms whose top-k is mostly non-holders, ws from 0 to 1, k
// past n, ties, empty docs, a 300-keyword object under a 300-keyword query,
// and an empty shard. A threshold equal to a row's score keeps that row.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/shard_primitives.h"
#include "src/whynot/whynot_oracle.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

void ExpectSameRows(const TopKResult& got, const TopKResult& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

std::string Describe(const Query& q) {
  return "ws=" + std::to_string(q.w.ws) + " k=" + std::to_string(q.k) +
         " |doc|=" + std::to_string(q.doc.size());
}

/// The store's terms from the rarest up (terms no object holds left out).
std::vector<TermId> TermsByRarity(const ObjectStore& store) {
  std::vector<size_t> df;
  for (const SpatialObject& o : store.objects()) {
    for (const TermId t : o.doc) {
      if (t >= df.size()) df.resize(t + 1, 0);
      ++df[t];
    }
  }
  std::vector<TermId> terms;
  for (TermId t = 0; t < df.size(); ++t) {
    if (df[t] > 0) terms.push_back(t);
  }
  std::stable_sort(terms.begin(), terms.end(),
                   [&](TermId a, TermId b) { return df[a] < df[b]; });
  return terms;
}

/// Queries over every weight and k of the suite: ws ∈ {0, 0.01, 0.5, 0.99,
/// 1} (and ws = wt = 0), k ∈ {1, 5, n, n + 5}, on docs of popular terms and
/// of the rarest terms, whose top-k is then mostly non-holders.
std::vector<Query> SuiteQueries(const ObjectStore& store, uint64_t seed) {
  const std::vector<TermId> rare = TermsByRarity(store);
  const uint32_t n = static_cast<uint32_t>(store.size());
  const uint32_t ks[] = {1, 5, n, n + 5};
  std::vector<Weights> weights;
  for (const double ws : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    weights.push_back(Weights::FromWs(ws));
  }
  weights.push_back(Weights{0.0, 0.0});
  Rng rng(seed);
  std::vector<Query> queries;
  for (int trial = 0; trial < 8; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    if (trial % 2 == 0 && !rare.empty()) {
      // One to three of the rarest terms.
      std::vector<TermId> terms;
      for (int i = 0; i <= trial % 3; ++i) {
        terms.push_back(rare[(trial / 2 + i) % rare.size()]);
      }
      q.doc = KeywordSet(terms);
    } else {
      q.doc = SampleQueryKeywords(store, 1 + trial % 3, &rng);
    }
    for (const Weights& w : weights) {
      for (const uint32_t k : ks) {
        q.w = w;
        q.k = k;
        queries.push_back(q);
      }
    }
  }
  return queries;
}

/// Every in-process layout of `store` (unsharded, and 1, 2 and 4 shards by
/// grid and hash routers) answers each query with reference::TopK's rows,
/// which TopKScan answers too.
void ExpectEveryLayout(const ObjectStore& store,
                       const std::vector<Query>& queries) {
  const Corpus corpus = CorpusBuilder().Build(ObjectStore(store));
  std::vector<ShardedCorpus> layouts;
  for (const uint32_t shards : {1u, 2u, 4u}) {
    layouts.push_back(
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards)));
    layouts.push_back(ShardedCorpus::Partition(
        store, std::make_unique<HashShardRouter>(shards)));
  }
  std::vector<std::unique_ptr<LocalWhyNotOracle>> oracles;
  std::vector<std::string> labels;
  oracles.push_back(std::make_unique<LocalWhyNotOracle>(corpus));
  labels.push_back("unsharded");
  for (const ShardedCorpus& layout : layouts) {
    oracles.push_back(std::make_unique<LocalWhyNotOracle>(layout));
    labels.push_back(layout.router_description());
  }
  for (const Query& q : queries) {
    const TopKResult want = reference::TopK(store, q);
    ExpectSameRows(TopKScan(store, q), want, "TopKScan " + Describe(q));
    for (size_t i = 0; i < oracles.size(); ++i) {
      ExpectSameRows(oracles[i]->TopK(q), want, labels[i] + " " + Describe(q));
    }
  }
}

TEST(SplitTopKTest, ClusteredDatasetWithRareTerms) {
  DatasetSpec spec;
  spec.num_objects = 1200;
  spec.vocabulary_size = 400;
  spec.seed = 2701;
  const ObjectStore store = GenerateDataset(spec);
  ExpectEveryLayout(store, SuiteQueries(store, 2702));
}

TEST(SplitTopKTest, RareTermTopKIsMostlyNonHolders) {
  DatasetSpec spec;
  spec.num_objects = 1500;
  spec.vocabulary_size = 500;
  spec.spatial = SpatialDistribution::kUniform;
  spec.seed = 2703;
  const ObjectStore store = GenerateDataset(spec);
  const std::vector<TermId> rare = TermsByRarity(store);
  Rng rng(2704);
  std::vector<Query> queries;
  size_t non_holder_rows = 0;
  size_t rows = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = KeywordSet({rare[trial]});
    q.k = trial % 2 == 0 ? 10 : 50;
    q.w = Weights::FromWs(trial % 4 < 2 ? 0.5 : 0.9);
    for (const ScoredObject& row : reference::TopK(store, q)) {
      ++rows;
      if (store.Get(row.id).doc.IntersectionSize(q.doc) == 0) {
        ++non_holder_rows;
      }
    }
    queries.push_back(q);
  }
  // The k-NN half answers most rows.
  EXPECT_GT(non_holder_rows * 2, rows);
  ExpectEveryLayout(store, queries);
}

TEST(SplitTopKTest, TieHeavyCorpusWithEmptyDocs) {
  // Clones: five shared points, three shared docs (one of them empty).
  ObjectStore store;
  const TermId a = store.mutable_vocab()->Intern("a");
  const TermId b = store.mutable_vocab()->Intern("b");
  const KeywordSet docs[] = {KeywordSet({a}), KeywordSet({a, b}),
                             KeywordSet()};
  for (int i = 0; i < 240; ++i) {
    store.Add(Point{0.1 + 0.2 * (i % 5), 0.5 + 0.1 * (i % 2)}, docs[i % 3],
              "clone");
  }
  std::vector<Query> queries = SuiteQueries(store, 2705);
  Query q;
  q.loc = Point{0.3, 0.5};
  for (const KeywordSet& doc : {KeywordSet({a}), KeywordSet({b}),
                                KeywordSet({a, b}), KeywordSet()}) {
    for (const uint32_t k : {1u, 5u, 80u, 245u}) {
      q.doc = doc;
      q.k = k;
      queries.push_back(q);
    }
  }
  ExpectEveryLayout(store, queries);
}

TEST(SplitTopKTest, ThreeHundredKeywordsDoNotWrapTheMatchCount) {
  DatasetSpec spec;
  spec.num_objects = 400;
  spec.vocabulary_size = 300;
  spec.seed = 2706;
  ObjectStore store = GenerateDataset(spec);
  std::vector<TermId> all(300);
  for (TermId t = 0; t < 300; ++t) all[t] = t;
  const ObjectId big = store.Add(Point{0.9, 0.9}, KeywordSet(all), "big");
  Query q;
  q.loc = Point{0.1, 0.1};
  q.doc = KeywordSet(all);
  q.k = 5;
  const TopKResult want = reference::TopK(store, q);
  // |o.doc ∩ q| = 300 for the big object: Jaccard 1, the top row.
  ASSERT_EQ(want.front().id, big);
  std::vector<Query> queries = {q};
  q.w = Weights::FromWs(0.99);
  queries.push_back(q);
  q.doc = KeywordSet(std::vector<TermId>(all.begin(), all.begin() + 290));
  queries.push_back(q);
  ExpectEveryLayout(store, queries);
}

/// Routes the left half of the unit square to shard 0 and the rest to
/// shard 1 of three: shard 2 stays empty.
class TwoOfThreeRouter final : public ShardRouter {
 public:
  uint32_t num_shards() const override { return 3; }
  uint32_t Route(const Point& loc) const override {
    return loc.x < 0.5 ? 0 : 1;
  }
  std::string Describe() const override { return "two-of-three"; }
};

TEST(SplitTopKTest, EmptyShardAnswersNothing) {
  DatasetSpec spec;
  spec.num_objects = 500;
  spec.vocabulary_size = 60;
  spec.spatial = SpatialDistribution::kUniform;
  spec.seed = 2707;
  const ObjectStore store = GenerateDataset(spec);
  const ShardedCorpus sharded = ShardedCorpus::Partition(
      store, std::make_unique<TwoOfThreeRouter>());
  ASSERT_EQ(sharded.shard(2).size(), 0u);
  const LocalWhyNotOracle oracle(sharded);
  for (const Query& q : SuiteQueries(store, 2708)) {
    ExpectSameRows(oracle.TopK(q), reference::TopK(store, q), Describe(q));
  }

  const Corpus& empty = sharded.shard(2);
  const OracleShardView view{&empty.store(), &sharded.shard_global_ids(2),
                             &empty.rtree()};
  const LocalOracleShard shard(view, sharded.dist_norm());
  Query q;
  q.doc = KeywordSet({0});
  TopKStats stats;
  const Result<TopKResult> rows =
      shard.TopK(q, -std::numeric_limits<double>::infinity(), &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
  EXPECT_EQ(stats.nodes_popped, 0u);
  EXPECT_EQ(stats.objects_scored, 0u);
  EXPECT_EQ(shard.RootDistance(q.loc), std::numeric_limits<double>::infinity());
}

TEST(SplitTopKTest, ThresholdEqualToARowKeepsThatRow) {
  DatasetSpec spec;
  spec.num_objects = 1000;
  spec.vocabulary_size = 300;
  spec.seed = 2709;
  const ObjectStore store = GenerateDataset(spec);
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  const std::vector<TermId> rare = TermsByRarity(store);
  Rng rng(2710);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const Corpus& part = sharded.shard(s);
    const OracleShardView view{&part.store(), &sharded.shard_global_ids(s),
                               &part.rtree()};
    const LocalOracleShard shard(view, sharded.dist_norm());
    for (int trial = 0; trial < 12; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      // Rare terms put non-holders among the rows, so both halves' stop
      // tests meet a threshold equal to one of their rows.
      q.doc = trial % 2 == 0 ? KeywordSet({rare[trial]})
                             : SampleQueryKeywords(store, 2, &rng);
      q.k = 20;
      const TopKResult full =
          shard.TopK(q, -std::numeric_limits<double>::infinity(), nullptr)
              .value();
      ASSERT_FALSE(full.empty());
      for (size_t i = 0; i < full.size(); ++i) {
        const double threshold = full[i].score;
        const TopKResult cut = shard.TopK(q, threshold, nullptr).value();
        // Every row scoring at least the threshold comes back, in order;
        // a row below it may be left out.
        size_t kept = 0;
        while (kept < full.size() && full[kept].score >= threshold) ++kept;
        ASSERT_GE(cut.size(), kept) << "shard " << s << " row " << i;
        ASSERT_LE(cut.size(), full.size());
        ExpectSameRows(TopKResult(cut.begin(), cut.begin() + kept),
                       TopKResult(full.begin(), full.begin() + kept),
                       "shard " + std::to_string(s) + " row " +
                           std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace yask
