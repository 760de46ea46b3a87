// Eqn. (3) sweep parity across layouts: for randomized datasets, shard
// counts (1/2/4/8) and routers, the segmented sweep (one
// ScorePlaneSession::CountAboveBatch fan-out per segment; segments double
// from 8 events) over a ShardedCorpus, and over the scanning baseline
// (ScanOracle), must return the BYTE-identical refinement the unsharded
// oracle returns — every refined-query field, every penalty term compared
// with ==, and identical crossing/candidate/fan-out counters — and that
// refinement must pass the index-free reference audit
// (tests/reference/whynot_reference.h).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/baselines/scan_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/whynot_oracle.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

/// Missing objects ranked just outside the top-k.
std::vector<ObjectId> PickMissing(const ObjectStore& store, const Query& q,
                                  size_t count, size_t offset) {
  Query probe = q;
  probe.k = static_cast<uint32_t>(q.k + offset + count + 5);
  const TopKResult wide = TopKScan(store, probe);
  std::vector<ObjectId> missing;
  for (size_t i = q.k + offset; i < wide.size() && missing.size() < count;
       ++i) {
    missing.push_back(wide[i].id);
  }
  return missing;
}

/// The layouts run the same schedule over the same partition-sums, so every
/// refinement field and every counter but each layout's own plane work
/// (index_nodes_visited) matches the unsharded oracle's exactly.
void ExpectSameRefinement(const RefinedPreferenceQuery& sharded,
                          const RefinedPreferenceQuery& unsharded,
                          const std::string& label) {
  EXPECT_EQ(sharded.already_in_result, unsharded.already_in_result) << label;
  EXPECT_EQ(sharded.refined.w.ws, unsharded.refined.w.ws) << label;
  EXPECT_EQ(sharded.refined.w.wt, unsharded.refined.w.wt) << label;
  EXPECT_EQ(sharded.refined.k, unsharded.refined.k) << label;
  EXPECT_EQ(sharded.refined.doc.ids(), unsharded.refined.doc.ids()) << label;
  EXPECT_EQ(sharded.original_rank, unsharded.original_rank) << label;
  EXPECT_EQ(sharded.refined_rank, unsharded.refined_rank) << label;
  EXPECT_EQ(sharded.penalty.value, unsharded.penalty.value) << label;
  EXPECT_EQ(sharded.penalty.k_term, unsharded.penalty.k_term) << label;
  EXPECT_EQ(sharded.penalty.mod_term, unsharded.penalty.mod_term) << label;
  EXPECT_EQ(sharded.penalty.delta_k, unsharded.penalty.delta_k) << label;
  EXPECT_EQ(sharded.penalty.delta_w, unsharded.penalty.delta_w) << label;
  EXPECT_EQ(sharded.penalty.delta_doc, unsharded.penalty.delta_doc) << label;
  EXPECT_EQ(sharded.stats.crossings_found, unsharded.stats.crossings_found)
      << label;
  EXPECT_EQ(sharded.stats.candidates_evaluated,
            unsharded.stats.candidates_evaluated)
      << label;
  EXPECT_EQ(sharded.stats.sweep_fanouts, unsharded.stats.sweep_fanouts)
      << label;
}

struct ParityOptions {
  std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  bool use_hash_router = false;
  int trials = 4;
};

struct Trial {
  Query query;
  std::vector<ObjectId> missing;
  RefinedPreferenceQuery unsharded;
};

void RunSweepParityTrials(const ObjectStore& store, uint64_t query_seed,
                          const ParityOptions& popt = {}) {
  const PreferenceAdjustOptions options;
  const double lambda = options.lambda;
  const LocalWhyNotOracle unsharded(store, /*rtree=*/nullptr);
  std::vector<Trial> trials;
  Rng rng(query_seed);
  for (int trial = 0; trial < popt.trials; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + trial % 3, &rng);
    q.k = 3 + static_cast<uint32_t>(rng.NextBounded(5));
    q.w = Weights::FromWs(rng.NextDouble(0.2, 0.8));
    const size_t m_count = 1 + trial % 2;
    std::vector<ObjectId> missing =
        PickMissing(store, q, m_count, /*offset=*/2 + trial);
    if (missing.size() != m_count) continue;
    // The reference audits the unsharded answer; every layout must then
    // repeat that answer exactly.
    auto baseline = AdjustPreference(unsharded, q, missing, options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    reference::ExpectPreferenceAnswer(
        store, q, missing, lambda, *baseline,
        reference::AuditPreference(store, q, missing, lambda),
        "unsharded trial " + std::to_string(trial));
    trials.push_back(
        Trial{q, std::move(missing), std::move(baseline).value()});
  }

  const ScanOracle scan(store);
  for (size_t t = 0; t < trials.size(); ++t) {
    const Trial& trial = trials[t];
    auto result = AdjustPreference(scan, trial.query, trial.missing, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRefinement(*result, trial.unsharded,
                         "scan trial " + std::to_string(t));
  }

  for (const uint32_t shards : popt.shard_counts) {
    std::unique_ptr<ShardRouter> router;
    if (popt.use_hash_router) {
      router = std::make_unique<HashShardRouter>(shards);
    } else {
      router = GridShardRouter::Fit(store, shards);
    }
    const std::string label = router->Describe();
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, std::move(router));
    const LocalWhyNotOracle oracle(sharded);

    for (size_t t = 0; t < trials.size(); ++t) {
      const Trial& trial = trials[t];
      const std::string tag = label + " trial " + std::to_string(t);
      auto result =
          AdjustPreference(oracle, trial.query, trial.missing, options);
      ASSERT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
      ExpectSameRefinement(*result, trial.unsharded, tag);
    }
  }
}

TEST(ShardedSweepParityTest, ClusteredSyntheticDataset) {
  DatasetSpec spec;
  spec.num_objects = 900;
  spec.vocabulary_size = 60;
  spec.min_keywords = 2;
  spec.max_keywords = 5;
  spec.seed = 281;
  RunSweepParityTrials(GenerateDataset(spec), /*query_seed=*/311);
}

TEST(ShardedSweepParityTest, HashRouterScatter) {
  // A locality-free router: every shard holds a slice of every
  // neighbourhood, so every segment fan-out genuinely merges all shards.
  DatasetSpec spec;
  spec.num_objects = 500;
  spec.vocabulary_size = 40;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 282;
  ParityOptions popt;
  popt.use_hash_router = true;
  popt.shard_counts = {2, 4, 8};
  RunSweepParityTrials(GenerateDataset(spec), /*query_seed=*/312, popt);
}

TEST(ShardedSweepParityTest, TieHeavyDegenerateDataset) {
  // Exact score ties everywhere: clones at shared points with shared docs.
  // The floor cut and the tie candidates (±kStepPastCrossing) must land
  // identically when fetched speculatively.
  ObjectStore store;
  const TermId a = store.mutable_vocab()->Intern("a");
  const TermId b = store.mutable_vocab()->Intern("b");
  const TermId c = store.mutable_vocab()->Intern("c");
  for (int i = 0; i < 240; ++i) {
    const double x = 0.1 + 0.2 * (i % 5);  // Five stacked columns.
    KeywordSet doc(i % 3 == 0   ? std::vector<TermId>{a}
                   : i % 3 == 1 ? std::vector<TermId>{a, b}
                                : std::vector<TermId>{b, c});
    store.Add(Point{x, 0.5}, std::move(doc), "clone");
  }
  ParityOptions popt;
  popt.trials = 3;
  RunSweepParityTrials(store, /*query_seed=*/314, popt);
}

TEST(ShardedSweepParityTest, HotelDemoDataset) {
  ParityOptions popt;
  popt.trials = 3;
  RunSweepParityTrials(GenerateHotelDataset(), /*query_seed=*/315, popt);
}

TEST(ShardedSweepParityTest, LambdaExtremesAgree) {
  // λ near 0 makes the feasible interval tiny (few events, floor cuts
  // early — over-fetch discard dominates); λ near 1 makes it huge (long
  // multi-segment sweeps). Both ends must stay bit-identical.
  DatasetSpec spec;
  spec.num_objects = 500;
  spec.vocabulary_size = 40;
  spec.seed = 284;
  const ObjectStore store = GenerateDataset(spec);
  const LocalWhyNotOracle unsharded(store, /*rtree=*/nullptr);
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  const LocalWhyNotOracle oracle(sharded);

  Rng rng(316);
  for (const double lambda : {0.05, 0.5, 0.95}) {
    for (int trial = 0; trial < 3; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      q.doc = SampleQueryKeywords(store, 2, &rng);
      q.k = 4;
      const std::vector<ObjectId> missing =
          PickMissing(store, q, 1, /*offset=*/2 + trial);
      if (missing.empty()) continue;

      PreferenceAdjustOptions options;
      options.lambda = lambda;
      auto baseline = AdjustPreference(unsharded, q, missing, options);
      auto result = AdjustPreference(oracle, q, missing, options);
      ASSERT_TRUE(baseline.ok());
      ASSERT_TRUE(result.ok());
      const std::string tag = "lambda " + std::to_string(lambda) +
                              " trial " + std::to_string(trial);
      reference::ExpectPreferenceAnswer(
          store, q, missing, lambda, *baseline,
          reference::AuditPreference(store, q, missing, lambda), tag);
      ExpectSameRefinement(*result, *baseline, tag);
    }
  }
}

}  // namespace
}  // namespace yask
