// Segmented Eqn. (3) sweep acceptance: for randomized datasets, shard
// counts (1/2/4/8), routers, modes and segment sizes, the speculative
// segment sweep (ScorePlaneSession::CountAboveBatch, one fan-out per
// segment) must return BYTE-identical refinements to the sweep with
// segments of one event — every refined-query field, every penalty term
// compared with ==, and identical crossing/candidate work counters — and
// that refinement must pass the index-free reference audit
// (tests/reference/whynot_reference.h). The only licensed difference is
// sweep_fanouts: longer segments must spend no more count fan-outs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/corpus/sharded_corpus.h"
#include "src/corpus/sharded_whynot_oracle.h"
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

/// `speculative` = the segment can cover more than one candidate, so counts
/// past the floor cut may be FETCHED (index nodes visited, rescans run) and
/// then discarded. The refinement and the crossing/candidate counters are
/// identical regardless; the traversal-work counters are identical only when
/// nothing is over-fetched (segments of one: pinned, or the basic-mode
/// default), and >= otherwise.
void ExpectSameRefinement(const RefinedPreferenceQuery& segmented,
                          const RefinedPreferenceQuery& one_event,
                          const std::string& label,
                          bool speculative = false) {
  EXPECT_EQ(segmented.already_in_result, one_event.already_in_result) << label;
  EXPECT_EQ(segmented.refined.w.ws, one_event.refined.w.ws) << label;
  EXPECT_EQ(segmented.refined.w.wt, one_event.refined.w.wt) << label;
  EXPECT_EQ(segmented.refined.k, one_event.refined.k) << label;
  EXPECT_EQ(segmented.refined.doc.ids(), one_event.refined.doc.ids()) << label;
  EXPECT_EQ(segmented.original_rank, one_event.original_rank) << label;
  EXPECT_EQ(segmented.refined_rank, one_event.refined_rank) << label;
  EXPECT_EQ(segmented.penalty.value, one_event.penalty.value) << label;
  EXPECT_EQ(segmented.penalty.k_term, one_event.penalty.k_term) << label;
  EXPECT_EQ(segmented.penalty.mod_term, one_event.penalty.mod_term) << label;
  EXPECT_EQ(segmented.penalty.delta_k, one_event.penalty.delta_k) << label;
  EXPECT_EQ(segmented.penalty.delta_w, one_event.penalty.delta_w) << label;
  EXPECT_EQ(segmented.penalty.delta_doc, one_event.penalty.delta_doc) << label;
  // The work the sweep does is identical — only how it is shipped differs.
  EXPECT_EQ(segmented.stats.crossings_found, one_event.stats.crossings_found)
      << label;
  EXPECT_EQ(segmented.stats.candidates_evaluated,
            one_event.stats.candidates_evaluated)
      << label;
  if (speculative) {
    EXPECT_GE(segmented.stats.index_nodes_visited,
              one_event.stats.index_nodes_visited)
        << label;
    EXPECT_GE(segmented.stats.full_rescans, one_event.stats.full_rescans)
        << label;
  } else {
    EXPECT_EQ(segmented.stats.index_nodes_visited,
              one_event.stats.index_nodes_visited)
        << label;
    EXPECT_EQ(segmented.stats.full_rescans, one_event.stats.full_rescans)
        << label;
  }
  EXPECT_LE(segmented.stats.sweep_fanouts, one_event.stats.sweep_fanouts)
      << label;
}

struct ParityOptions {
  std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  bool use_hash_router = false;
  int trials = 4;
  PrefAdjustMode mode = PrefAdjustMode::kOptimized;
  /// Segment sizes to sweep: 0 = the default schedule, else pinned.
  std::vector<size_t> segment_sizes = {0, 3, 64};
};

struct Trial {
  Query query;
  std::vector<ObjectId> missing;
  reference::PreferenceAudit audit;
};

void RunSweepParityTrials(const ObjectStore& store, uint64_t query_seed,
                          const ParityOptions& popt = {}) {
  const double lambda = PreferenceAdjustOptions{}.lambda;
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
    // The reference is layout-free: audit once, check every layout.
    reference::PreferenceAudit audit =
        reference::AuditPreference(store, q, missing, lambda);
    trials.push_back(Trial{q, std::move(missing), audit});
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
    const ShardedWhyNotOracle oracle(sharded);

    for (size_t t = 0; t < trials.size(); ++t) {
      const Trial& trial = trials[t];
      const std::string tag = label + " trial " + std::to_string(t);
      PreferenceAdjustOptions one_event;
      one_event.lambda = lambda;
      one_event.mode = popt.mode;
      one_event.sweep_batch_size = 1;
      auto baseline =
          AdjustPreference(oracle, trial.query, trial.missing, one_event);
      ASSERT_TRUE(baseline.ok())
          << tag << ": " << baseline.status().ToString();
      reference::ExpectPreferenceAnswer(store, trial.query, trial.missing,
                                        lambda, *baseline, trial.audit, tag);

      for (const size_t segment : popt.segment_sizes) {
        PreferenceAdjustOptions segmented = one_event;
        segmented.sweep_batch_size = segment;
        auto result =
            AdjustPreference(oracle, trial.query, trial.missing, segmented);
        ASSERT_TRUE(result.ok())
            << tag << ": " << result.status().ToString();
        ExpectSameRefinement(*result, *baseline,
                             tag + " segment " + std::to_string(segment),
                             /*speculative=*/segment > 1 ||
                                 (segment == 0 &&
                                  popt.mode == PrefAdjustMode::kOptimized));
      }
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

TEST(ShardedSweepParityTest, BasicModeAgrees) {
  // The paper's baseline (full rescan per candidate) batches too — and its
  // full_rescans meter must count the same logical rescans per pair.
  DatasetSpec spec;
  spec.num_objects = 400;
  spec.vocabulary_size = 30;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 283;
  ParityOptions popt;
  popt.mode = PrefAdjustMode::kBasic;
  popt.shard_counts = {1, 4};
  popt.trials = 3;
  RunSweepParityTrials(GenerateDataset(spec), /*query_seed=*/313, popt);
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
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  const ShardedWhyNotOracle oracle(sharded);

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

      PreferenceAdjustOptions one_event;
      one_event.lambda = lambda;
      one_event.sweep_batch_size = 1;
      PreferenceAdjustOptions segmented = one_event;
      segmented.sweep_batch_size = 7;
      auto baseline = AdjustPreference(oracle, q, missing, one_event);
      auto result = AdjustPreference(oracle, q, missing, segmented);
      ASSERT_TRUE(baseline.ok());
      ASSERT_TRUE(result.ok());
      reference::ExpectPreferenceAnswer(
          store, q, missing, lambda, *baseline,
          reference::AuditPreference(store, q, missing, lambda),
          "lambda " + std::to_string(lambda));
      ExpectSameRefinement(*result, *baseline,
                           "lambda " + std::to_string(lambda) + " trial " +
                               std::to_string(trial),
                           /*speculative=*/true);
    }
  }
}

}  // namespace
}  // namespace yask
