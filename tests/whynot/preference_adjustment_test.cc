#include "src/whynot/preference_adjustment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "src/index/setr_tree.h"
#include "src/query/ranking.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

ObjectStore MakeStore(size_t n, uint64_t seed) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.vocabulary_size = 60;
  return GenerateDataset(spec);
}

/// Picks a missing-object set: objects ranked just outside the top-k.
std::vector<ObjectId> PickMissing(const ObjectStore& store, const Query& q,
                                  size_t count, size_t offset = 3) {
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

TEST(AdjustPreferenceTest, RejectsInvalidInput) {
  const ObjectStore store = MakeStore(100, 1);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 3;
  EXPECT_FALSE(AdjustPreference(store, q, {}).ok());           // Empty M.
  EXPECT_FALSE(AdjustPreference(store, q, {999999}).ok());     // Unknown id.
  Query bad = q;
  bad.doc = KeywordSet();
  EXPECT_FALSE(AdjustPreference(store, bad, {1}).ok());        // Invalid q.
  PreferenceAdjustOptions opts;
  opts.lambda = 1.5;
  EXPECT_FALSE(AdjustPreference(store, q, {1}, opts).ok());    // Bad lambda.
}

TEST(AdjustPreferenceTest, AlreadyInResult) {
  const ObjectStore store = MakeStore(200, 2);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0, 1});
  q.k = 10;
  const TopKResult top = TopKScan(store, q);
  auto result = AdjustPreference(store, q, {top[2].id});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->already_in_result);
  EXPECT_DOUBLE_EQ(result->penalty.value, 0.0);
  EXPECT_EQ(result->refined.k, q.k);
  EXPECT_EQ(result->refined.w, q.w);
}

TEST(AdjustPreferenceTest, RefinedQueryRevivesMissingObject) {
  const ObjectStore store = MakeStore(1000, 3);
  Query q;
  q.loc = Point{0.4, 0.6};
  q.doc = KeywordSet({0, 1, 2});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());

  auto result = AdjustPreference(store, q, missing);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->already_in_result);

  // The revival guarantee: all missing objects inside the refined top-k'.
  const TopKResult refined = TopKScan(store, result->refined);
  std::set<ObjectId> ids;
  for (const ScoredObject& so : refined) ids.insert(so.id);
  for (ObjectId m : missing) {
    EXPECT_TRUE(ids.count(m)) << "missing object " << m << " not revived";
  }
}

TEST(AdjustPreferenceTest, PenaltyNeverExceedsLambda) {
  // The pure-k refinement costs exactly λ, so the optimum is <= λ.
  const ObjectStore store = MakeStore(500, 4);
  Rng rng(11);
  for (double lambda : {0.1, 0.5, 0.9}) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 5;
    const std::vector<ObjectId> missing = PickMissing(store, q, 1);
    if (missing.empty()) continue;
    PreferenceAdjustOptions opts;
    opts.lambda = lambda;
    auto result = AdjustPreference(store, q, missing, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->penalty.value, lambda + 1e-12);
  }
}

TEST(AdjustPreferenceTest, LambdaZeroKeepsWeights) {
  // λ=0: modifying w is pure cost, enlarging k is free => keep w, k'=R0.
  const ObjectStore store = MakeStore(400, 5);
  Query q;
  q.loc = Point{0.3, 0.3};
  q.doc = KeywordSet({0, 1});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  PreferenceAdjustOptions opts;
  opts.lambda = 0.0;
  auto result = AdjustPreference(store, q, missing, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->refined.w, q.w);
  EXPECT_EQ(result->refined.k, result->original_rank);
  EXPECT_DOUBLE_EQ(result->penalty.value, 0.0);
}

TEST(AdjustPreferenceTest, LambdaOneSearchesTheFullInterval) {
  // λ=1: only ∆k matters, the feasible interval is all of (0,1), and the
  // optimum is the weight minimising the missing object's rank. The returned
  // rank must therefore be minimal over a dense weight grid.
  const ObjectStore store = MakeStore(300, 12);
  Query q;
  q.loc = Point{0.45, 0.55};
  q.doc = KeywordSet({0, 1});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  PreferenceAdjustOptions opts;
  opts.lambda = 1.0;
  auto result = AdjustPreference(store, q, missing, opts);
  ASSERT_TRUE(result.ok());

  const auto pts = BuildPlanePoints(store, q);
  const PlanePoint& anchor = pts[missing[0]];
  for (int i = 1; i < 200; ++i) {
    const double w = i / 200.0;
    size_t above = 0;
    for (const PlanePoint& p : pts) {
      if (p.id == anchor.id) continue;
      const double s = p.ScoreAt(w);
      const double t = anchor.ScoreAt(w);
      if (s > t || (s == t && p.id < anchor.id)) ++above;
    }
    EXPECT_GE(above + 1, result->refined_rank)
        << "w=" << w << " gives a better rank than the λ=1 optimum";
  }
  // And the revival guarantee still holds.
  const TopKResult refined = TopKScan(store, result->refined);
  bool revived = false;
  for (const ScoredObject& so : refined) {
    if (so.id == missing[0]) revived = true;
  }
  EXPECT_TRUE(revived);
}

TEST(AdjustPreferenceTest, RefinedRankConsistent) {
  const ObjectStore store = MakeStore(600, 6);
  SetRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.6, 0.4};
  q.doc = KeywordSet({1, 2});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 2);
  ASSERT_EQ(missing.size(), 2u);
  auto result = AdjustPreference(store, q, missing);
  ASSERT_TRUE(result.ok());
  // Reported ranks match independent recomputation.
  EXPECT_EQ(result->original_rank, LowestRank(store, tree, q, missing));
  EXPECT_EQ(result->refined_rank,
            LowestRank(store, tree, result->refined, missing));
  EXPECT_EQ(result->refined.k,
            std::max<size_t>(q.k, result->refined_rank));
}

// The paper's basic and optimized algorithms must return identical
// refinements across shapes, λs and |M|.
class PrefModesAgree
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, size_t>> {};

TEST_P(PrefModesAgree, BasicEqualsOptimized) {
  const auto [seed, lambda, m_count] = GetParam();
  const ObjectStore store = MakeStore(400, seed);
  Rng rng(seed * 13 + 5);
  for (int trial = 0; trial < 4; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(3), &rng);
    q.k = 3 + static_cast<uint32_t>(rng.NextBounded(5));
    q.w = Weights::FromWs(rng.NextDouble(0.2, 0.8));
    const std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() != m_count) continue;

    PreferenceAdjustOptions basic;
    basic.lambda = lambda;
    basic.mode = PrefAdjustMode::kBasic;
    PreferenceAdjustOptions optimized;
    optimized.lambda = lambda;
    optimized.mode = PrefAdjustMode::kOptimized;

    auto rb = AdjustPreference(store, q, missing, basic);
    auto ro = AdjustPreference(store, q, missing, optimized);
    ASSERT_TRUE(rb.ok());
    ASSERT_TRUE(ro.ok());
    EXPECT_EQ(rb->already_in_result, ro->already_in_result);
    if (rb->already_in_result) continue;
    EXPECT_EQ(rb->original_rank, ro->original_rank);
    EXPECT_NEAR(rb->penalty.value, ro->penalty.value, 1e-12)
        << "seed=" << seed << " lambda=" << lambda << " trial=" << trial;
    EXPECT_DOUBLE_EQ(rb->refined.w.ws, ro->refined.w.ws);
    EXPECT_EQ(rb->refined.k, ro->refined.k);
    EXPECT_EQ(rb->refined_rank, ro->refined_rank);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrefModesAgree,
    ::testing::Combine(::testing::Values(1, 7, 21),
                       ::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(1u, 2u, 3u)));

// Global optimality audit: the returned penalty must not beat any candidate
// on a dense grid of weights (each grid point evaluated exactly).
class PrefOptimalityAudit : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefOptimalityAudit, NoGridPointBeatsReturnedPenalty) {
  const ObjectStore store = MakeStore(300, GetParam());
  Rng rng(GetParam() ^ 0xA0A0);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 2, &rng);
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  PreferenceAdjustOptions opts;
  opts.lambda = 0.5;
  auto result = AdjustPreference(store, q, missing, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->already_in_result);

  const auto pts = BuildPlanePoints(store, q);
  const size_t r0 = result->original_rank;
  for (int i = 1; i < 500; ++i) {
    const double w = i / 500.0;
    // Exact rank at w.
    const PlanePoint& anchor = pts[missing[0]];
    const double threshold = anchor.ScoreAt(w);
    size_t above = 0;
    for (const PlanePoint& p : pts) {
      if (p.id == anchor.id) continue;
      const double s = p.ScoreAt(w);
      if (s > threshold || (s == threshold && p.id < anchor.id)) ++above;
    }
    const PenaltyBreakdown pen =
        PreferencePenalty(opts.lambda, q, Weights::FromWs(w), r0, above + 1);
    // Tolerance matches the module's documented ∆w resolution (crossings are
    // sampled a fixed 1e-7 past their algebraic weight).
    EXPECT_GE(pen.value, result->penalty.value - 1e-6)
        << "grid w=" << w << " beats the returned optimum";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefOptimalityAudit,
                         ::testing::Values(2, 13, 29));

TEST(AdjustPreferenceTest, StatsPopulatedInOptimizedMode) {
  const ObjectStore store = MakeStore(500, 8);
  Query q;
  q.loc = Point{0.2, 0.8};
  q.doc = KeywordSet({0, 3});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto result = AdjustPreference(store, q, missing);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates_evaluated, 0u);
  EXPECT_GT(result->stats.index_nodes_visited, 0u);
  EXPECT_EQ(result->stats.full_rescans, 0u);
}

TEST(AdjustPreferenceTest, EverySegmentSizeMatchesReference) {
  // The speculative segment sweep must return the byte-identical refinement
  // and identical crossing/candidate counters at every segment size — the
  // floor cut discards over-fetched counts deterministically — and that
  // refinement must pass the index-free reference audit. Segments of one
  // event fetch exactly what the sweep evaluates, so they set the baseline.
  const ObjectStore store = MakeStore(600, 10);
  Rng rng(17);
  for (double lambda : {0.2, 0.5, 0.8}) {
    for (int trial = 0; trial < 3; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      q.doc = SampleQueryKeywords(store, 2, &rng);
      q.k = 4;
      const std::vector<ObjectId> missing = PickMissing(store, q, 1 + trial % 2);
      if (missing.empty()) continue;
      const std::string base_tag = "lambda=" + std::to_string(lambda) +
                                   " trial=" + std::to_string(trial);

      PreferenceAdjustOptions one;
      one.lambda = lambda;
      one.sweep_batch_size = 1;
      auto baseline = AdjustPreference(store, q, missing, one);
      ASSERT_TRUE(baseline.ok());
      reference::ExpectPreferenceAnswer(
          store, q, missing, lambda, *baseline,
          reference::AuditPreference(store, q, missing, lambda), base_tag);

      for (size_t segment : {size_t{0}, size_t{3}, size_t{100}}) {
        PreferenceAdjustOptions segmented = one;
        segmented.sweep_batch_size = segment;
        auto result = AdjustPreference(store, q, missing, segmented);
        ASSERT_TRUE(result.ok());
        const std::string tag =
            base_tag + " segment=" + std::to_string(segment);
        EXPECT_EQ(result->refined.w.ws, baseline->refined.w.ws) << tag;
        EXPECT_EQ(result->refined.k, baseline->refined.k) << tag;
        EXPECT_EQ(result->refined_rank, baseline->refined_rank) << tag;
        EXPECT_EQ(result->penalty.value, baseline->penalty.value) << tag;
        EXPECT_EQ(result->stats.crossings_found,
                  baseline->stats.crossings_found)
            << tag;
        EXPECT_EQ(result->stats.candidates_evaluated,
                  baseline->stats.candidates_evaluated)
            << tag;
        if (segment <= 1) {
          // In-process sessions prefer segments of one (segment 0 = ask).
          EXPECT_EQ(result->stats.index_nodes_visited,
                    baseline->stats.index_nodes_visited)
              << tag;
          EXPECT_EQ(result->stats.sweep_fanouts,
                    baseline->stats.sweep_fanouts)
              << tag;
        } else {
          // Speculation may fetch (and discard) counts past the floor cut.
          EXPECT_GE(result->stats.index_nodes_visited,
                    baseline->stats.index_nodes_visited)
              << tag;
          EXPECT_LE(result->stats.sweep_fanouts,
                    baseline->stats.sweep_fanouts)
              << tag;
        }
      }
    }
  }
}

TEST(AdjustPreferenceTest, SegmentedSweepSavesFanouts) {
  // A segment covers several events in one fan-out. With segments of one,
  // the sweep spends one Step-1 fan-out plus one per event it consumes (E);
  // with segments of eight it must consume the same E events in exactly
  // ⌈E/8⌉ segment fan-outs — the floor cut lands on the same event.
  const ObjectStore store = MakeStore(800, 11);
  Rng rng(23);
  size_t checked = 0;
  for (int trial = 0; trial < 6; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 4;
    const std::vector<ObjectId> missing = PickMissing(store, q, 2);
    if (missing.size() != 2) continue;

    PreferenceAdjustOptions one;
    one.sweep_batch_size = 1;
    PreferenceAdjustOptions eight;
    eight.sweep_batch_size = 8;
    auto r1 = AdjustPreference(store, q, missing, one);
    auto r8 = AdjustPreference(store, q, missing, eight);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r8.ok());
    if (r1->already_in_result) continue;
    EXPECT_EQ(r8->penalty.value, r1->penalty.value);
    const size_t events = r1->stats.sweep_fanouts - 1;
    EXPECT_EQ(r8->stats.sweep_fanouts, 1 + (events + 7) / 8)
        << "events consumed=" << events;
    if (events >= 2) {
      EXPECT_LT(r8->stats.sweep_fanouts, r1->stats.sweep_fanouts);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(AdjustPreferenceTest, DuplicateMissingIdsAreDeduplicated) {
  const ObjectStore store = MakeStore(300, 9);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 3;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto a = AdjustPreference(store, q, {missing[0]});
  auto b = AdjustPreference(store, q, {missing[0], missing[0]});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->penalty.value, b->penalty.value);
  EXPECT_DOUBLE_EQ(a->refined.w.ws, b->refined.w.ws);
}

}  // namespace
}  // namespace yask
