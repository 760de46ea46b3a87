#include "src/whynot/preference_adjustment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/shard_primitives.h"
#include "src/whynot/whynot_oracle.h"
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
/// Every object's score-plane point (1 − SDist, TSim) under `q`, by id.
std::vector<PlanePoint> PlanePoints(const ObjectStore& store, const Query& q) {
  const Scorer scorer(store, q);
  std::vector<PlanePoint> pts;
  for (const SpatialObject& o : store.objects()) {
    pts.push_back(
        PlanePoint{1.0 - scorer.SDist(o.loc), scorer.TSim(o.doc), o.id});
  }
  return pts;
}

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
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 3;
  EXPECT_FALSE(AdjustPreference(oracle, q, {}).ok());           // Empty M.
  EXPECT_FALSE(AdjustPreference(oracle, q, {999999}).ok());     // Unknown id.
  Query bad = q;
  bad.doc = KeywordSet();
  EXPECT_FALSE(AdjustPreference(oracle, bad, {1}).ok());        // Invalid q.
  PreferenceAdjustOptions opts;
  opts.lambda = 1.5;
  EXPECT_FALSE(AdjustPreference(oracle, q, {1}, opts).ok());    // Bad lambda.
  // One sweep event's grid (3 weights per distinct missing id) must fit one
  // count fan-out; the size check precedes the id lookup.
  std::vector<ObjectId> huge(kMaxCountBatchPairs / 3 + 1);
  for (size_t i = 0; i < huge.size(); ++i) huge[i] = static_cast<ObjectId>(i);
  auto too_many = AdjustPreference(oracle, q, huge);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdjustPreferenceTest, AlreadyInResult) {
  const ObjectStore store = MakeStore(200, 2);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0, 1});
  q.k = 10;
  const TopKResult top = TopKScan(store, q);
  auto result = AdjustPreference(oracle, q, {top[2].id});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->already_in_result);
  EXPECT_DOUBLE_EQ(result->penalty.value, 0.0);
  EXPECT_EQ(result->refined.k, q.k);
  EXPECT_EQ(result->refined.w, q.w);
}

TEST(AdjustPreferenceTest, RefinedQueryRevivesMissingObject) {
  const ObjectStore store = MakeStore(1000, 3);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.4, 0.6};
  q.doc = KeywordSet({0, 1, 2});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());

  auto result = AdjustPreference(oracle, q, missing);
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
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
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
    auto result = AdjustPreference(oracle, q, missing, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->penalty.value, lambda + 1e-12);
  }
}

TEST(AdjustPreferenceTest, LambdaZeroKeepsWeights) {
  // λ=0: modifying w is pure cost, enlarging k is free => keep w, k'=R0.
  const ObjectStore store = MakeStore(400, 5);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.3, 0.3};
  q.doc = KeywordSet({0, 1});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  PreferenceAdjustOptions opts;
  opts.lambda = 0.0;
  auto result = AdjustPreference(oracle, q, missing, opts);
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
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.45, 0.55};
  q.doc = KeywordSet({0, 1});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  PreferenceAdjustOptions opts;
  opts.lambda = 1.0;
  auto result = AdjustPreference(oracle, q, missing, opts);
  ASSERT_TRUE(result.ok());

  const auto pts = PlanePoints(store, q);
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
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.6, 0.4};
  q.doc = KeywordSet({1, 2});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 2);
  ASSERT_EQ(missing.size(), 2u);
  auto result = AdjustPreference(oracle, q, missing);
  ASSERT_TRUE(result.ok());
  // Reported ranks match independent recomputation.
  EXPECT_EQ(result->original_rank, reference::RankOfSet(store, q, missing));
  EXPECT_EQ(result->refined_rank,
            reference::RankOfSet(store, result->refined, missing));
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
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
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

    auto rb = AdjustPreference(oracle, q, missing, basic);
    auto ro = AdjustPreference(oracle, q, missing, optimized);
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
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Rng rng(GetParam() ^ 0xA0A0);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 2, &rng);
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  PreferenceAdjustOptions opts;
  opts.lambda = 0.5;
  auto result = AdjustPreference(oracle, q, missing, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->already_in_result);

  const auto pts = PlanePoints(store, q);
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
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.2, 0.8};
  q.doc = KeywordSet({0, 3});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto result = AdjustPreference(oracle, q, missing);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates_evaluated, 0u);
  EXPECT_GT(result->stats.index_nodes_visited, 0u);
  EXPECT_EQ(result->stats.full_rescans, 0u);
}

TEST(AdjustPreferenceTest, OneScheduleMatchesReferenceInBothModes) {
  // The sweep runs one schedule: optimized segments double from 8 events and
  // may fetch (and discard) counts past the floor cut; basic segments hold
  // one event and fetch exactly what the sweep evaluates. Both must return
  // the byte-identical refinement with identical crossing/candidate
  // counters, and that refinement must pass the index-free reference audit.
  const ObjectStore store = MakeStore(600, 10);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Rng rng(17);
  for (double lambda : {0.2, 0.5, 0.8}) {
    for (int trial = 0; trial < 3; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      q.doc = SampleQueryKeywords(store, 2, &rng);
      q.k = 4;
      const std::vector<ObjectId> missing = PickMissing(store, q, 1 + trial % 2);
      if (missing.empty()) continue;
      const std::string tag = "lambda=" + std::to_string(lambda) +
                              " trial=" + std::to_string(trial);

      PreferenceAdjustOptions basic;
      basic.lambda = lambda;
      basic.mode = PrefAdjustMode::kBasic;
      PreferenceAdjustOptions optimized = basic;
      optimized.mode = PrefAdjustMode::kOptimized;
      auto rb = AdjustPreference(oracle, q, missing, basic);
      auto ro = AdjustPreference(oracle, q, missing, optimized);
      ASSERT_TRUE(rb.ok());
      ASSERT_TRUE(ro.ok());
      reference::ExpectPreferenceAnswer(
          store, q, missing, lambda, *ro,
          reference::AuditPreference(store, q, missing, lambda), tag);
      EXPECT_EQ(ro->refined.w.ws, rb->refined.w.ws) << tag;
      EXPECT_EQ(ro->refined.k, rb->refined.k) << tag;
      EXPECT_EQ(ro->refined_rank, rb->refined_rank) << tag;
      EXPECT_EQ(ro->penalty.value, rb->penalty.value) << tag;
      EXPECT_EQ(ro->stats.crossings_found, rb->stats.crossings_found) << tag;
      EXPECT_EQ(ro->stats.candidates_evaluated,
                rb->stats.candidates_evaluated)
          << tag;
      EXPECT_LE(ro->stats.sweep_fanouts, rb->stats.sweep_fanouts) << tag;
    }
  }
}

/// Segment fan-outs the optimized schedule (segments of 8, 16, 32, …
/// events) spends to consume `events` events: ⌈log2(events/8 + 1)⌉.
size_t DoublingSegments(size_t events) {
  size_t segments = 0;
  for (size_t covered = 0, size = 8; covered < events; size *= 2) {
    covered += size;
    ++segments;
  }
  return segments;
}

TEST(AdjustPreferenceTest, OptimizedSweepDoublesItsSegments) {
  // Basic mode spends one Step-1 fan-out plus one per event it consumes (E),
  // and the floor cut lands on the same event in both modes. The optimized
  // schedule consumes the same E events in exactly 1 + ⌈log2(E/8 + 1)⌉
  // fan-outs.
  const ObjectStore store = MakeStore(800, 11);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Rng rng(23);
  size_t doubled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 4;
    const std::vector<ObjectId> missing = PickMissing(store, q, 2);
    if (missing.size() != 2) continue;

    PreferenceAdjustOptions basic;
    basic.mode = PrefAdjustMode::kBasic;
    auto rb = AdjustPreference(oracle, q, missing, basic);
    auto ro = AdjustPreference(oracle, q, missing);
    ASSERT_TRUE(rb.ok());
    ASSERT_TRUE(ro.ok());
    if (rb->already_in_result) continue;
    EXPECT_EQ(ro->penalty.value, rb->penalty.value);
    const size_t events = rb->stats.sweep_fanouts - 1;
    EXPECT_EQ(ro->stats.sweep_fanouts, 1 + DoublingSegments(events))
        << "events consumed=" << events;
    if (events > 8) ++doubled;  // Reached a second, doubled segment.
  }
  EXPECT_GT(doubled, 0u);
}

TEST(AdjustPreferenceTest, BasicSweepFetchesOnlyWhatItEvaluates) {
  // In basic mode every fetched pair is a full rescan, so segments hold one
  // event and nothing is fetched past the floor cut: the rescans are exactly
  // R(M, q)'s plus one per evaluated candidate, for every anchor.
  const ObjectStore store = MakeStore(600, 12);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Rng rng(31);
  size_t checked = 0;
  for (int trial = 0; trial < 4; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 4;
    const std::vector<ObjectId> missing = PickMissing(store, q, 1 + trial % 2);
    if (missing.empty()) continue;

    PreferenceAdjustOptions basic;
    basic.mode = PrefAdjustMode::kBasic;
    auto rb = AdjustPreference(oracle, q, missing, basic);
    ASSERT_TRUE(rb.ok());
    if (rb->already_in_result) continue;
    EXPECT_EQ(rb->stats.full_rescans,
              missing.size() * (1 + rb->stats.candidates_evaluated));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(AdjustPreferenceTest, DuplicateMissingIdsAreDeduplicated) {
  const ObjectStore store = MakeStore(300, 9);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 3;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto a = AdjustPreference(oracle, q, {missing[0]});
  auto b = AdjustPreference(oracle, q, {missing[0], missing[0]});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->penalty.value, b->penalty.value);
  EXPECT_DOUBLE_EQ(a->refined.w.ws, b->refined.w.ws);
}

}  // namespace
}  // namespace yask
