#include "src/whynot/preference_adjustment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/baselines/scan_oracle.h"
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

/// MakeStore's objects moved onto a 4 × 4 grid of points: objects sharing
/// a point and a keyword overlap with the query tie in score across ids.
ObjectStore TieStore(size_t n, uint64_t seed) {
  const ObjectStore random = MakeStore(n, seed);
  ObjectStore store(random.shared_vocab());
  for (const SpatialObject& o : random.objects()) {
    store.Add(Point{std::round(o.loc.x * 3) / 3, std::round(o.loc.y * 3) / 3},
              o.doc);
  }
  return store;
}

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

/// Runs AdjustPreference over the columns and over the scanning baseline and
/// checks both against the reference audit: the same refinement bit for
/// bit, and the same search (every counter but index_nodes_visited, which
/// counts each layout's own evaluations).
void ExpectBothLayoutsMatchReference(const ObjectStore& store, const Query& q,
                                     const std::vector<ObjectId>& missing,
                                     double lambda, const std::string& tag) {
  const LocalWhyNotOracle columns(store, /*setr=*/nullptr);
  const ScanOracle scan(store);
  PreferenceAdjustOptions opts;
  opts.lambda = lambda;
  auto rc = AdjustPreference(columns, q, missing, opts);
  auto rs = AdjustPreference(scan, q, missing, opts);
  ASSERT_TRUE(rc.ok()) << tag;
  ASSERT_TRUE(rs.ok()) << tag;
  const reference::PreferenceAudit audit =
      reference::AuditPreference(store, q, missing, lambda);
  reference::ExpectPreferenceAnswer(store, q, missing, lambda, *rc, audit,
                                    tag + " columns");
  reference::ExpectPreferenceAnswer(store, q, missing, lambda, *rs, audit,
                                    tag + " scan");
  EXPECT_EQ(rc->already_in_result, rs->already_in_result) << tag;
  EXPECT_EQ(rc->original_rank, rs->original_rank) << tag;
  EXPECT_EQ(rc->refined_rank, rs->refined_rank) << tag;
  EXPECT_EQ(rc->refined.w, rs->refined.w) << tag;
  EXPECT_EQ(rc->refined.k, rs->refined.k) << tag;
  EXPECT_EQ(rc->penalty.value, rs->penalty.value) << tag;
  EXPECT_EQ(rc->stats.crossings_found, rs->stats.crossings_found) << tag;
  EXPECT_EQ(rc->stats.candidates_evaluated, rs->stats.candidates_evaluated)
      << tag;
  EXPECT_EQ(rc->stats.sweep_fanouts, rs->stats.sweep_fanouts) << tag;
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

// The columns and the scanning baseline (the paper's basic algorithm) must
// return identical refinements across shapes, λs and |M|, and both must pass
// the reference audit.
class PrefLayoutsAgree
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, size_t>> {};

TEST_P(PrefLayoutsAgree, ScanEqualsColumns) {
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
    ExpectBothLayoutsMatchReference(
        store, q, missing, lambda,
        "seed=" + std::to_string(seed) + " lambda=" + std::to_string(lambda) +
            " trial=" + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrefLayoutsAgree,
    ::testing::Combine(::testing::Values(1, 7, 21),
                       ::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(1u, 2u, 3u)));

TEST(AdjustPreferenceTest, BothLayoutsMatchReferenceOnTies) {
  // Query points on the grid itself and between its points: many objects
  // share one plane point, so crossings and counts tie across ids.
  const ObjectStore store = TieStore(400, 31);
  Rng rng(37);
  for (int trial = 0; trial < 8; ++trial) {
    Query q;
    q.loc = trial % 2 == 0 ? store.Get(rng.NextBounded(store.size())).loc
                           : Point{0.3, 0.55};
    q.doc = SampleQueryKeywords(store, 1 + trial % 2, &rng);
    q.k = 3 + static_cast<uint32_t>(trial % 3);
    q.w = Weights::FromWs(trial < 4 ? 0.5 : 0.25);
    const std::vector<ObjectId> missing = PickMissing(store, q, 1 + trial % 2);
    if (missing.empty()) continue;
    ExpectBothLayoutsMatchReference(store, q, missing, 0.5,
                                    "ties trial=" + std::to_string(trial));
  }
}

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

TEST(AdjustPreferenceTest, StatsPopulated) {
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
}

// The sweep's weight bounds and its step past a crossing, as defined in
// preference_adjustment.cc.
constexpr double kMinW = 1e-9;
constexpr double kMaxW = 1.0 - 1e-9;
constexpr double kStepPastCrossing = 1e-7;

/// A score-plane session that forwards to `inner` and records what the sweep
/// asks of it: every crossing weight it collects and the weights of every
/// CountAboveBatch fan-out, in call order.
class RecordingSession final : public ScorePlaneSession {
 public:
  RecordingSession(std::unique_ptr<ScorePlaneSession> inner,
                   std::vector<double>* crossings,
                   std::vector<std::vector<double>>* fanouts)
      : inner_(std::move(inner)), crossings_(crossings), fanouts_(fanouts) {}

  PlanePoint Anchor(ObjectId global_id) const override {
    return inner_->Anchor(global_id);
  }
  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        PreferenceAdjustStats* stats) const override {
    const size_t before = events->size();
    inner_->CollectCrossings(anchor, wlo, whi, events, stats);
    crossings_->insert(crossings_->end(), events->begin() + before,
                       events->end());
  }
  std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<PlanePoint>& anchors,
      PreferenceAdjustStats* stats) const override {
    fanouts_->push_back(weights);
    return inner_->CountAboveBatch(weights, anchors, stats);
  }
  size_t PreferredSweepBatch() const override {
    return inner_->PreferredSweepBatch();
  }

 private:
  std::unique_ptr<ScorePlaneSession> inner_;
  std::vector<double>* crossings_;
  std::vector<std::vector<double>>* fanouts_;
};

/// An oracle that forwards to `inner` and wraps its score-plane sessions in
/// RecordingSession.
class RecordingOracle final : public WhyNotOracle {
 public:
  explicit RecordingOracle(const WhyNotOracle& inner) : inner_(inner) {}

  size_t size() const override { return inner_.size(); }
  double dist_norm() const override { return inner_.dist_norm(); }
  const SpatialObject& Object(ObjectId global_id) const override {
    return inner_.Object(global_id);
  }
  TopKResult TopK(const Query& query, TopKStats* stats) const override {
    return inner_.TopK(query, stats);
  }
  std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const override {
    return std::make_unique<RecordingSession>(
        inner_.PrepareScorePlane(query, mode), &crossings, &fanouts);
  }
  std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override {
    return inner_.ProbeRankBatch(specs, stats);
  }

  mutable std::vector<double> crossings;
  mutable std::vector<std::vector<double>> fanouts;

 private:
  const WhyNotOracle& inner_;
};

/// The candidate weights the sweep evaluates for event `e`: e itself and
/// the step past it on its far side from w0, inside [kMinW, kMaxW].
std::vector<double> EventWeights(double e, double w0) {
  std::vector<double> ws;
  auto push = [&](double w) {
    if (w >= kMinW && w <= kMaxW) ws.push_back(w);
  };
  push(e);
  if (e <= w0) push(e - kStepPastCrossing);
  if (e >= w0) push(e + kStepPastCrossing);
  return ws;
}

/// Segment fan-outs the sweep (segments of 8, 16, 32, … events) spends to
/// consume `events` events: ⌈log2(events/8 + 1)⌉.
size_t DoublingSegments(size_t events) {
  size_t segments = 0;
  for (size_t covered = 0, size = 8; covered < events; size *= 2) {
    covered += size;
    ++segments;
  }
  return segments;
}

TEST(AdjustPreferenceTest, SweepDoublesItsSegments) {
  // Step 1 is one fan-out at w0 alone. Sweep segment j (from 1) then fetches
  // the next 8·2^(j−1) events in nearest-to-w0 order, each as its
  // EventWeights; only the last segment may hold fewer. The E events whose
  // candidates were evaluated cost exactly 1 + ⌈log2(E/8 + 1)⌉ fan-outs.
  // Both layouts must fetch the identical weights.
  const ObjectStore store = MakeStore(800, 11);
  const LocalWhyNotOracle columns(store, /*setr=*/nullptr);
  const ScanOracle scan(store);
  Rng rng(23);
  size_t doubled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 4;
    const std::vector<ObjectId> missing = PickMissing(store, q, 2);
    if (missing.size() != 2) continue;
    const double w0 = q.w.ws;

    std::vector<std::vector<double>> layout_fanouts;
    for (const WhyNotOracle* inner :
         {static_cast<const WhyNotOracle*>(&columns),
          static_cast<const WhyNotOracle*>(&scan)}) {
      const RecordingOracle oracle(*inner);
      auto r = AdjustPreference(oracle, q, missing);
      ASSERT_TRUE(r.ok());
      if (r->already_in_result) break;
      ASSERT_EQ(oracle.fanouts.size(), r->stats.sweep_fanouts);
      ASSERT_GE(oracle.fanouts.size(), 1u);
      EXPECT_EQ(oracle.fanouts.front(), std::vector<double>{w0});

      // The sweep's event order: deduplicated, nearest to w0 first.
      std::vector<double> events = oracle.crossings;
      std::sort(events.begin(), events.end());
      events.erase(std::unique(events.begin(), events.end()), events.end());
      std::sort(events.begin(), events.end(), [&](double a, double b) {
        const double da = std::abs(a - w0);
        const double db = std::abs(b - w0);
        if (da != db) return da < db;
        return a < b;
      });
      ASSERT_EQ(r->stats.crossings_found, events.size());

      size_t next = 0;
      for (size_t j = 1; j < oracle.fanouts.size(); ++j) {
        const std::vector<double>& fetched = oracle.fanouts[j];
        std::vector<double> expected;
        size_t taken = 0;
        while (expected.size() < fetched.size() && next < events.size()) {
          for (double w : EventWeights(events[next], w0)) {
            expected.push_back(w);
          }
          ++next;
          ++taken;
        }
        ASSERT_EQ(fetched, expected) << "segment " << j;
        const size_t full = size_t{8} << (j - 1);
        if (j + 1 < oracle.fanouts.size()) {
          EXPECT_EQ(taken, full) << "segment " << j;
        } else {
          EXPECT_GE(taken, 1u);
          EXPECT_LE(taken, full);
        }
      }

      // E: the events whose candidates were evaluated, in order.
      size_t consumed = 0;
      size_t evaluated = 0;
      while (evaluated < r->stats.candidates_evaluated) {
        ASSERT_LT(consumed, events.size());
        evaluated += EventWeights(events[consumed++], w0).size();
      }
      ASSERT_EQ(evaluated, r->stats.candidates_evaluated);
      EXPECT_EQ(r->stats.sweep_fanouts, 1 + DoublingSegments(consumed))
          << "events consumed=" << consumed;
      if (inner == &scan && consumed > 8) ++doubled;  // Reached segment 2.

      std::vector<double> all;
      for (const auto& f : oracle.fanouts) {
        all.insert(all.end(), f.begin(), f.end());
      }
      layout_fanouts.push_back(std::move(all));
    }
    if (layout_fanouts.size() == 2) {
      EXPECT_EQ(layout_fanouts[0], layout_fanouts[1]);
    }
  }
  EXPECT_GT(doubled, 0u);
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
