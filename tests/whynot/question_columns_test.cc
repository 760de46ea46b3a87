// Exactness of the question columns (QuestionColumns), the one per-shard
// kernel of a why-not question, against the index-free brute-force
// reference (tests/reference/whynot_reference.h) and plain scans:
//   * the kernel alone: rank counts of covered targets at several weights,
//     the Eqn. (3) plane's counts and crossings, on random
//     stores, equal-score tie runs, objects with empty docs or no keyword of
//     the universe, ±0.0 query locations, a 64-keyword universe and one
//     wider than a mask word, over unsharded and sharded id mappings;
//   * the build's sort on adversarial input (x values sharing the top 32
//     bits of their sort key, in descending-x id order, with tie runs) and
//     the keyword postings its masks come from (terms no object holds,
//     terms past the store's largest, empty docs, local ids ≠ global ids);
//   * every layout (local, grid and hash shards, remote over loopback, and
//     the scanning baseline ScanOracle, which opens no question): an open
//     question's ranks, explanations, both refinements and top-k equal the
//     reference;
//   * questions whose q.doc ∪ M.doc exceeds kMaxKeywordUniverse still answer
//     the preference model and the explanations exactly; only keyword
//     adaption refuses them;
//   * the preference and keyword stages drive one question from two threads
//     and answer what they answer alone;
//   * an open question's top-k (the query's, its refinements', at ws = 0
//     or wt = 0, with k past a shard's size or n, over an empty shard)
//     equals the reference scan, TopKScan and the shards' own top-k;
//   * one /whynot opens exactly one question per shard, in process and
//     remote, and runs no shard top-k search;
//   * a rank batch outside any question (several locations, a doc wider than
//     64 keywords, targets on other shards, tie-heavy data) answers the
//     reference ranks on every layout, with one one-call question per shard
//     per location, all closed afterwards.

#include "src/whynot/shard_primitives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/shard_router.h"
#include "src/corpus/sharded_corpus.h"
#include "bench/baselines/scan_oracle.h"
#include "src/query/scoring.h"
#include "src/query/topk_engine.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/explanation.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/why_not_engine.h"
#include "src/whynot/whynot_oracle.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

ObjectStore RandomStore(size_t n, size_t vocabulary, uint64_t seed,
                        size_t max_keywords = 8) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.vocabulary_size = vocabulary;
  spec.min_keywords = 1;
  spec.max_keywords = max_keywords;
  spec.seed = seed;
  return GenerateDataset(spec);
}

/// Objects on `grid` evenly spaced points of the x axis, each with a random
/// subset of six keywords, every seventh with none: seen from the origin,
/// 1 − SDist takes at most `grid` values, so scores tie across many ids.
ObjectStore TieStore(size_t n, size_t grid, uint64_t seed) {
  ObjectStore store;
  std::vector<TermId> terms;
  for (int t = 0; t < 6; ++t) {
    terms.push_back(store.mutable_vocab()->Intern("t" + std::to_string(t)));
  }
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const Point loc{static_cast<double>(rng.NextBounded(grid)) /
                        static_cast<double>(grid),
                    0.0};
    std::vector<TermId> doc;
    for (TermId t : terms) {
      if (i % 7 != 0 && rng.NextBernoulli(0.4)) doc.push_back(t);
    }
    store.Add(loc, KeywordSet(std::move(doc)));
  }
  return store;
}

/// `count` distinct random terms below `vocabulary`.
KeywordSet RandomDoc(size_t count, size_t vocabulary, Rng* rng) {
  std::vector<TermId> ids;
  while (ids.size() < count) {
    const TermId t = static_cast<TermId>(rng->NextBounded(vocabulary));
    if (std::find(ids.begin(), ids.end(), t) == ids.end()) ids.push_back(t);
  }
  return KeywordSet(std::move(ids));
}

/// A store viewed as one unsharded shard, with its postings.
struct Unsharded {
  explicit Unsharded(ObjectStore s)
      : store(std::move(s)), view{&store, nullptr},
        dist_norm(store.BoundsDiagonal()), postings(store) {}
  ObjectStore store;
  OracleShardView view;
  double dist_norm;
  KeywordPostings postings;
};

/// The reference count: objects of the view outranking a target of score
/// `score` under `q`, by Scorer::Score and the D6 order on global ids.
size_t ScanCount(const OracleShardView& view, double dist_norm, const Query& q,
                 ObjectId target, double score) {
  const Scorer scorer(*view.store, q, dist_norm);
  size_t above = 0;
  for (const SpatialObject& o : view.store->objects()) {
    const ObjectId gid =
        view.to_global != nullptr ? (*view.to_global)[o.id] : o.id;
    if (gid == target) continue;
    if (OutranksTarget(scorer.Score(o), gid, score, target)) ++above;
  }
  return above;
}

/// Every object's plane point under `q`, with its global id.
std::vector<PlanePoint> PlanePoints(const OracleShardView& view,
                                    double dist_norm, const Query& q) {
  const Scorer scorer(*view.store, q, dist_norm);
  std::vector<PlanePoint> pts;
  for (const SpatialObject& o : view.store->objects()) {
    pts.push_back(PlanePoint{
        1.0 - scorer.SDist(o.loc), scorer.TSim(o.doc),
        view.to_global != nullptr ? (*view.to_global)[o.id] : o.id});
  }
  return pts;
}

/// The crossing weights of `anchor`'s line with every other line inside
/// [wlo, whi], sorted and deduplicated.
std::vector<double> ScanCrossings(const std::vector<PlanePoint>& pts,
                                  const PlanePoint& anchor, double wlo,
                                  double whi) {
  std::vector<double> events;
  for (const PlanePoint& p : pts) {
    if (p.id == anchor.id) continue;
    const double slope = (p.x - anchor.x) - (p.y - anchor.y);
    if (slope == 0.0) continue;
    const double w = (anchor.y - p.y) / slope;
    if (w >= wlo && w <= whi) events.push_back(w);
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  return events;
}

/// Checks one question's columns against the scans: rank counts of targets
/// at several weights and docs drawn from the universe (targets the view
/// holds, at their own scores, and absent ids at the scores of objects it
/// holds), and the plane's counts and crossings.
void ExpectColumnsExact(const OracleShardView& view, double dist_norm,
                        const Query& q, const KeywordSet& universe,
                        uint64_t seed, const std::string& label) {
  const KeywordPostings postings(*view.store);
  QuestionColumns columns(view, postings, dist_norm, q, universe);
  const KeywordSet all = KeywordSet::Union(q.doc, universe);
  const QuestionShape shape = columns.shape();
  EXPECT_EQ(shape.objects, view.store->size()) << label;
  EXPECT_EQ(shape.universe, all.size()) << label;
  EXPECT_LE(shape.columns, std::max<size_t>(shape.groups, 1)) << label;

  Rng rng(seed);
  const size_t n = view.store->size();
  std::vector<ObjectId> targets;
  for (int i = 0; i < 12 && n > 0; ++i) {
    targets.push_back(view.to_global != nullptr
                          ? (*view.to_global)[rng.NextBounded(n)]
                          : static_cast<ObjectId>(rng.NextBounded(n)));
  }
  // Rank counts: several weights, the question's doc and docs from U.
  for (const double ws : {0.1, 0.37, 0.5, 0.9}) {
    for (int d = 0; d < 4; ++d) {
      Query t = q;
      t.w = Weights::FromWs(ws);
      if (d > 0) {
        std::vector<TermId> doc;
        for (TermId term : all) {
          if (rng.NextBernoulli(0.5)) doc.push_back(term);
        }
        if (doc.empty()) doc.push_back(all.ids().front());
        t.doc = KeywordSet(std::move(doc));
      }
      ASSERT_TRUE(QuestionCovers(q, all, t)) << label;
      const Scorer scorer(*view.store, t, dist_norm);
      for (const ObjectId target : targets) {
        const ObjectId local =
            view.to_global != nullptr
                ? static_cast<ObjectId>(
                      std::lower_bound(view.to_global->begin(),
                                       view.to_global->end(), target) -
                      view.to_global->begin())
                : target;
        const double score = scorer.Score(local);
        const size_t want = ScanCount(view, dist_norm, t, target, score);
        EXPECT_EQ(columns.CountOutscoring(ScanTarget{&t, score, target}),
                  want)
            << label << " ws " << ws << " target " << target;
        // An id the view does not hold, at a held object's score: only the
        // D6 tie-break on ids decides inside the equal-score run.
        const ObjectId absent = kInvalidObject - 1;
        const size_t want_absent = ScanCount(view, dist_norm, t, absent, score);
        EXPECT_EQ(columns.CountOutscoring(ScanTarget{&t, score, absent}),
                  want_absent)
            << label << " ws " << ws << " absent at " << target;
      }
    }
  }

  // The plane: counts at sweep weights, crossings over intervals.
  const std::vector<PlanePoint> pts = PlanePoints(view, dist_norm, q);
  std::vector<PlanePoint> anchors;
  for (const ObjectId target : targets) {
    for (const PlanePoint& p : pts) {
      if (p.id == target) anchors.push_back(p);
    }
  }
  const std::vector<double> weights = {1e-9, 0.2, q.w.ws, 0.61, 1 - 1e-9};
  std::vector<size_t> fast(weights.size() * anchors.size());
  size_t evals = 0;
  ASSERT_TRUE(columns.CountAboveBatch(weights, anchors, &fast, &evals).ok());
  for (size_t wi = 0; wi < weights.size(); ++wi) {
    for (size_t a = 0; a < anchors.size(); ++a) {
      const double threshold = anchors[a].ScoreAt(weights[wi]);
      size_t want = 0;
      for (const PlanePoint& p : pts) {
        if (p.id != anchors[a].id &&
            OutranksTarget(p.ScoreAt(weights[wi]), p.id, threshold,
                           anchors[a].id)) {
          ++want;
        }
      }
      EXPECT_EQ(fast[wi * anchors.size() + a], want)
          << label << " w " << weights[wi] << " anchor " << anchors[a].id;
    }
  }
  for (const auto& [wlo, whi] : std::vector<std::pair<double, double>>{
           {0.0, 1.0}, {0.2, 0.4}, {q.w.ws, q.w.ws}, {0.45, 0.9}}) {
    for (const PlanePoint& anchor : anchors) {
      std::vector<double> got;
      size_t unused = 0;
      ASSERT_TRUE(
          columns.CollectCrossings(anchor, wlo, whi, &got, &unused).ok());
      std::sort(got.begin(), got.end());
      got.erase(std::unique(got.begin(), got.end()), got.end());
      EXPECT_EQ(got, ScanCrossings(pts, anchor, wlo, whi))
          << label << " [" << wlo << ", " << whi << "]";
    }
  }
}

/// The rows equal, id for id and score bit for bit.
void ExpectSameRows(const TopKResult& got, const TopKResult& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " row " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << label << " row " << i;
  }
}

/// Checks a question's top-k against the reference full scan of `whole`
/// (the unsharded store, whose ids are the global ids) restricted to the
/// view's objects: the question's doc and docs drawn from the universe
/// alone (keyword refinements), weights with ws = 0 or wt = 0, and k from 1
/// to past the view's size. An unsharded view is also checked against
/// TopKScan.
void ExpectTopKExact(const OracleShardView& view, double dist_norm,
                     const ObjectStore& whole, const Query& q,
                     const KeywordSet& universe, uint64_t seed,
                     const std::string& label) {
  const KeywordPostings postings(*view.store);
  QuestionColumns columns(view, postings, dist_norm, q, universe);
  const KeywordSet all = KeywordSet::Union(q.doc, universe);
  std::vector<bool> held(whole.size(), view.to_global == nullptr);
  if (view.to_global != nullptr) {
    for (const ObjectId gid : *view.to_global) held[gid] = true;
  }
  const size_t n = view.store->size();
  Rng rng(seed);
  for (const Weights w : {Weights::FromWs(0.37), Weights::FromWs(0.9),
                          Weights{0.0, 1.0}, Weights{1.0, 0.0}}) {
    for (int d = 0; d < 3; ++d) {
      Query t = q;
      t.w = w;
      if (d > 0) {
        std::vector<TermId> doc;
        for (TermId term : universe.empty() ? all : universe) {
          if (rng.NextBernoulli(0.5)) doc.push_back(term);
        }
        if (doc.empty()) doc.push_back(all.ids().back());
        t.doc = KeywordSet(std::move(doc));
      }
      ASSERT_TRUE(QuestionCoversTopK(q, all, t)) << label;
      Query every = t;
      every.k = static_cast<uint32_t>(whole.size());
      TopKResult ranked;
      for (const ScoredObject& row : reference::TopK(whole, every)) {
        if (held[row.id]) ranked.push_back(row);
      }
      for (const uint32_t k :
           {uint32_t{1}, uint32_t{7}, static_cast<uint32_t>(n),
            static_cast<uint32_t>(n + 5), ~uint32_t{0}}) {
        t.k = k;
        const std::string tag = label + " ws " + std::to_string(w.ws) +
                                " doc " + std::to_string(d) + " k " +
                                std::to_string(k);
        TopKStats stats;
        Result<TopKResult> got = columns.TopK(t, &stats);
        ASSERT_TRUE(got.ok()) << tag;
        const TopKResult want(ranked.begin(),
                              ranked.begin() + std::min<size_t>(k, n));
        ExpectSameRows(*got, want, tag);
        if (view.to_global == nullptr) {
          ExpectSameRows(*got, TopKScan(*view.store, t), tag + " TopKScan");
        }
        EXPECT_LE(stats.objects_scored, n) << tag;
        EXPECT_LE(stats.nodes_popped, columns.shape().groups) << tag;
      }
    }
  }
  Query none = q;
  none.k = 0;
  EXPECT_TRUE(columns.TopK(none, nullptr)->empty()) << label;
}

TEST(QuestionColumnsTest, RandomStoresMatchTheScans) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const Unsharded u(RandomStore(2500, 60, seed));
    Rng rng(seed + 100);
    Query q;
    q.loc = SampleQueryLocation(u.store, &rng);
    q.doc = SampleQueryKeywords(u.store, 1 + seed % 3, &rng);
    q.w = Weights::FromWs(0.3 + 0.1 * static_cast<double>(seed));
    const KeywordSet universe = RandomDoc(6, 60, &rng);
    ExpectColumnsExact(u.view, u.dist_norm, q, universe, seed * 11,
                       "random seed " + std::to_string(seed));
    ExpectTopKExact(u.view, u.dist_norm, u.store, q, universe, seed * 13,
                    "top-k random seed " + std::to_string(seed));
  }
}

TEST(QuestionColumnsTest, EqualScoreTieRunsAndEmptyDocs) {
  for (const size_t grid : {size_t{8}, size_t{64}}) {
    const Unsharded u(TieStore(2000, grid, grid));
    Query q;
    q.loc = Point{0.0, 0.0};
    q.doc = KeywordSet({0, 1});
    q.w = Weights::FromWs(0.5);
    // Universe {0..3}: objects holding only t4/t5 (and the empty docs) sit
    // in mask-0 groups.
    ExpectColumnsExact(u.view, u.dist_norm, q, KeywordSet({2, 3}), grid,
                       "tie grid " + std::to_string(grid));
    // At ws = 0 a whole group ties; equal-score runs resolve by id.
    ExpectTopKExact(u.view, u.dist_norm, u.store, q, KeywordSet({2, 3}),
                    grid + 1, "top-k tie grid " + std::to_string(grid));
  }
}

TEST(QuestionColumnsTest, SignedZeroLocationsAreTheirOwnQuestion) {
  const Unsharded u(TieStore(1500, 16, 5));
  Query q;
  q.loc = Point{-0.0, 0.0};
  q.doc = KeywordSet({1, 2});
  q.w = Weights::FromWs(0.4);
  ExpectColumnsExact(u.view, u.dist_norm, q, KeywordSet({0}), 6, "-0.0");
  const KeywordSet all({0, 1, 2});
  Query positive = q;
  positive.loc = Point{0.0, 0.0};
  EXPECT_TRUE(QuestionCovers(q, all, q));
  EXPECT_FALSE(QuestionCovers(q, all, positive));
  Query outside = q;
  outside.doc = KeywordSet({1, 3});
  EXPECT_FALSE(QuestionCovers(q, all, outside));
}

TEST(QuestionColumnsTest, UniverseOfSixtyFourKeywordsAndWider) {
  const Unsharded u(RandomStore(2000, 150, 91, /*max_keywords=*/20));
  Rng rng(92);
  Query q;
  q.loc = SampleQueryLocation(u.store, &rng);
  q.doc = RandomDoc(4, 150, &rng);
  q.w = Weights::FromWs(0.45);
  KeywordSet universe = q.doc;
  while (universe.size() < kMaxKeywordUniverse) {
    universe.Insert(static_cast<TermId>(rng.NextBounded(150)));
  }
  ExpectColumnsExact(u.view, u.dist_norm, q, universe, 93, "64 keywords");
  // Past one mask word, and a query doc that alone spans two.
  while (universe.size() < 130) {
    universe.Insert(static_cast<TermId>(rng.NextBounded(150)));
  }
  ExpectColumnsExact(u.view, u.dist_norm, q, universe, 94, "130 keywords");
  Query wide = q;
  wide.doc = universe;
  ExpectColumnsExact(u.view, u.dist_norm, wide, KeywordSet(), 95,
                     "130-keyword q.doc");
}

TEST(QuestionColumnsTest, ShardedViewsMatchTheScans) {
  const ObjectStore whole = RandomStore(3000, 50, 41);
  for (const bool hash : {false, true}) {
    std::unique_ptr<ShardRouter> router;
    if (hash) {
      router = std::make_unique<HashShardRouter>(3);
    } else {
      router = GridShardRouter::Fit(whole, 3);
    }
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(whole, std::move(router));
    Rng rng(42);
    Query q;
    q.loc = SampleQueryLocation(whole, &rng);
    q.doc = SampleQueryKeywords(whole, 2, &rng);
    q.w = Weights::FromWs(0.6);
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      const OracleShardView view{&sharded.shard(s).store(),
                                 &sharded.shard_global_ids(s)};
      const KeywordSet universe = RandomDoc(5, 50, &rng);
      const std::string label =
          sharded.router_description() + " shard " + std::to_string(s);
      ExpectColumnsExact(view, sharded.dist_norm(), q, universe, 43 + s,
                         label);
      ExpectTopKExact(view, sharded.dist_norm(), whole, q, universe, 53 + s,
                      "top-k " + label);
    }
  }
}

TEST(QuestionColumnsTest, EmptyShardAnswersZero) {
  const Unsharded u{ObjectStore()};
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0, 1});
  QuestionColumns columns(u.view, u.postings, 1.0, q, KeywordSet({2}));
  EXPECT_EQ(columns.shape().objects, 0u);
  EXPECT_EQ(columns.shape().groups, 0u);
  EXPECT_EQ(columns.CountOutscoring(ScanTarget{&q, 0.25, 7}), 0u);
  for (const uint32_t k : {uint32_t{1}, kMaxK + 1}) {
    Query t = q;
    t.k = k;
    EXPECT_TRUE(columns.TopK(t, nullptr)->empty());
  }
  std::vector<size_t> counts(2, 99);
  size_t evals = 0;
  ASSERT_TRUE(columns
                  .CountAboveBatch({0.3, 0.7}, {PlanePoint{0.5, 0.5, 7}},
                                   &counts, &evals)
                  .ok());
  EXPECT_EQ(counts, (std::vector<size_t>{0, 0}));
  std::vector<double> events;
  ASSERT_TRUE(columns
                  .CollectCrossings(PlanePoint{0.5, 0.5, 7}, 0.0, 1.0,
                                    &events, &evals)
                  .ok());
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(evals, 0u);
}

TEST(QuestionColumnsTest, PlaneSearchesFewerPointsThanAScan) {
  const Unsharded u(RandomStore(5000, 40, 7));
  Query q;
  q.loc = u.store.Get(3).loc;
  q.doc = KeywordSet({0, 1, 2});
  q.w = Weights::FromWs(0.5);
  QuestionColumns columns(u.view, u.postings, u.dist_norm, q, KeywordSet());
  const PlanePoint anchor = PlanePoints(u.view, u.dist_norm, q)[17];
  std::vector<size_t> count(1);
  size_t evals = 0;
  ASSERT_TRUE(columns.CountAboveBatch({0.5}, {anchor}, &count, &evals).ok());
  EXPECT_LT(evals, u.store.size() / 4);
  std::vector<double> events;
  evals = 0;
  ASSERT_TRUE(columns.CollectCrossings(anchor, 0.45, 0.55, &events, &evals).ok());
  EXPECT_LT(evals, u.store.size() / 4);
}

/// The top 32 bits of x's order-preserving sort key (x ≥ 0: its bits with
/// the sign set), x = 1 − SDist from the origin.
uint64_t HighKeyBits(const ObjectStore& store, ObjectId id, double dist_norm) {
  const double x = 1.0 - NormalizedSpatialDistance(store.Get(id).loc,
                                                   Point{0.0, 0.0}, dist_norm);
  return (std::bit_cast<uint64_t>(x) | (uint64_t{1} << 63)) >> 32;
}

/// `count` objects on the x axis in clusters of `cluster`, placed in
/// descending-x id order: within a cluster every x = 1 − SDist from the
/// origin shares its top 32 sort-key bits (x just below 0.5 − c·2^-21, so
/// in one 2^-22 bucket), in equal-x runs of 1 to 4 and, every seventh run,
/// of 40 (longer than the sort's insertion run). Two corner objects (ids 0
/// and 1) fix the bounds to the unit segment. Docs cycle over {t0},
/// {t0, t1} and {}.
ObjectStore SharedHighBitsStore(size_t count, size_t cluster) {
  ObjectStore store;
  const TermId t0 = store.mutable_vocab()->Intern("t0");
  const TermId t1 = store.mutable_vocab()->Intern("t1");
  store.Add(Point{0.0, 0.0}, KeywordSet({t0}));
  store.Add(Point{1.0, 0.0}, KeywordSet({t1}));
  for (size_t c = 1; store.size() < count + 2; ++c) {
    size_t placed = 0;
    for (size_t run = 0; placed < cluster && store.size() < count + 2;
         ++run) {
      const double d = 0.5 + std::ldexp(static_cast<double>(c), -21) +
                       std::ldexp(static_cast<double>(run + 1), -40);
      const size_t length = run % 7 == 6 ? 40 : 1 + run % 4;
      for (size_t i = 0; i < length && placed < cluster &&
                         store.size() < count + 2;
           ++i, ++placed) {
        const size_t pick = (run + i) % 3;
        store.Add(Point{d, 0.0}, pick == 0   ? KeywordSet({t0})
                                 : pick == 1 ? KeywordSet({t0, t1})
                                             : KeywordSet());
      }
    }
  }
  return store;
}

TEST(QuestionColumnsTest, SortSurvivesSharedHighKeyBitsAndTieRuns) {
  // One cluster of 12,000 (a run the sort finishes by radix) and 500 of 24
  // (runs it finishes by insertion).
  for (const size_t cluster : {size_t{12000}, size_t{24}}) {
    const Unsharded u(SharedHighBitsStore(12000, cluster));
    const std::string label = "cluster " + std::to_string(cluster);
    ASSERT_EQ(u.dist_norm, 1.0);
    for (ObjectId id = 2; id < u.store.size(); ++id) {
      const ObjectId first = static_cast<ObjectId>(2 + (id - 2) / cluster *
                                                           cluster);
      ASSERT_EQ(HighKeyBits(u.store, id, u.dist_norm),
                HighKeyBits(u.store, first, u.dist_norm))
          << label << " id " << id;
    }
    Query q;
    q.loc = Point{0.0, 0.0};
    q.doc = KeywordSet({0});
    q.w = Weights::FromWs(0.5);
    ExpectColumnsExact(u.view, u.dist_norm, q, KeywordSet({1}), 71, label);
    ExpectTopKExact(u.view, u.dist_norm, u.store, q, KeywordSet({1}), 72,
                    "top-k " + label);
  }
}

TEST(QuestionColumnsTest, PostingsListEachTermsLocalIdsInOrder) {
  const ObjectStore whole = RandomStore(3000, 80, 61);
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(whole, std::make_unique<HashShardRouter>(3));
  std::vector<const ObjectStore*> stores = {&whole};
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    stores.push_back(&sharded.shard(s).store());
  }
  for (const ObjectStore* store : stores) {
    const KeywordPostings postings(*store);
    TermId largest = 0;
    size_t held = 0;
    for (const SpatialObject& o : store->objects()) {
      if (!o.doc.empty()) largest = std::max(largest, o.doc.ids().back());
      held += o.doc.size();
    }
    for (TermId t = 0; t <= largest + 3; ++t) {
      std::vector<ObjectId> want;
      for (const SpatialObject& o : store->objects()) {
        if (o.doc.Contains(t)) want.push_back(o.id);
      }
      const std::span<const ObjectId> got = postings.Of(t);
      EXPECT_EQ(std::vector<ObjectId>(got.begin(), got.end()), want) << t;
    }
    EXPECT_TRUE(postings.Of(~TermId{0}).empty());
    EXPECT_EQ(postings.bytes(), (size_t{largest} + 2) * sizeof(size_t) +
                                    held * sizeof(ObjectId));
  }
  EXPECT_EQ(KeywordPostings(ObjectStore()).bytes(), 0u);
}

TEST(QuestionColumnsTest, PostingsEdgeCasesMatchTheScans) {
  // Empty docs (every seventh object), a universe term no object holds
  // ("unheld" is interned but never placed) and term ids past the store's
  // largest.
  ObjectStore store = TieStore(1800, 32, 17);
  const TermId unheld = store.mutable_vocab()->Intern("unheld");
  store.Add(Point{0.3, 0.0}, KeywordSet());
  const Unsharded u(std::move(store));
  Query q;
  q.loc = Point{0.25, 0.0};
  q.doc = KeywordSet({1, 4});
  q.w = Weights::FromWs(0.45);
  const KeywordSet universe({0, unheld, 9000, 123456});
  ExpectColumnsExact(u.view, u.dist_norm, q, universe, 81, "edge postings");
  ExpectTopKExact(u.view, u.dist_norm, u.store, q, universe, 82,
                  "top-k edge postings");
  // A question doc past the largest term: its bit is never set.
  Query far = q;
  far.doc = KeywordSet({2, 70000});
  ExpectColumnsExact(u.view, u.dist_norm, far, KeywordSet({3}), 83,
                     "doc past the largest term");

  // Only empty docs: no postings at all.
  ObjectStore empty_docs;
  for (int i = 0; i < 40; ++i) {
    empty_docs.Add(Point{0.01 * i, 0.5}, KeywordSet());
  }
  const Unsharded e(std::move(empty_docs));
  ExpectColumnsExact(e.view, e.dist_norm, q, KeywordSet({0, 7}), 84,
                     "empty docs only");
  ExpectTopKExact(e.view, e.dist_norm, e.store, q, KeywordSet({0, 7}), 85,
                  "top-k empty docs only");

  // A universe wider than a mask word on sharded views (local ids differ
  // from global ids), holding terms some shards never see.
  const ObjectStore whole = RandomStore(2400, 120, 86, /*max_keywords=*/16);
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(whole, GridShardRouter::Fit(whole, 3));
  Rng rng(87);
  Query wide;
  wide.loc = SampleQueryLocation(whole, &rng);
  wide.doc = SampleQueryKeywords(whole, 3, &rng);
  wide.w = Weights::FromWs(0.55);
  KeywordSet wide_universe({119, 500, 4000});
  while (wide_universe.size() < 90) {
    wide_universe.Insert(static_cast<TermId>(rng.NextBounded(120)));
  }
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const OracleShardView view{&sharded.shard(s).store(),
                               &sharded.shard_global_ids(s)};
    const std::vector<ObjectId>& global = sharded.shard_global_ids(s);
    ASSERT_NE(global.back() + 1, global.size()) << "local ids are global";
    const std::string label = "wide sharded shard " + std::to_string(s);
    ExpectColumnsExact(view, sharded.dist_norm(), wide, wide_universe, 88 + s,
                       label);
    ExpectTopKExact(view, sharded.dist_norm(), whole, wide, wide_universe,
                    91 + s, "top-k " + label);
  }
}

// --- Every layout -------------------------------------------------------------

/// Started shard servers over one ShardedCorpus.
struct ShardFleet {
  std::vector<std::unique_ptr<ShardService>> services;
  std::vector<std::string> endpoints;

  explicit ShardFleet(const ShardedCorpus& corpus) {
    for (size_t s = 0; s < corpus.num_shards(); ++s) {
      ShardService::Info info;
      info.shard_index = static_cast<uint32_t>(s);
      info.shard_count = static_cast<uint32_t>(corpus.num_shards());
      info.global_bounds = corpus.bounds();
      info.dist_norm = corpus.dist_norm();
      info.to_global = corpus.shard_global_ids(s);
      info.router = corpus.router_description();
      services.push_back(
          std::make_unique<ShardService>(corpus.shard(s), std::move(info)));
      EXPECT_TRUE(services.back()->Start().ok());
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(services.back()->port()));
    }
  }
  ~ShardFleet() {
    for (auto& service : services) service->Stop();
  }

  /// Requests the shards served on `route` so far, summed.
  uint64_t Served(const char* route) const {
    uint64_t total = 0;
    for (const auto& service : services) {
      total += service->metrics()
                   .GetHistogram("yask_shard_request_ms", {{"endpoint", route}})
                   ->count();
    }
    return total;
  }
};

/// Objects ranked just outside the top-k.
std::vector<ObjectId> MissingOf(const ObjectStore& store, const Query& q,
                                size_t count, size_t offset) {
  Query probe = q;
  probe.k = static_cast<uint32_t>(q.k + offset + count);
  const TopKResult wide = TopKScan(store, probe);
  std::vector<ObjectId> missing;
  for (size_t i = q.k + offset; i < wide.size() && missing.size() < count;
       ++i) {
    missing.push_back(wide[i].id);
  }
  return missing;
}

/// One why-not question and its reference answers.
struct Question {
  Query query;
  std::vector<ObjectId> missing;
  reference::KeywordAnswer keyword;
  reference::PreferenceAudit preference;
};

std::vector<Question> MakeQuestions(const ObjectStore& store, uint64_t seed,
                                    int count) {
  std::vector<Question> questions;
  Rng rng(seed);
  for (int trial = 0; trial < count; ++trial) {
    Question q;
    q.query.loc = SampleQueryLocation(store, &rng);
    q.query.doc = SampleQueryKeywords(store, 1 + trial % 2, &rng);
    q.query.k = 3 + static_cast<uint32_t>(rng.NextBounded(4));
    q.query.w = Weights::FromWs(rng.NextDouble(0.2, 0.8));
    q.missing = MissingOf(store, q.query, 1 + trial % 2, 1 + trial % 3);
    if (q.missing.empty()) continue;
    q.keyword = reference::SolveKeywords(store, q.query, q.missing, 0.5);
    q.preference =
        reference::AuditPreference(store, q.query, q.missing, 0.5);
    questions.push_back(std::move(q));
  }
  return questions;
}

/// Checks an open question's top-k of each query against the reference
/// scan, and against the shard top-k of `oracle` (the unbound oracle)
/// for valid queries: the queries as given, at ws = 0 and wt = 0, and with
/// k past every shard's size and past n.
void CheckQuestionTopK(const WhyNotOracle& oracle, const WhyNotOracle& question,
                       const ObjectStore& store,
                       const std::vector<Query>& queries,
                       const std::string& tag) {
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<Query> variants(4, queries[i]);
    variants[1].w = Weights{0.0, 1.0};
    variants[2].w = Weights{1.0, 0.0};
    variants[3].k = static_cast<uint32_t>(store.size() + 3);
    for (size_t v = 0; v < variants.size(); ++v) {
      const Query& t = variants[v];
      const std::string label =
          tag + " top-k " + std::to_string(i) + "." + std::to_string(v);
      const TopKResult got = question.TopK(t, nullptr);
      ExpectSameRows(got, reference::TopK(store, t), label);
      if (t.Validate().ok()) {
        ExpectSameRows(got, oracle.TopK(t, nullptr), label + " shard top-k");
      }
    }
  }
}

/// Runs every stage over one open question of `oracle` (over `oracle`
/// itself when it opens none, as the scanning baseline) and checks it
/// against the reference: ranks at other weights and docs, explanations,
/// both refinements and the top-k.
void CheckQuestions(const WhyNotOracle& oracle, const ObjectStore& store,
                    const std::vector<Question>& questions,
                    const std::string& layout) {
  for (size_t i = 0; i < questions.size(); ++i) {
    const Question& q = questions[i];
    const std::string tag = layout + " question " + std::to_string(i);
    const auto opened = oracle.OpenQuestion(q.query, q.missing);
    const WhyNotOracle& question = opened != nullptr ? *opened : oracle;
    auto pref = AdjustPreference(question, q.query, q.missing);
    ASSERT_TRUE(pref.ok()) << tag << ": " << pref.status().ToString();
    reference::ExpectPreferenceAnswer(store, q.query, q.missing, 0.5, *pref,
                                      q.preference, tag);
    auto kw = AdaptKeywords(question, q.query, q.missing);
    ASSERT_TRUE(kw.ok()) << tag << ": " << kw.status().ToString();
    reference::ExpectKeywordAnswer(*kw, q.keyword, tag);
    auto explained = ExplainMissing(question, q.query, q.missing);
    ASSERT_TRUE(explained.ok()) << tag;
    for (size_t m = 0; m < q.missing.size(); ++m) {
      EXPECT_EQ((*explained)[m].rank,
                reference::Rank(store, q.query, q.missing[m]))
          << tag;
    }
    CheckQuestionTopK(oracle, question, store,
                      {q.query, pref->refined, kw->refined}, tag);
    // Ranks at other weights and with docs from q.doc ∪ M.doc.
    KeywordSet universe = q.query.doc;
    for (const ObjectId m : q.missing) {
      universe = KeywordSet::Union(universe, store.Get(m).doc);
    }
    for (const double ws : {0.15, 0.5, 0.85}) {
      Query t = q.query;
      t.w = Weights::FromWs(ws);
      t.doc = KeywordSet({universe.ids().back()});
      for (const ObjectId m : q.missing) {
        EXPECT_EQ(question.Rank(t, m), reference::Rank(store, t, m))
            << tag << " ws " << ws;
      }
    }
  }
}

void RunAllLayouts(const ObjectStore& store, uint64_t seed, int count) {
  const std::vector<Question> questions = MakeQuestions(store, seed, count);
  ASSERT_FALSE(questions.empty());
  const Corpus corpus = CorpusBuilder().Build(ObjectStore(store));
  CheckQuestions(LocalWhyNotOracle(corpus), store, questions, "local");
  CheckQuestions(ScanOracle(store), store, questions, "scan");
  for (const bool hash : {false, true}) {
    std::unique_ptr<ShardRouter> router;
    if (hash) {
      router = std::make_unique<HashShardRouter>(3);
    } else {
      router = GridShardRouter::Fit(store, 3);
    }
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, std::move(router));
    CheckQuestions(LocalWhyNotOracle(sharded), store, questions,
                   sharded.router_description());
  }
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  CheckQuestions(RemoteShardOracle(remote), store, questions, "remote");
  EXPECT_EQ(remote.error_epoch(), 0u);
}

TEST(QuestionLayoutsTest, RandomCorpus) {
  RunAllLayouts(RandomStore(1500, 40, 511), 512, 4);
}

TEST(QuestionLayoutsTest, TieHeavyCorpus) {
  RunAllLayouts(TieStore(1200, 12, 513), 514, 4);
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

TEST(QuestionLayoutsTest, EmptyShardAndKPastEveryShard) {
  const ObjectStore store = RandomStore(400, 30, 521);
  const std::vector<Question> questions = MakeQuestions(store, 522, 3);
  ASSERT_FALSE(questions.empty());
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, std::make_unique<TwoOfThreeRouter>());
  ASSERT_EQ(sharded.shard(2).size(), 0u);
  ASSERT_LT(sharded.shard(0).size(), store.size());
  CheckQuestions(LocalWhyNotOracle(sharded), store, questions,
                 "two of three");
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  CheckQuestions(RemoteShardOracle(remote), store, questions,
                 "remote two of three");
  EXPECT_EQ(remote.error_epoch(), 0u);
}

/// A question whose missing objects carry more keywords than
/// kMaxKeywordUniverse: q.doc ∪ M.doc is over the cap.
struct WideQuestion {
  ObjectStore store;
  Query query;
  std::vector<ObjectId> missing;

  WideQuestion() : store(RandomStore(1200, 40, 61)) {
    // Object 0 gets 80 keywords of its own, far from the query point.
    Rng rng(62);
    std::vector<TermId> many;
    for (int t = 0; t < 80; ++t) {
      many.push_back(store.mutable_vocab()->Intern("wide" + std::to_string(t)));
    }
    ObjectStore widened(store.shared_vocab());
    for (const SpatialObject& o : store.objects()) {
      widened.Add(o.loc, o.id == 0 ? KeywordSet(many) : o.doc);
    }
    store = std::move(widened);
    query.loc = SampleQueryLocation(store, &rng);
    query.doc = SampleQueryKeywords(store, 2, &rng);
    query.k = 4;
    query.w = Weights::FromWs(0.5);
    missing = {0};
  }
};

void CheckWideQuestion(const WhyNotOracle& oracle, const WideQuestion& wide,
                       const std::string& tag) {
  const auto question =
      oracle.OpenQuestion(wide.query, wide.missing);
  ASSERT_NE(question, nullptr) << tag;
  auto pref = AdjustPreference(*question, wide.query, wide.missing);
  ASSERT_TRUE(pref.ok()) << tag << ": " << pref.status().ToString();
  reference::ExpectPreferenceAnswer(
      wide.store, wide.query, wide.missing, 0.5, *pref,
      reference::AuditPreference(wide.store, wide.query, wide.missing, 0.5),
      tag);
  auto explained = ExplainMissing(*question, wide.query, wide.missing);
  ASSERT_TRUE(explained.ok()) << tag;
  EXPECT_EQ((*explained)[0].rank,
            reference::Rank(wide.store, wide.query, wide.missing[0]))
      << tag;
  auto kw = AdaptKeywords(*question, wide.query, wide.missing);
  EXPECT_EQ(kw.status().code(), StatusCode::kInvalidArgument) << tag;
}

TEST(QuestionLayoutsTest, UniverseOverTheCapStillAnswersPreference) {
  const WideQuestion wide;
  ASSERT_GT(KeywordSet::Union(wide.query.doc, wide.store.Get(0).doc).size(),
            kMaxKeywordUniverse);
  const Corpus corpus = CorpusBuilder().Build(ObjectStore(wide.store));
  CheckWideQuestion(LocalWhyNotOracle(corpus), wide, "local");
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(wide.store, GridShardRouter::Fit(wide.store, 2));
  CheckWideQuestion(LocalWhyNotOracle(sharded), wide, "sharded");
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  CheckWideQuestion(RemoteShardOracle(remote), wide, "remote");
  EXPECT_EQ(remote.error_epoch(), 0u);

  // The engine's model=preference answer and explanations, in process.
  WhyNotOptions options;
  options.run_keyword_adaption = false;
  auto answer = WhyNotEngine(corpus).Answer(wide.query, wide.missing, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->explanations[0].rank,
            reference::Rank(wide.store, wide.query, 0));
}

TEST(QuestionLayoutsTest, PreferenceAndKeywordShareOneQuestionFromTwoThreads) {
  const ObjectStore store = RandomStore(1500, 40, 71);
  const std::vector<Question> questions = MakeQuestions(store, 72, 3);
  ASSERT_FALSE(questions.empty());
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  const LocalWhyNotOracle in_process(sharded);
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  const RemoteShardOracle remote(remote_corpus);
  for (const WhyNotOracle* oracle :
       {static_cast<const WhyNotOracle*>(&in_process),
        static_cast<const WhyNotOracle*>(&remote)}) {
    for (const Question& q : questions) {
      const auto question = oracle->OpenQuestion(q.query, q.missing);
      ASSERT_NE(question, nullptr);
      for (int round = 0; round < 3; ++round) {
        std::optional<Result<RefinedKeywordQuery>> kw;
        std::thread keyword([&] {
          kw.emplace(AdaptKeywords(*question, q.query, q.missing));
        });
        auto pref = AdjustPreference(*question, q.query, q.missing);
        keyword.join();
        ASSERT_TRUE(pref.ok() && kw->ok());
        reference::ExpectPreferenceAnswer(store, q.query, q.missing, 0.5,
                                          *pref, q.preference, "two threads");
        reference::ExpectKeywordAnswer(**kw, q.keyword, "two threads");
      }
    }
  }
  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
}

// --- One question per shard per /whynot ----------------------------------------

/// An in-process shard that counts the questions opened on it and its
/// shard top-k searches (postings plus R-tree).
class CountingShard final : public OracleShard {
 public:
  CountingShard(const OracleShardView& view, double dist_norm,
                std::atomic<size_t>* opened,
                std::atomic<size_t>* topk_searches)
      : inner_(view, dist_norm),
        opened_(opened),
        topk_searches_(topk_searches) {}
  size_t size() const override { return inner_.size(); }
  double RootDistance(const Point& loc) const override {
    return inner_.RootDistance(loc);
  }
  Result<TopKResult> TopK(const Query& query, double prune_below,
                          TopKStats* stats) const override {
    ++*topk_searches_;
    return inner_.TopK(query, prune_below, stats);
  }
  Result<std::unique_ptr<OracleShardQuestion>> OpenQuestion(
      const Query& query, const KeywordSet& universe) const override {
    ++*opened_;
    return inner_.OpenQuestion(query, universe);
  }

 private:
  LocalOracleShard inner_;
  std::atomic<size_t>* opened_;
  std::atomic<size_t>* topk_searches_;
};

/// The sharded oracle over counting shards.
class CountingOracle final : public FanOutWhyNotOracle {
 public:
  CountingOracle(const ShardedCorpus& corpus, std::atomic<size_t>* opened,
                 std::atomic<size_t>* topk_searches)
      : FanOutWhyNotOracle(ShardsOf(corpus, opened, topk_searches),
                           corpus.dist_norm(), corpus.pool()),
        corpus_(&corpus) {}
  const SpatialObject& Object(ObjectId global_id) const override {
    return corpus_->Object(global_id);
  }

 private:
  static std::vector<std::unique_ptr<const OracleShard>> ShardsOf(
      const ShardedCorpus& corpus, std::atomic<size_t>* opened,
      std::atomic<size_t>* topk_searches) {
    std::vector<std::unique_ptr<const OracleShard>> shards;
    for (size_t s = 0; s < corpus.num_shards(); ++s) {
      shards.push_back(std::make_unique<CountingShard>(
          OracleShardView{&corpus.shard(s).store(),
                          &corpus.shard_global_ids(s),
                          &corpus.shard(s).rtree()},
          corpus.dist_norm(), opened, topk_searches));
    }
    return shards;
  }

  const ShardedCorpus* corpus_;
};

TEST(QuestionLayoutsTest, OneQuestionPerShardPerWhyNot) {
  const ObjectStore store = RandomStore(1500, 40, 81);
  const std::vector<Question> questions = MakeQuestions(store, 82, 4);
  ASSERT_FALSE(questions.empty());
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    std::atomic<size_t> opened{0};
    std::atomic<size_t> topk_searches{0};
    const WhyNotEngine engine(
        std::make_unique<CountingOracle>(sharded, &opened, &topk_searches));
    for (const Question& q : questions) {
      // Every model: the question answers explain's top-k and the refined
      // result, so no shard top-k search runs.
      for (const auto& [pref, kw] : {std::pair{true, true},
                                     std::pair{true, false},
                                     std::pair{false, true}}) {
        WhyNotOptions options;
        options.run_preference_adjustment = pref;
        options.run_keyword_adaption = kw;
        const size_t before = opened.load();
        auto answer = engine.Answer(q.query, q.missing, options);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        if (kw) {
          reference::ExpectKeywordAnswer(*answer->keyword, q.keyword,
                                         "counted");
        }
        const Query* refined = &q.query;
        if (answer->recommended == RefinementModel::kPreference) {
          refined = &answer->preference->refined;
        } else if (answer->recommended == RefinementModel::kKeyword) {
          refined = &answer->keyword->refined;
        }
        ExpectSameRows(answer->refined_result,
                       reference::TopK(store, *refined), "refined");
        EXPECT_EQ(opened.load() - before, shards) << shards << " shards";
      }
      // The combined model: its refined result comes from its question,
      // bit for bit the reference's rows.
      auto combined = engine.CombineRefinements(q.query, q.missing);
      ASSERT_TRUE(combined.ok()) << combined.status().ToString();
      ExpectSameRows(combined->refined_result,
                     reference::TopK(store, combined->refined), "combined");
    }
    EXPECT_EQ(topk_searches.load(), 0u) << shards << " shards";
    // The counting shards do search the tree outside a question.
    const TopKResult rows = engine.TopK(questions[0].query);
    ExpectSameRows(rows, reference::TopK(store, questions[0].query), "query");
    EXPECT_EQ(topk_searches.load(), shards);
  }
  // Remote: one /shard/plane/open per shard per /whynot, every rank and
  // top-k from the session, and no stateless top-k request. A rank batch
  // falling outside the question would open a second session.
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  const WhyNotEngine engine(std::make_unique<RemoteShardOracle>(remote));
  for (const Question& q : questions) {
    const uint64_t opens = fleet.Served(shardrpc::kPlaneOpenPath);
    const uint64_t ranks = fleet.Served(shardrpc::kPlaneRankPath);
    const uint64_t topks = fleet.Served(shardrpc::kPlaneTopKPath);
    const uint64_t stateless = fleet.Served(shardrpc::kTopKPath);
    auto answer = engine.Answer(q.query, q.missing);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(fleet.Served(shardrpc::kPlaneOpenPath) - opens, 2u);
    // One rank batch for the explanations, then keyword adaption's
    // fan-outs; explain's top-k and the refined result.
    EXPECT_EQ(fleet.Served(shardrpc::kPlaneRankPath) - ranks,
              2 * (1 + answer->keyword->stats.probe_fanouts));
    EXPECT_EQ(fleet.Served(shardrpc::kPlaneTopKPath) - topks, 2u * 2);
    EXPECT_EQ(fleet.Served(shardrpc::kTopKPath), stateless);
    // A combined question sends no /shard/topk either.
    const uint64_t shard_topks = fleet.Served(shardrpc::kTopKPath);
    auto combined = engine.CombineRefinements(q.query, q.missing);
    ASSERT_TRUE(combined.ok()) << combined.status().ToString();
    ExpectSameRows(combined->refined_result,
                   reference::TopK(store, combined->refined),
                   "remote combined");
    EXPECT_EQ(fleet.Served(shardrpc::kTopKPath), shard_topks);
  }
  EXPECT_EQ(remote.error_epoch(), 0u);
}


// --- Rank batches outside a question -------------------------------------------

/// One rank batch outside any question: specs at three locations (one at
/// the origin, where the tie store's scores tie in runs), with several docs
/// and weights per location, targets drawn from the whole id range (so, in a
/// sharded layout, mostly held by another shard than the question's rows),
/// and, on a store of more than 64 keywords, a doc of 70.
struct StatelessBatch {
  std::vector<Query> queries;
  std::vector<OracleTargetSpec> specs;
  size_t locations = 0;
};

StatelessBatch MakeStatelessBatch(const ObjectStore& store, uint64_t seed,
                                  bool wide_doc) {
  StatelessBatch batch;
  Rng rng(seed);
  const std::vector<Point> locations = {Point{0.0, 0.0}, store.Get(17).loc,
                                        store.Get(400).loc};
  batch.locations = locations.size();
  for (const Point& loc : locations) {
    for (const double ws : {0.2, 0.5, 0.8}) {
      Query q;
      q.loc = loc;
      q.k = 5;
      q.w = Weights::FromWs(ws);
      q.doc = SampleQueryKeywords(store, 1 + batch.queries.size() % 3, &rng);
      batch.queries.push_back(q);
    }
  }
  if (wide_doc) {
    Query q = batch.queries[1];
    std::vector<TermId> terms(70);
    for (TermId t = 0; t < terms.size(); ++t) terms[t] = t;
    q.doc = KeywordSet(std::move(terms));
    batch.queries.push_back(q);
  }
  for (const Query& q : batch.queries) {
    for (int t = 0; t < 4; ++t) {
      batch.specs.push_back(OracleTargetSpec{
          &q, static_cast<ObjectId>(rng.NextBounded(store.size()))});
    }
  }
  return batch;
}

/// The batch's ranks, Rank() of every spec, and the explanations of the
/// last query (70 keywords on the random store), each against the
/// reference.
void ExpectStatelessRanks(const WhyNotOracle& oracle, const ObjectStore& store,
                          const StatelessBatch& batch,
                          const std::string& layout) {
  KeywordAdaptStats stats;
  const std::unique_ptr<RankProbeBatch> ranks =
      oracle.ProbeRankBatch(batch.specs, &stats);
  ASSERT_EQ(ranks->size(), batch.specs.size()) << layout;
  EXPECT_EQ(stats.objects_scored, store.size()) << layout;
  for (size_t i = 0; i < batch.specs.size(); ++i) {
    const OracleTargetSpec& spec = batch.specs[i];
    const size_t want = reference::Rank(store, *spec.query, spec.target);
    EXPECT_EQ(ranks->lower(i), want) << layout << " spec " << i;
    EXPECT_EQ(oracle.Rank(*spec.query, spec.target), want)
        << layout << " Rank of spec " << i;
  }
  const Query& last = batch.queries.back();
  std::vector<ObjectId> missing;
  for (int m = 0; m < 3; ++m) missing.push_back(batch.specs[m].target);
  auto explained = ExplainMissing(oracle, last, missing);
  ASSERT_TRUE(explained.ok()) << layout;
  for (size_t m = 0; m < missing.size(); ++m) {
    EXPECT_EQ((*explained)[m].rank, reference::Rank(store, last, missing[m]))
        << layout << " explained " << m;
  }
}

void RunStatelessLayouts(const ObjectStore& store,
                         const StatelessBatch& batch) {
  const Corpus corpus = CorpusBuilder().Build(ObjectStore(store));
  ExpectStatelessRanks(LocalWhyNotOracle(corpus), store, batch, "local");
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    std::atomic<size_t> opened{0};
    std::atomic<size_t> topk_searches{0};
    const CountingOracle oracle(sharded, &opened, &topk_searches);
    // One one-call question per shard per location for the batch.
    KeywordAdaptStats stats;
    oracle.ProbeRankBatch(batch.specs, &stats);
    EXPECT_EQ(opened.load(), shards * batch.locations) << shards << " shards";
    ExpectStatelessRanks(oracle, store, batch,
                         std::to_string(shards) + " shards");
  }

  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  const RemoteShardOracle oracle(remote);
  auto opens = [&](size_t s) {
    return fleet.services[s]
        ->metrics()
        .GetHistogram("yask_shard_request_ms",
                      {{"endpoint", shardrpc::kPlaneOpenPath}})
        ->count();
  };
  std::vector<uint64_t> before;
  for (size_t s = 0; s < fleet.services.size(); ++s) {
    before.push_back(opens(s));
  }
  KeywordAdaptStats stats;
  oracle.ProbeRankBatch(batch.specs, &stats);
  for (size_t s = 0; s < fleet.services.size(); ++s) {
    // Each shard opened one session per location, and closed them all.
    EXPECT_EQ(opens(s) - before[s], batch.locations) << "shard " << s;
    EXPECT_EQ(fleet.services[s]->open_sessions(), 0u) << "shard " << s;
  }
  ExpectStatelessRanks(oracle, store, batch, "remote");
  for (const auto& service : fleet.services) {
    EXPECT_EQ(service->open_sessions(), 0u);
  }
  EXPECT_EQ(remote.error_epoch(), 0u);
}

TEST(StatelessRankBatchTest, RandomCorpusOnEveryLayout) {
  const ObjectStore store = RandomStore(1500, 100, 611);
  RunStatelessLayouts(store,
                      MakeStatelessBatch(store, 612, /*wide_doc=*/true));
}

TEST(StatelessRankBatchTest, TieHeavyCorpusOnEveryLayout) {
  const ObjectStore store = TieStore(1200, 12, 613);
  RunStatelessLayouts(store,
                      MakeStatelessBatch(store, 614, /*wide_doc=*/false));
}

}  // namespace
}  // namespace yask
