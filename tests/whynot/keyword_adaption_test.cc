#include "src/whynot/keyword_adaption.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>

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
  spec.vocabulary_size = 50;
  spec.min_keywords = 2;
  spec.max_keywords = 6;
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

/// Every candidate ForEachCandidateAtDistance visits, in its order.
std::vector<KeywordSet> CandidatesAt(const KeywordSet& qdoc,
                                     const KeywordSet& ins, size_t distance) {
  std::vector<KeywordSet> out;
  ForEachCandidateAtDistance(qdoc, ins, distance, [&](KeywordSet cand) {
    out.push_back(std::move(cand));
    return true;
  });
  return out;
}

TEST(GenerateCandidatesTest, CountsMatchBinomials) {
  const KeywordSet qdoc({0, 1, 2});
  const KeywordSet ins({10, 11});
  // Distance 1: delete one of 3, or insert one of 2 => 5 candidates.
  EXPECT_EQ(CandidatesAt(qdoc, ins, 1).size(), 5u);
  // Distance 2: C(3,2) + C(3,1)*C(2,1) + C(2,2) = 3 + 6 + 1 = 10.
  EXPECT_EQ(CandidatesAt(qdoc, ins, 2).size(), 10u);
  // Distance 3: C(3,3)[empty, dropped] + C(3,2)*2 + C(3,1)*1 = 0+6+3 = 9.
  EXPECT_EQ(CandidatesAt(qdoc, ins, 3).size(), 9u);
}

TEST(GenerateCandidatesTest, AllAtCorrectEditDistance) {
  const KeywordSet qdoc({0, 1, 2, 3});
  const KeywordSet ins({10, 11, 12});
  for (size_t e = 1; e <= 4; ++e) {
    for (const KeywordSet& c : CandidatesAt(qdoc, ins, e)) {
      EXPECT_EQ(KeywordSet::EditDistance(qdoc, c), e);
      EXPECT_FALSE(c.empty());
      // Inserted keywords come only from the insertable pool.
      for (TermId t : KeywordSet::Difference(c, qdoc)) {
        EXPECT_TRUE(ins.Contains(t));
      }
    }
  }
}

TEST(GenerateCandidatesTest, NoDuplicates) {
  const KeywordSet qdoc({0, 1, 2});
  const KeywordSet ins({5, 6, 7});
  for (size_t e = 1; e <= 5; ++e) {
    const auto cands = CandidatesAt(qdoc, ins, e);
    std::set<std::vector<TermId>> unique;
    for (const KeywordSet& c : cands) unique.insert(c.ids());
    EXPECT_EQ(unique.size(), cands.size()) << "distance " << e;
  }
}

TEST(GenerateCandidatesTest, VisitStopsWhenTheVisitorSaysSo) {
  const KeywordSet qdoc({0, 1, 2});
  const KeywordSet ins({5, 6, 7});
  const std::vector<KeywordSet> all = CandidatesAt(qdoc, ins, 2);
  ASSERT_EQ(all.size(), 15u);
  // Stopping at every position: the visit ends there, having seen exactly
  // the prefix of the full order.
  for (size_t stop = 1; stop <= all.size(); ++stop) {
    std::vector<KeywordSet> seen;
    ForEachCandidateAtDistance(qdoc, ins, 2, [&](KeywordSet cand) {
      seen.push_back(std::move(cand));
      return seen.size() < stop;
    });
    EXPECT_EQ(seen, std::vector<KeywordSet>(all.begin(), all.begin() + stop))
        << "stop " << stop;
  }
}

TEST(AdaptKeywordsTest, RejectsInvalidInput) {
  const ObjectStore store = MakeStore(100, 1);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 3;
  EXPECT_FALSE(AdaptKeywords(oracle, q, {}).ok());
  EXPECT_FALSE(AdaptKeywords(oracle, q, {999999}).ok());
  KeywordAdaptOptions opts;
  opts.lambda = -0.1;
  EXPECT_FALSE(AdaptKeywords(oracle, q, {1}, opts).ok());
}

TEST(AdaptKeywordsTest, AlreadyInResult) {
  const ObjectStore store = MakeStore(300, 2);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0, 1});
  q.k = 10;
  const TopKResult top = TopKScan(store, q);
  auto result = AdaptKeywords(oracle, q, {top[0].id});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->already_in_result);
  EXPECT_DOUBLE_EQ(result->penalty.value, 0.0);
  EXPECT_EQ(result->refined.doc, q.doc);
}

TEST(AdaptKeywordsTest, RefinedQueryRevivesMissing) {
  const ObjectStore store = MakeStore(800, 3);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.4, 0.4};
  q.doc = KeywordSet({0, 1});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto result = AdaptKeywords(oracle, q, missing);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->already_in_result);

  const TopKResult refined = TopKScan(store, result->refined);
  std::set<ObjectId> ids;
  for (const ScoredObject& so : refined) ids.insert(so.id);
  for (ObjectId m : missing) {
    EXPECT_TRUE(ids.count(m)) << "missing object " << m << " not revived";
  }
  // The refined query keeps loc and w; only doc/k may change.
  EXPECT_EQ(result->refined.loc, q.loc);
  EXPECT_EQ(result->refined.w, q.w);
}

TEST(AdaptKeywordsTest, PenaltyNeverExceedsLambda) {
  const ObjectStore store = MakeStore(400, 4);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Rng rng(17);
  for (double lambda : {0.2, 0.5, 0.8}) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 5;
    const std::vector<ObjectId> missing = PickMissing(store, q, 1);
    if (missing.empty()) continue;
    KeywordAdaptOptions opts;
    opts.lambda = lambda;
    auto result = AdaptKeywords(oracle, q, missing, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->penalty.value, lambda + 1e-12);
  }
}

TEST(AdaptKeywordsTest, LambdaZeroKeepsDoc) {
  // λ=0: editing doc is pure cost; keep doc, k'=R0, penalty 0.
  const ObjectStore store = MakeStore(300, 5);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.6, 0.6};
  q.doc = KeywordSet({0, 2});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  KeywordAdaptOptions opts;
  opts.lambda = 0.0;
  auto result = AdaptKeywords(oracle, q, missing, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->refined.doc, q.doc);
  EXPECT_EQ(result->refined.k, result->original_rank);
  EXPECT_DOUBLE_EQ(result->penalty.value, 0.0);
}

TEST(AdaptKeywordsTest, LambdaOnePrefersDocEditsOverK) {
  // λ=1: ∆doc is free, only ∆k is penalised — the refinement should reach
  // the best achievable rank through keyword edits alone, never settling for
  // the pure-k fallback if any candidate improves the rank.
  const ObjectStore store = MakeStore(300, 9);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.4, 0.6};
  q.doc = KeywordSet({0, 1});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  KeywordAdaptOptions opts;
  opts.lambda = 1.0;
  // At λ = 1 no floor cuts, so the search ranks the whole power set of
  // q.doc ∪ M.doc (at most 8 keywords here).
  auto result = AdaptKeywords(oracle, q, missing, opts);
  ASSERT_TRUE(result.ok());

  // No candidate achieves a better rank: the refinement is the reference's,
  // found by enumerating every keyword subset.
  reference::ExpectKeywordAnswer(
      *result, reference::SolveKeywords(store, q, missing, opts.lambda),
      "lambda=1");
  EXPECT_LE(result->refined_rank, result->original_rank);
}

TEST(AdaptKeywordsTest, FloorTieAtTheSameDistanceStillCompetes) {
  // Candidates are ranked in chunks of 128, and the winner of the first
  // chunk must not cut an equally cheap candidate of the same ∆doc that a
  // later chunk holds. q.doc = {a, b} and M = {m} with m.doc = {a, x1..x16},
  // so ∆doc = 2 has 152 candidates: first the 120 insertion pairs
  // {a, b, xi, xj}, then {xi, b}, then {a, xi}. Every insertion pair revives
  // m at rank 1, costing exactly the ∆doc floor, and so does {a, x1}, 137th
  // in the level; it wins the lexicographic tie order (a and the xi get
  // smaller term ids than b). Only a STRICT
  // per-candidate floor cut lets {a, x1} reach that tie order. Two rivals
  // keep every ∆doc = 1 candidate from reviving m: {b, y1, y2, y3} beats it
  // under {b} and {a, b, xi}, and {a, z1..z7} under {a}.
  ObjectStore store;
  Vocabulary* vocab = store.mutable_vocab();
  const TermId a = vocab->Intern("a");
  std::vector<TermId> m_doc{a};
  for (int i = 1; i <= 16; ++i) {
    m_doc.push_back(vocab->Intern("x" + std::to_string(i)));
  }
  const TermId b = vocab->Intern("b");
  std::vector<TermId> rival_b{b};
  for (int i = 1; i <= 3; ++i) {
    rival_b.push_back(vocab->Intern("y" + std::to_string(i)));
  }
  std::vector<TermId> rival_a{a};
  for (int i = 1; i <= 7; ++i) {
    rival_a.push_back(vocab->Intern("z" + std::to_string(i)));
  }
  // The smallest id: m wins every exact score tie.
  const ObjectId missing = store.Add(Point{0, 0}, KeywordSet(m_doc), "m");
  store.Add(Point{0, 0}, KeywordSet(rival_b), "rival b");
  store.Add(Point{0, 0}, KeywordSet(rival_a), "rival a");
  store.Add(Point{1, 1}, KeywordSet({vocab->Intern("far")}), "far");
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0, 0};
  q.doc = KeywordSet({a, b});
  q.k = 1;
  const reference::KeywordAnswer want =
      reference::SolveKeywords(store, q, {missing}, 0.5);
  ASSERT_EQ(want.doc.ids(), (std::vector<TermId>{a, m_doc[1]}));
  ASSERT_EQ(want.rank, 1u);
  const ScanOracle scan(store);
  for (const WhyNotOracle* layout :
       {static_cast<const WhyNotOracle*>(&oracle),
        static_cast<const WhyNotOracle*>(&scan)}) {
    auto got = AdaptKeywords(*layout, q, {missing});
    ASSERT_TRUE(got.ok());
    reference::ExpectKeywordAnswer(*got, want,
                                   layout == &scan ? "scan" : "columns");
    // All 18 candidates at ∆doc = 1 and all 152 at ∆doc = 2 are ranked.
    EXPECT_EQ(got->stats.candidates_resolved, 18u + 152u);
  }
}

/// Runs AdaptKeywords over the columns and over the scanning baseline and
/// checks both against the reference: the same refinement bit for bit, the
/// same search (every counter but objects_scored), and objects_scored read
/// as n per rank fan-out (columns) or n per (candidate, missing object)
/// spec (scan).
void ExpectBothLayoutsMatchReference(const ObjectStore& store, const Query& q,
                                     const std::vector<ObjectId>& missing,
                                     double lambda, const std::string& label) {
  const LocalWhyNotOracle columns(store, /*setr=*/nullptr);
  const ScanOracle scan(store);
  const reference::KeywordAnswer want =
      reference::SolveKeywords(store, q, missing, lambda);
  KeywordAdaptOptions opts;
  opts.lambda = lambda;
  auto rc = AdaptKeywords(columns, q, missing, opts);
  auto rs = AdaptKeywords(scan, q, missing, opts);
  ASSERT_TRUE(rc.ok()) << label;
  ASSERT_TRUE(rs.ok()) << label;
  reference::ExpectKeywordAnswer(*rc, want, label + " columns");
  reference::ExpectKeywordAnswer(*rs, want, label + " scan");
  const KeywordAdaptStats& c = rc->stats;
  const KeywordAdaptStats& sc = rs->stats;
  EXPECT_EQ(c.candidates_generated, sc.candidates_generated) << label;
  EXPECT_EQ(c.candidates_pruned_floor, sc.candidates_pruned_floor) << label;
  EXPECT_EQ(c.candidates_resolved, sc.candidates_resolved) << label;
  EXPECT_EQ(c.probe_fanouts, sc.probe_fanouts) << label;
  EXPECT_FALSE(c.truncated || sc.truncated) << label;
  EXPECT_EQ(c.objects_scored, c.probe_fanouts * store.size()) << label;
  if (!rs->already_in_result) {
    // R(M, q) plus every resolved candidate, one scan per spec.
    EXPECT_EQ(sc.objects_scored,
              (sc.candidates_resolved + 1) * missing.size() * store.size())
        << label;
  }
  EXPECT_EQ(c.refine_levels + sc.refine_levels, 0u) << label;
  EXPECT_EQ(c.candidates_pruned_bounds + sc.candidates_pruned_bounds, 0u)
      << label;
}

// The search over the columns and over the scanning baseline must return
// exactly the refinement the index-free reference finds by enumerating
// every keyword subset.
class KwReferenceAgrees
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, size_t>> {};

TEST_P(KwReferenceAgrees, BothLayoutsMatchReference) {
  const auto [seed, lambda, m_count] = GetParam();
  const ObjectStore store = MakeStore(250, seed);
  Rng rng(seed * 13 + 5);
  for (int trial = 0; trial < 3; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(3), &rng);
    q.k = 3 + static_cast<uint32_t>(rng.NextBounded(4));
    const std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() != m_count) continue;
    ExpectBothLayoutsMatchReference(
        store, q, missing, lambda,
        "seed=" + std::to_string(seed) + " λ=" + std::to_string(lambda) +
            " trial=" + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwReferenceAgrees,
    ::testing::Combine(::testing::Values(3, 5, 11, 17, 23, 29),
                       ::testing::Values(0.3, 0.5, 0.7),
                       ::testing::Values(1u, 2u)));

// A denser vocabulary (25 terms, 2–4 per object) over fewer objects: the
// reference's exhaustive subset search must again be matched exactly.
class KwOptimalityAudit : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KwOptimalityAudit, MatchesExhaustiveSearch) {
  DatasetSpec spec;
  spec.num_objects = 120;
  spec.seed = GetParam();
  spec.vocabulary_size = 25;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  const ObjectStore store = GenerateDataset(spec);
  Rng rng(GetParam() ^ 0xF00D);
  for (int trial = 0; trial < 3; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 3;
    const std::vector<ObjectId> missing = PickMissing(store, q, 1);
    if (missing.empty()) continue;
    ExpectBothLayoutsMatchReference(
        store, q, missing, 0.5,
        "seed=" + std::to_string(GetParam()) +
            " trial=" + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KwOptimalityAudit,
                         ::testing::Values(5, 17, 41));

TEST(AdaptKeywordsTest, BothLayoutsMatchReferenceOnTies) {
  // Query points on the grid itself and between its points, over objects
  // that tie in location and keywords.
  const ObjectStore store = TieStore(300, 41);
  Rng rng(43);
  for (int trial = 0; trial < 8; ++trial) {
    Query q;
    q.loc = trial % 2 == 0 ? store.Get(rng.NextBounded(store.size())).loc
                           : Point{0.3, 0.55};
    q.doc = SampleQueryKeywords(store, 1 + trial % 2, &rng);
    q.k = 3 + static_cast<uint32_t>(trial % 3);
    const std::vector<ObjectId> missing = PickMissing(store, q, 1 + trial % 2);
    if (missing.empty()) continue;
    ExpectBothLayoutsMatchReference(store, q, missing, 0.5,
                                    "ties trial=" + std::to_string(trial));
  }
}

TEST(AdaptKeywordsTest, PruningStatsShowWork) {
  const ObjectStore store = MakeStore(600, 6);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.3, 0.7};
  q.doc = KeywordSet({0, 1, 2});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto result = AdaptKeywords(oracle, q, missing);
  ASSERT_TRUE(result.ok());
  const KeywordAdaptStats& st = result->stats;
  EXPECT_GT(st.candidates_generated, 0u);
  // Every generated candidate is either cut by the floor or ranked exactly.
  EXPECT_EQ(st.candidates_generated,
            st.candidates_pruned_floor + st.candidates_resolved);
  EXPECT_GT(st.probe_fanouts, 0u);
  EXPECT_EQ(st.objects_scored, st.probe_fanouts * store.size());
  // The KcR-era counters stay 0.
  EXPECT_EQ(st.kcr_nodes_expanded, 0u);
  EXPECT_EQ(st.refine_levels, 0u);
  EXPECT_EQ(st.candidates_pruned_bounds, 0u);
}

/// A store whose one "missing" object carries `extra` keywords beyond the
/// query's, so |q.doc ∪ M.doc| = extra + 1, behind a crowd that outranks it.
struct WideUniverse {
  ObjectStore store;
  Query query;
  ObjectId missing = kInvalidObject;

  explicit WideUniverse(size_t extra) {
    std::vector<TermId> terms;
    for (size_t i = 0; i <= extra; ++i) {
      terms.push_back(store.mutable_vocab()->Intern("w" + std::to_string(i)));
    }
    for (int i = 0; i < 20; ++i) {
      store.Add(Point{0.01 * i, 0.0}, KeywordSet({terms[0]}), "crowd");
    }
    missing = store.Add(Point{1, 1}, KeywordSet(terms), "missing");
    query.loc = Point{0, 0};
    query.doc = KeywordSet({terms[0]});
    query.k = 3;
  }
};

TEST(AdaptKeywordsTest, KeywordUniverseAtCapIsAnswered) {
  const WideUniverse wide(kMaxKeywordUniverse - 1);
  const LocalWhyNotOracle oracle(wide.store, /*setr=*/nullptr);
  // Too wide for the reference's subset enumeration: the columns and the
  // scanning baseline must agree, and the ranks must be the scan
  // reference's.
  KeywordAdaptOptions opts;
  // No candidate lifts m over the crowd, so the pure-k seed λ stays the
  // best; at λ = 0.02 the ∆doc floor cuts from ∆doc = 2, leaving the 63
  // insertions of ∆doc = 1, one per high mask bit.
  opts.lambda = 0.02;
  auto columns = AdaptKeywords(oracle, wide.query, {wide.missing}, opts);
  ASSERT_TRUE(columns.ok()) << columns.status().ToString();
  auto basic = AdaptKeywords(ScanOracle(wide.store), wide.query,
                             {wide.missing}, opts);
  ASSERT_TRUE(basic.ok()) << basic.status().ToString();
  EXPECT_EQ(columns->stats.candidates_resolved, kMaxKeywordUniverse - 1);
  EXPECT_EQ(columns->refined.doc.ids(), basic->refined.doc.ids());
  EXPECT_EQ(columns->refined.k, basic->refined.k);
  EXPECT_EQ(columns->penalty.value, basic->penalty.value);
  EXPECT_EQ(columns->original_rank,
            reference::RankOfSet(wide.store, wide.query, {wide.missing}));
  EXPECT_EQ(columns->refined_rank,
            reference::RankOfSet(wide.store, columns->refined,
                                 {wide.missing}));
}

TEST(AdaptKeywordsTest, KeywordUniverseOverCapIsInvalidArgument) {
  // The bound is the search's, whichever oracle ranks: the scanning
  // baseline refuses the same question.
  const WideUniverse wide(kMaxKeywordUniverse);
  const LocalWhyNotOracle oracle(wide.store, /*setr=*/nullptr);
  const ScanOracle scan(wide.store);
  for (const WhyNotOracle* layout :
       {static_cast<const WhyNotOracle*>(&oracle),
        static_cast<const WhyNotOracle*>(&scan)}) {
    auto got = AdaptKeywords(*layout, wide.query, {wide.missing});
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdaptKeywordsTest, CandidateBoundTruncatesTheSearch) {
  // |U| = 19 allows 2^19 − 2 candidates. No candidate lifts m over the
  // crowd, so the seed λ stays the best and the ∆doc floor cuts no level
  // before the kMaxKeywordCandidates-th candidate (∆doc = 13): the search
  // stops there and answers the best candidate generated, the pure-k one.
  const WideUniverse wide(18);
  const LocalWhyNotOracle oracle(wide.store, /*setr=*/nullptr);
  auto got = AdaptKeywords(oracle, wide.query, {wide.missing});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->stats.truncated);
  EXPECT_EQ(got->stats.candidates_generated, kMaxKeywordCandidates);
  EXPECT_EQ(got->refined.doc, wide.query.doc);
  EXPECT_EQ(got->refined_rank,
            reference::RankOfSet(wide.store, got->refined, {wide.missing}));
  EXPECT_EQ(got->refined.k, got->original_rank);
}

TEST(AdaptKeywordsTest, MissingSetAtSpecCapIsAnsweredAndOverIsRejected) {
  // kMaxProbeSpecs + 1 identical objects: every one of the first
  // kMaxProbeSpecs is "missing" from a top-1, and no candidate exists (U is
  // the query's one keyword), so only R(M, q) is ranked — one fan-out of
  // exactly kMaxProbeSpecs specs.
  ObjectStore store;
  const TermId a = store.mutable_vocab()->Intern("a");
  std::vector<ObjectId> missing;
  for (size_t i = 0; i <= kMaxProbeSpecs; ++i) {
    missing.push_back(store.Add(Point{0.5, 0.5}, KeywordSet({a}), "clone"));
  }
  store.Add(Point{0, 0}, KeywordSet({a}), "corner");
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({a});
  q.k = 1;

  const std::vector<ObjectId> at_cap(missing.begin(), missing.end() - 1);
  auto got = AdaptKeywords(oracle, q, at_cap);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Clones tie; the D6 order ranks the highest id last.
  EXPECT_EQ(got->original_rank, kMaxProbeSpecs);
  EXPECT_EQ(got->refined.k, kMaxProbeSpecs);
  EXPECT_EQ(got->stats.probe_fanouts, 1u);

  auto over = AdaptKeywords(oracle, q, missing);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdaptKeywordsTest, RefinedDocOnlyUsesAllowedKeywords) {
  const ObjectStore store = MakeStore(400, 8);
  const LocalWhyNotOracle oracle(store, /*setr=*/nullptr);
  Query q;
  q.loc = Point{0.2, 0.2};
  q.doc = KeywordSet({0, 1});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 2);
  ASSERT_EQ(missing.size(), 2u);
  auto result = AdaptKeywords(oracle, q, missing);
  ASSERT_TRUE(result.ok());
  KeywordSet m_doc;
  for (ObjectId m : missing) {
    m_doc = KeywordSet::Union(m_doc, store.Get(m).doc);
  }
  const KeywordSet universe = KeywordSet::Union(q.doc, m_doc);
  EXPECT_TRUE(result->refined.doc.IsSubsetOf(universe));
}

}  // namespace
}  // namespace yask
