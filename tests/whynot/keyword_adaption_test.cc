#include "src/whynot/keyword_adaption.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

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
  spec.vocabulary_size = 50;
  spec.min_keywords = 2;
  spec.max_keywords = 6;
  return GenerateDataset(spec);
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

TEST(GenerateCandidatesTest, CountsMatchBinomials) {
  const KeywordSet qdoc({0, 1, 2});
  const KeywordSet ins({10, 11});
  // Distance 1: delete one of 3, or insert one of 2 => 5 candidates.
  EXPECT_EQ(GenerateCandidatesAtDistance(qdoc, ins, 1).size(), 5u);
  // Distance 2: C(3,2) + C(3,1)*C(2,1) + C(2,2) = 3 + 6 + 1 = 10.
  EXPECT_EQ(GenerateCandidatesAtDistance(qdoc, ins, 2).size(), 10u);
  // Distance 3: C(3,3)[empty, dropped] + C(3,2)*2 + C(3,1)*1 = 0+6+3 = 9.
  EXPECT_EQ(GenerateCandidatesAtDistance(qdoc, ins, 3).size(), 9u);
}

TEST(GenerateCandidatesTest, AllAtCorrectEditDistance) {
  const KeywordSet qdoc({0, 1, 2, 3});
  const KeywordSet ins({10, 11, 12});
  for (size_t e = 1; e <= 4; ++e) {
    for (const KeywordSet& c : GenerateCandidatesAtDistance(qdoc, ins, e)) {
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
    const auto cands = GenerateCandidatesAtDistance(qdoc, ins, e);
    std::set<std::vector<TermId>> unique;
    for (const KeywordSet& c : cands) unique.insert(c.ids());
    EXPECT_EQ(unique.size(), cands.size()) << "distance " << e;
  }
}

TEST(AdaptKeywordsTest, RejectsInvalidInput) {
  const ObjectStore store = MakeStore(100, 1);
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 3;
  EXPECT_FALSE(AdaptKeywords(store, tree, q, {}).ok());
  EXPECT_FALSE(AdaptKeywords(store, tree, q, {999999}).ok());
  KeywordAdaptOptions opts;
  opts.lambda = -0.1;
  EXPECT_FALSE(AdaptKeywords(store, tree, q, {1}, opts).ok());
}

TEST(AdaptKeywordsTest, AlreadyInResult) {
  const ObjectStore store = MakeStore(300, 2);
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0, 1});
  q.k = 10;
  const TopKResult top = TopKScan(store, q);
  auto result = AdaptKeywords(store, tree, q, {top[0].id});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->already_in_result);
  EXPECT_DOUBLE_EQ(result->penalty.value, 0.0);
  EXPECT_EQ(result->refined.doc, q.doc);
}

TEST(AdaptKeywordsTest, RefinedQueryRevivesMissing) {
  const ObjectStore store = MakeStore(800, 3);
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.4, 0.4};
  q.doc = KeywordSet({0, 1});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto result = AdaptKeywords(store, tree, q, missing);
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
  KcRTree tree(&store);
  tree.BulkLoad();
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
    auto result = AdaptKeywords(store, tree, q, missing, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->penalty.value, lambda + 1e-12);
  }
}

TEST(AdaptKeywordsTest, LambdaZeroKeepsDoc) {
  // λ=0: editing doc is pure cost; keep doc, k'=R0, penalty 0.
  const ObjectStore store = MakeStore(300, 5);
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.6, 0.6};
  q.doc = KeywordSet({0, 2});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  KeywordAdaptOptions opts;
  opts.lambda = 0.0;
  auto result = AdaptKeywords(store, tree, q, missing, opts);
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
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.4, 0.6};
  q.doc = KeywordSet({0, 1});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  KeywordAdaptOptions opts;
  opts.lambda = 1.0;
  // The unbounded λ=1 candidate space is the whole power set; cap the edit
  // distance to keep the audit exhaustive-checkable.
  opts.max_edit_distance = 2;
  auto result = AdaptKeywords(store, tree, q, missing, opts);
  ASSERT_TRUE(result.ok());

  // No candidate within the same edit budget achieves a better rank: the
  // refinement is the reference's, found by enumerating every keyword subset
  // within two edits.
  reference::ExpectKeywordAnswer(
      *result,
      reference::SolveKeywords(store, q, missing, opts.lambda,
                               opts.max_edit_distance),
      "lambda=1");
  EXPECT_LE(result->refined_rank, result->original_rank);
}

TEST(AdaptKeywordsTest, FloorTieAtTheSameDistanceStillCompetes) {
  // Two candidates at ∆doc = 1 revive M inside the original k, so both cost
  // exactly the ∆doc floor. The insertion {a, c, e} is generated first; the
  // deletion {a} comes later but wins the lexicographic tie order. With
  // chunks of one the winner is known before {a} is generated, and only a
  // STRICT per-candidate floor cut lets {a} still reach the tie order.
  ObjectStore store;
  std::vector<TermId> t;
  for (const char* word : {"a", "b", "c", "d", "e"}) {
    t.push_back(store.mutable_vocab()->Intern(word));
  }
  const ObjectId missing =
      store.Add(Point{0, 0}, KeywordSet({t[0], t[4]}), "m");
  store.Add(Point{0, 0}, KeywordSet({t[2]}), "rival");
  store.Add(Point{1, 1}, KeywordSet({t[1], t[3]}), "far");
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0, 0};
  q.doc = KeywordSet({t[0], t[2]});
  q.k = 1;
  const reference::KeywordAnswer want =
      reference::SolveKeywords(store, q, {missing}, 0.5);
  ASSERT_EQ(want.doc.ids(), std::vector<TermId>{t[0]});
  for (const KwAdaptMode mode :
       {KwAdaptMode::kBoundAndPrune, KwAdaptMode::kBasic}) {
    for (const size_t chunk : {size_t{1}, size_t{128}}) {
      KeywordAdaptOptions opts;
      opts.mode = mode;
      opts.probe_batch_size = chunk;
      auto got = AdaptKeywords(store, tree, q, {missing}, opts);
      ASSERT_TRUE(got.ok());
      reference::ExpectKeywordAnswer(
          *got, want,
          "mode=" + std::to_string(static_cast<int>(mode)) +
              " chunk=" + std::to_string(chunk));
    }
  }
}

// Basic and bound-and-prune must return identical refinements.
class KwModesAgree
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, size_t>> {};

TEST_P(KwModesAgree, BasicEqualsBoundAndPrune) {
  const auto [seed, lambda, m_count] = GetParam();
  const ObjectStore store = MakeStore(250, seed);
  KcRTree tree(&store);
  tree.BulkLoad();
  Rng rng(seed * 7 + 1);
  for (int trial = 0; trial < 3; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(3), &rng);
    q.k = 3 + static_cast<uint32_t>(rng.NextBounded(4));
    const std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() != m_count) continue;

    KeywordAdaptOptions basic;
    basic.lambda = lambda;
    basic.mode = KwAdaptMode::kBasic;
    KeywordAdaptOptions pruned;
    pruned.lambda = lambda;
    pruned.mode = KwAdaptMode::kBoundAndPrune;

    auto rb = AdaptKeywords(store, tree, q, missing, basic);
    auto rp = AdaptKeywords(store, tree, q, missing, pruned);
    ASSERT_TRUE(rb.ok());
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(rb->already_in_result, rp->already_in_result);
    if (rb->already_in_result) continue;
    EXPECT_NEAR(rb->penalty.value, rp->penalty.value, 1e-12)
        << "seed=" << seed << " λ=" << lambda << " trial=" << trial;
    EXPECT_EQ(rb->refined.doc.ids(), rp->refined.doc.ids());
    EXPECT_EQ(rb->refined.k, rp->refined.k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwModesAgree,
    ::testing::Combine(::testing::Values(3, 11, 23),
                       ::testing::Values(0.3, 0.5, 0.7),
                       ::testing::Values(1u, 2u)));

// Every chunking of the level-synchronous search, in both modes, must
// return exactly the refinement the index-free reference finds by
// enumerating every keyword subset — the strict-cut argument makes the
// winner independent of how candidates are chunked — while issuing exactly
// one refine fan-out per refinement level (the remote round-trip gate).
// Chunks of one and two candidates exercise the per-candidate floor cut
// between flushes, where a non-strict cut would drop exact ties.
class KwReferenceAgrees
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, size_t>> {};

TEST_P(KwReferenceAgrees, EveryChunkSizeMatchesReference) {
  const auto [seed, lambda, m_count] = GetParam();
  const ObjectStore store = MakeStore(250, seed);
  KcRTree tree(&store);
  tree.BulkLoad();
  Rng rng(seed * 13 + 5);
  for (int trial = 0; trial < 3; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(3), &rng);
    q.k = 3 + static_cast<uint32_t>(rng.NextBounded(4));
    const std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() != m_count) continue;
    const reference::KeywordAnswer want =
        reference::SolveKeywords(store, q, missing, lambda);

    for (const KwAdaptMode mode :
         {KwAdaptMode::kBoundAndPrune, KwAdaptMode::kBasic}) {
      for (const size_t chunk : {size_t{1}, size_t{2}, size_t{128},
                                 size_t{0}}) {
        KeywordAdaptOptions opts;
        opts.lambda = lambda;
        opts.mode = mode;
        opts.probe_batch_size = chunk;
        auto got = AdaptKeywords(store, tree, q, missing, opts);
        ASSERT_TRUE(got.ok());
        const std::string label =
            "seed=" + std::to_string(seed) + " λ=" + std::to_string(lambda) +
            " trial=" + std::to_string(trial) + " mode=" +
            std::to_string(static_cast<int>(mode)) +
            " chunk=" + std::to_string(chunk);
        reference::ExpectKeywordAnswer(*got, want, label);
        // The round-trip shape: one fan-out per refinement level.
        EXPECT_EQ(got->stats.probe_fanouts, got->stats.refine_levels)
            << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwReferenceAgrees,
    ::testing::Combine(::testing::Values(5, 17, 29),
                       ::testing::Values(0.3, 0.5, 0.7),
                       ::testing::Values(1u, 2u)));

TEST(AdaptKeywordsTest, PruningStatsShowWork) {
  const ObjectStore store = MakeStore(600, 6);
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.3, 0.7};
  q.doc = KeywordSet({0, 1, 2});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  auto result = AdaptKeywords(store, tree, q, missing);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates_generated, 0u);
  EXPECT_GT(result->stats.kcr_nodes_expanded, 0u);
  // Pruning should discard at least one candidate without exact resolution.
  EXPECT_GT(result->stats.candidates_pruned_bounds +
                result->stats.candidates_pruned_floor,
            0u);
}

TEST(AdaptKeywordsTest, MaxEditDistanceCapsSearch) {
  const ObjectStore store = MakeStore(300, 7);
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0, 1});
  q.k = 4;
  const std::vector<ObjectId> missing = PickMissing(store, q, 1);
  ASSERT_FALSE(missing.empty());
  KeywordAdaptOptions opts;
  opts.max_edit_distance = 1;
  auto result = AdaptKeywords(store, tree, q, missing, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->penalty.delta_doc, 1u);
}

// Exhaustive optimality audit: on a small dataset, the reference enumerates
// EVERY keyword subset of q.doc ∪ M.doc and ranks by full scan; AdaptKeywords
// must return its refinement exactly — keywords, k, ranks and penalty.
class KwOptimalityAudit : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KwOptimalityAudit, MatchesExhaustiveSearch) {
  DatasetSpec spec;
  spec.num_objects = 120;
  spec.seed = GetParam();
  spec.vocabulary_size = 25;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  const ObjectStore store = GenerateDataset(spec);
  KcRTree tree(&store);
  tree.BulkLoad();
  Rng rng(GetParam() ^ 0xF00D);

  for (int trial = 0; trial < 3; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 3;
    const std::vector<ObjectId> missing = PickMissing(store, q, 1);
    if (missing.empty()) continue;

    const double lambda = 0.5;
    KeywordAdaptOptions opts;
    opts.lambda = lambda;
    auto result = AdaptKeywords(store, tree, q, missing, opts);
    ASSERT_TRUE(result.ok());
    reference::ExpectKeywordAnswer(
        *result, reference::SolveKeywords(store, q, missing, lambda),
        "seed=" + std::to_string(GetParam()) +
            " trial=" + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KwOptimalityAudit,
                         ::testing::Values(5, 17, 41));

TEST(AdaptKeywordsTest, RefinedDocOnlyUsesAllowedKeywords) {
  const ObjectStore store = MakeStore(400, 8);
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.2, 0.2};
  q.doc = KeywordSet({0, 1});
  q.k = 5;
  const std::vector<ObjectId> missing = PickMissing(store, q, 2);
  ASSERT_EQ(missing.size(), 2u);
  auto result = AdaptKeywords(store, tree, q, missing);
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
