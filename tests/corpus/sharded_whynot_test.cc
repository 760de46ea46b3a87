// Distributed why-not property test — the acceptance gate of the oracle
// seam: for randomized datasets, shard counts (1/2/4/8), routers and
// queries, a WhyNotEngine over a ShardedCorpus must answer BIT-IDENTICALLY
// to a WhyNotEngine over the unsharded Corpus built from the same objects —
// every explanation field (texts included), both refined queries, the
// recommendation, the refined result order, and the combined refinement.
// Score doubles must compare equal with ==: the sharded oracle must run the
// exact same floating-point arithmetic, merged exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/why_not_engine.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

void ExpectSameResult(const TopKResult& sharded, const TopKResult& expected,
                      const std::string& label) {
  ASSERT_EQ(sharded.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sharded[i].id, expected[i].id) << label << " rank " << i;
    EXPECT_EQ(sharded[i].score, expected[i].score) << label << " rank " << i;
  }
}

void ExpectSameExplanations(
    const std::vector<MissingObjectExplanation>& sharded,
    const std::vector<MissingObjectExplanation>& expected,
    const std::string& label) {
  ASSERT_EQ(sharded.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const MissingObjectExplanation& s = sharded[i];
    const MissingObjectExplanation& e = expected[i];
    EXPECT_EQ(s.id, e.id) << label;
    EXPECT_EQ(s.rank, e.rank) << label << " id " << e.id;
    EXPECT_EQ(s.score, e.score) << label << " id " << e.id;
    EXPECT_EQ(s.sdist, e.sdist) << label << " id " << e.id;
    EXPECT_EQ(s.tsim, e.tsim) << label << " id " << e.id;
    EXPECT_EQ(s.kth_score, e.kth_score) << label << " id " << e.id;
    EXPECT_EQ(s.kth_sdist, e.kth_sdist) << label << " id " << e.id;
    EXPECT_EQ(s.kth_tsim, e.kth_tsim) << label << " id " << e.id;
    EXPECT_EQ(s.reason, e.reason) << label << " id " << e.id;
    EXPECT_EQ(s.recommendation, e.recommendation) << label << " id " << e.id;
    EXPECT_EQ(s.text, e.text) << label << " id " << e.id;
  }
}

void ExpectSamePenalty(const PenaltyBreakdown& s, const PenaltyBreakdown& e,
                       const std::string& label) {
  EXPECT_EQ(s.value, e.value) << label;
  EXPECT_EQ(s.k_term, e.k_term) << label;
  EXPECT_EQ(s.mod_term, e.mod_term) << label;
  EXPECT_EQ(s.delta_k, e.delta_k) << label;
  EXPECT_EQ(s.delta_w, e.delta_w) << label;
  EXPECT_EQ(s.delta_doc, e.delta_doc) << label;
}

void ExpectSameAnswer(const WhyNotAnswer& sharded, const WhyNotAnswer& expected,
                      const std::string& label) {
  ExpectSameExplanations(sharded.explanations, expected.explanations, label);

  ASSERT_EQ(sharded.preference.has_value(), expected.preference.has_value())
      << label;
  if (expected.preference.has_value()) {
    const RefinedPreferenceQuery& s = *sharded.preference;
    const RefinedPreferenceQuery& e = *expected.preference;
    EXPECT_EQ(s.refined.w.ws, e.refined.w.ws) << label;
    EXPECT_EQ(s.refined.w.wt, e.refined.w.wt) << label;
    EXPECT_EQ(s.refined.k, e.refined.k) << label;
    EXPECT_EQ(s.refined.doc.ids(), e.refined.doc.ids()) << label;
    EXPECT_EQ(s.original_rank, e.original_rank) << label;
    EXPECT_EQ(s.refined_rank, e.refined_rank) << label;
    EXPECT_EQ(s.already_in_result, e.already_in_result) << label;
    ExpectSamePenalty(s.penalty, e.penalty, label + " pref penalty");
  }

  ASSERT_EQ(sharded.keyword.has_value(), expected.keyword.has_value())
      << label;
  if (expected.keyword.has_value()) {
    const RefinedKeywordQuery& s = *sharded.keyword;
    const RefinedKeywordQuery& e = *expected.keyword;
    EXPECT_EQ(s.refined.doc.ids(), e.refined.doc.ids()) << label;
    EXPECT_EQ(s.refined.k, e.refined.k) << label;
    EXPECT_EQ(s.original_rank, e.original_rank) << label;
    EXPECT_EQ(s.refined_rank, e.refined_rank) << label;
    EXPECT_EQ(s.already_in_result, e.already_in_result) << label;
    ExpectSamePenalty(s.penalty, e.penalty, label + " kw penalty");
  }

  EXPECT_EQ(sharded.recommended, expected.recommended) << label;
  ExpectSameResult(sharded.refined_result, expected.refined_result,
                   label + " refined result");
}

void ExpectSameCombined(const CombinedRefinement& s,
                        const CombinedRefinement& e,
                        const std::string& label) {
  EXPECT_EQ(s.refined.w.ws, e.refined.w.ws) << label;
  EXPECT_EQ(s.refined.doc.ids(), e.refined.doc.ids()) << label;
  EXPECT_EQ(s.refined.k, e.refined.k) << label;
  EXPECT_EQ(s.total_penalty, e.total_penalty) << label;
  EXPECT_EQ(s.preference_first, e.preference_first) << label;
  EXPECT_EQ(s.original_rank, e.original_rank) << label;
  EXPECT_EQ(s.refined_rank, e.refined_rank) << label;
  EXPECT_EQ(s.refined_result, e.refined_result) << label;
  ExpectSamePenalty(s.preference_penalty, e.preference_penalty,
                    label + " pref step");
  ExpectSamePenalty(s.keyword_penalty, e.keyword_penalty, label + " kw step");
}

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

struct TrialOptions {
  std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  bool use_hash_router = false;
  int trials = 4;
  WhyNotOptions whynot;
};

void RunPropertyTrials(const ObjectStore& store, uint64_t query_seed,
                       const TrialOptions& topt = {}) {
  const Corpus baseline = CorpusBuilder().Build(ObjectStore(store));
  const WhyNotEngine reference(baseline);

  for (const uint32_t shards : topt.shard_counts) {
    std::unique_ptr<ShardRouter> router;
    if (topt.use_hash_router) {
      router = std::make_unique<HashShardRouter>(shards);
    } else {
      router = GridShardRouter::Fit(store, shards);
    }
    const std::string label = router->Describe();
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, std::move(router));
    const WhyNotEngine engine(sharded);

    Rng rng(query_seed);
    for (int trial = 0; trial < topt.trials; ++trial) {
      Query q;
      q.loc = SampleQueryLocation(store, &rng);
      q.doc = SampleQueryKeywords(store, 1 + trial % 3, &rng);
      q.k = 3 + static_cast<uint32_t>(rng.NextBounded(5));
      const size_t m_count = 1 + trial % 2;
      const std::vector<ObjectId> missing =
          PickMissing(store, q, m_count, /*offset=*/2 + trial);
      if (missing.size() != m_count) continue;
      const std::string tag =
          label + " trial " + std::to_string(trial) + " k=" +
          std::to_string(q.k);

      auto expected = reference.Answer(q, missing, topt.whynot);
      auto actual = engine.Answer(q, missing, topt.whynot);
      ASSERT_TRUE(expected.ok()) << tag << ": " << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << tag << ": " << actual.status().ToString();
      ExpectSameAnswer(*actual, *expected, tag);

      auto combined_e = reference.CombineRefinements(q, missing, topt.whynot);
      auto combined_a = engine.CombineRefinements(q, missing, topt.whynot);
      ASSERT_TRUE(combined_e.ok()) << tag;
      ASSERT_TRUE(combined_a.ok()) << tag;
      ExpectSameCombined(*combined_a, *combined_e, tag + " combined");
    }
  }
}

TEST(ShardedWhyNotPropertyTest, ClusteredSyntheticDataset) {
  DatasetSpec spec;
  spec.num_objects = 900;
  spec.vocabulary_size = 60;
  spec.min_keywords = 2;
  spec.max_keywords = 5;
  spec.seed = 271;
  RunPropertyTrials(GenerateDataset(spec), /*query_seed=*/301);
}

TEST(ShardedWhyNotPropertyTest, UniformSyntheticDataset) {
  DatasetSpec spec;
  spec.num_objects = 600;
  spec.vocabulary_size = 40;
  spec.spatial = SpatialDistribution::kUniform;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 272;
  RunPropertyTrials(GenerateDataset(spec), /*query_seed=*/302);
}

TEST(ShardedWhyNotPropertyTest, HotelDemoDataset) {
  RunPropertyTrials(GenerateHotelDataset(), /*query_seed=*/303);
}

TEST(ShardedWhyNotPropertyTest, HashRouterScatter) {
  // A locality-free router is the merge's worst case: every shard holds a
  // slice of every neighbourhood, so nothing prunes and every fan-out
  // actually merges work from all shards.
  DatasetSpec spec;
  spec.num_objects = 500;
  spec.vocabulary_size = 40;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 273;
  TrialOptions topt;
  topt.use_hash_router = true;
  topt.shard_counts = {2, 4, 8};
  RunPropertyTrials(GenerateDataset(spec), /*query_seed=*/304, topt);
}

TEST(ShardedWhyNotPropertyTest, TieHeavyDegenerateDataset) {
  // Exact score ties everywhere: clones at shared points with shared docs.
  // Every merge rule must reproduce the global-id tie order across shard
  // borders — ranks, crossing candidates, refined results.
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
  TrialOptions topt;
  topt.trials = 3;
  RunPropertyTrials(store, /*query_seed=*/306, topt);
}

TEST(ShardedWhyNotPropertyTest, InlineFanOutWithoutPool) {
  // A 1-shard corpus (or any corpus on a single-core host) has no pool; the
  // inline sequential fan-out must merge to the same bits.
  DatasetSpec spec;
  spec.num_objects = 400;
  spec.vocabulary_size = 40;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 275;
  TrialOptions topt;
  topt.shard_counts = {1, 4};
  topt.trials = 3;
  RunPropertyTrials(GenerateDataset(spec), /*query_seed=*/307, topt);
}

TEST(ShardedWhyNotPropertyTest, ErrorsMatchUnsharded) {
  DatasetSpec spec;
  spec.num_objects = 200;
  spec.seed = 276;
  const ObjectStore store = GenerateDataset(spec);
  const Corpus baseline = CorpusBuilder().Build(ObjectStore(store));
  const WhyNotEngine reference(baseline);
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  const WhyNotEngine engine(sharded);

  Rng rng(7);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 2, &rng);
  q.k = 5;
  // Empty missing set and out-of-range ids fail identically.
  EXPECT_FALSE(engine.Answer(q, {}).ok());
  EXPECT_FALSE(reference.Answer(q, {}).ok());
  EXPECT_FALSE(engine.Answer(q, {999999}).ok());
  EXPECT_FALSE(reference.Answer(q, {999999}).ok());
}

}  // namespace
}  // namespace yask
