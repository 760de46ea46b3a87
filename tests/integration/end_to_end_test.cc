// End-to-end integration tests: the full YASK pipeline — dataset, indexes,
// top-k engine, why-not engine, refinement guarantees — on both synthetic
// data and the demo's Hong Kong hotels, mirroring §4's demonstration
// scenarios (Bob's coffee, Carol's conference hotel).

#include <gtest/gtest.h>

#include <set>

#include "src/corpus/corpus.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/why_not_engine.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

/// Exercises the complete workflow on one dataset + query + missing pick.
void RunWorkflow(ObjectStore dataset, const Query& q, size_t missing_rank,
                 double lambda) {
  const Corpus corpus = CorpusBuilder().Build(std::move(dataset));
  const ObjectStore& store = corpus.store();
  ASSERT_TRUE(corpus.rtree().Validate().ok());
  WhyNotEngine engine(corpus);

  // Step 1: initial top-k query.
  const TopKResult initial = engine.TopK(q);
  ASSERT_EQ(initial.size(), q.k);

  // Step 2: the user expected the object at rank `missing_rank`.
  Query probe = q;
  probe.k = static_cast<uint32_t>(missing_rank + 1);
  const TopKResult wide = engine.TopK(probe);
  ASSERT_GT(wide.size(), missing_rank);
  const ObjectId expected = wide[missing_rank].id;

  // Step 3: why-not question, both models.
  WhyNotOptions options;
  options.lambda = lambda;
  auto answer = engine.Answer(q, {expected}, options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const WhyNotAnswer& a = answer.value();

  // Explanations agree with independent rank computation.
  ASSERT_EQ(a.explanations.size(), 1u);
  EXPECT_EQ(a.explanations[0].rank, missing_rank + 1);
  EXPECT_EQ(a.explanations[0].rank, reference::Rank(store, q, expected));

  // Both refinements revive the expected object.
  ASSERT_TRUE(a.preference.has_value());
  ASSERT_TRUE(a.keyword.has_value());
  for (const Query& refined :
       {a.preference->refined, a.keyword->refined}) {
    const TopKResult result = engine.TopK(refined);
    std::set<ObjectId> ids;
    for (const ScoredObject& so : result) ids.insert(so.id);
    EXPECT_TRUE(ids.count(expected))
        << "refined query failed to revive object " << expected;
  }

  // Penalties bounded by the pure-k fallback.
  EXPECT_LE(a.preference->penalty.value, lambda + 1e-12);
  EXPECT_LE(a.keyword->penalty.value, lambda + 1e-12);

  // Both models must report the same original rank R(M, q).
  EXPECT_EQ(a.preference->original_rank, a.keyword->original_rank);
  EXPECT_EQ(a.preference->original_rank, missing_rank + 1);
}

TEST(EndToEndTest, BobsCoffeeScenario) {
  // Example 1: Bob wants a top-3 "coffee" result; a nearby cafe is missing.
  ObjectStore store;
  Vocabulary* v = store.mutable_vocab();
  const TermId coffee = v->Intern("coffee");
  const TermId espresso = v->Intern("espresso");
  const TermId bar = v->Intern("bar");
  Rng rng(2016);
  // 200 cafes/bars around town.
  for (int i = 0; i < 200; ++i) {
    KeywordSet doc;
    doc.Insert(rng.NextBernoulli(0.6) ? coffee : bar);
    if (rng.NextBernoulli(0.3)) doc.Insert(espresso);
    store.Add(Point{rng.NextDouble(), rng.NextDouble()}, doc,
              "shop" + std::to_string(i));
  }
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({coffee});
  q.k = 3;
  RunWorkflow(std::move(store), q, /*missing_rank=*/6, /*lambda=*/0.5);
}

TEST(EndToEndTest, CarolsHotelScenario) {
  // Example 2: Carol's top-3 "clean comfortable" hotels near the venue.
  ObjectStore store = GenerateHotelDataset();
  const Vocabulary& v = store.vocab();
  Query q;
  q.loc = Point{114.158, 22.281};
  q.doc = KeywordSet({v.Find("clean"), v.Find("comfortable")});
  q.k = 3;
  RunWorkflow(std::move(store), q, /*missing_rank=*/8, /*lambda=*/0.5);
}

TEST(EndToEndTest, SyntheticSweep) {
  DatasetSpec spec;
  spec.num_objects = 2000;
  spec.seed = 99;
  const ObjectStore store = GenerateDataset(spec);
  Rng rng(7);
  for (double lambda : {0.25, 0.75}) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 2, &rng);
    q.k = 5;
    RunWorkflow(ObjectStore(store), q, /*missing_rank=*/11, lambda);
  }
}

TEST(EndToEndTest, ApplyingBothRefinementsSequentially) {
  // §3.2: "Users can apply the two refinement functions simultaneously to
  // find better solutions." Apply preference first, then keyword adaption on
  // the already-refined query; the missing object must stay in the result.
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  const ObjectStore& store = corpus.store();
  WhyNotEngine engine(corpus);

  const Vocabulary& v = store.vocab();
  Query q;
  q.loc = Point{114.172, 22.298};  // Tsim Sha Tsui.
  q.doc = KeywordSet({v.Find("wifi"), v.Find("luxury")});
  q.k = 3;
  Query probe = q;
  probe.k = 25;
  const ObjectId expected = engine.TopK(probe)[20].id;

  auto first = AdjustPreference(LocalWhyNotOracle(store, /*rtree=*/nullptr), q,
                                {expected});
  ASSERT_TRUE(first.ok());
  auto second =
      AdaptKeywords(LocalWhyNotOracle(corpus), first->refined, {expected});
  ASSERT_TRUE(second.ok());
  const TopKResult final_result = engine.TopK(second->refined);
  std::set<ObjectId> ids;
  for (const ScoredObject& so : final_result) ids.insert(so.id);
  EXPECT_TRUE(ids.count(expected));
}

}  // namespace
}  // namespace yask
