// Reference-backed property suite for every serving layout: the why-not
// refinements of the local oracle, the in-process sharded oracle (1/2/4
// shards, grid and hash routers) and the remote oracle over loopback shard
// servers, in both modes of each model, are checked against the index-free
// brute-force reference (tests/reference/whynot_reference.h) on random and
// tie-heavy corpora:
//   * Eqn. (4): refined keywords, k, ranks and penalty bits equal the
//     reference's exhaustive-subset answer exactly;
//   * Eqn. (3): a full scan confirms the returned (w', k'), the penalty is
//     Eqn. (3) recomputed from that rank, and no reference candidate beats
//     it by more than the documented 2e-7 slack.
// The reference shares no code with the per-shard kernels, so a bug there
// cannot pass by agreeing with itself across layouts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/server/shard_service.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/whynot_oracle.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

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
};

/// One why-not question with its reference answers (layout-free, so
/// computed once and checked against every layout).
struct Question {
  Query query;
  std::vector<ObjectId> missing;
  double lambda = 0.5;
  reference::KeywordAnswer keyword;
  reference::PreferenceAudit preference;
};

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

std::vector<Question> MakeQuestions(const ObjectStore& store, uint64_t seed,
                                    int count) {
  std::vector<Question> questions;
  Rng rng(seed);
  const double lambdas[] = {0.3, 0.5, 0.8};
  for (int trial = 0; trial < count; ++trial) {
    Question q;
    q.query.loc = SampleQueryLocation(store, &rng);
    q.query.doc = SampleQueryKeywords(store, 1 + trial % 2, &rng);
    q.query.k = 3 + static_cast<uint32_t>(rng.NextBounded(4));
    q.query.w = Weights::FromWs(rng.NextDouble(0.2, 0.8));
    q.lambda = lambdas[trial % 3];
    const size_t m_count = 1 + trial % 2;
    q.missing = PickMissing(store, q.query, m_count, /*offset=*/1 + trial % 4);
    if (q.missing.size() != m_count) continue;
    q.keyword =
        reference::SolveKeywords(store, q.query, q.missing, q.lambda);
    q.preference =
        reference::AuditPreference(store, q.query, q.missing, q.lambda);
    questions.push_back(std::move(q));
  }
  return questions;
}

/// Checks every question through `oracle` in both modes of each model.
void CheckLayout(const WhyNotOracle& oracle, const ObjectStore& store,
                 const std::vector<Question>& questions,
                 const std::string& layout) {
  for (size_t i = 0; i < questions.size(); ++i) {
    const Question& q = questions[i];
    const std::string tag = layout + " question " + std::to_string(i);
    for (const KwAdaptMode mode :
         {KwAdaptMode::kOptimized, KwAdaptMode::kBasic}) {
      KeywordAdaptOptions opts;
      opts.lambda = q.lambda;
      opts.mode = mode;
      auto got = AdaptKeywords(oracle, q.query, q.missing, opts);
      ASSERT_TRUE(got.ok()) << tag << ": " << got.status().ToString();
      reference::ExpectKeywordAnswer(
          *got, q.keyword,
          tag + " kw mode " + std::to_string(static_cast<int>(mode)));
    }
    for (const PrefAdjustMode mode :
         {PrefAdjustMode::kOptimized, PrefAdjustMode::kBasic}) {
      PreferenceAdjustOptions opts;
      opts.lambda = q.lambda;
      opts.mode = mode;
      auto got = AdjustPreference(oracle, q.query, q.missing, opts);
      ASSERT_TRUE(got.ok()) << tag << ": " << got.status().ToString();
      reference::ExpectPreferenceAnswer(
          store, q.query, q.missing, q.lambda, *got, q.preference,
          tag + " pref mode " + std::to_string(static_cast<int>(mode)));
    }
  }
}

/// Local, sharded (1/2/4 shards, grid and hash routers) and remote
/// loopback (2 and 4 shards) layouts over one store.
void RunAllLayouts(const ObjectStore& store, uint64_t seed, int count) {
  const std::vector<Question> questions = MakeQuestions(store, seed, count);
  size_t refined = 0;
  for (const Question& q : questions) {
    if (!q.keyword.already_in_result) ++refined;
  }
  ASSERT_GT(refined, 0u) << "no question needs a refinement";

  const Corpus corpus = CorpusBuilder().Build(ObjectStore(store));
  CheckLayout(LocalWhyNotOracle(corpus), store, questions, "local");

  for (const bool hash : {false, true}) {
    for (const uint32_t shards : {1u, 2u, 4u}) {
      std::unique_ptr<ShardRouter> router;
      if (hash) {
        router = std::make_unique<HashShardRouter>(shards);
      } else {
        router = GridShardRouter::Fit(store, shards);
      }
      const std::string label = router->Describe();
      const ShardedCorpus sharded =
          ShardedCorpus::Partition(store, std::move(router));
      CheckLayout(LocalWhyNotOracle(sharded), store, questions, label);
    }
  }

  for (const uint32_t shards : {2u, 4u}) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    ShardFleet fleet(sharded);
    auto connected = RemoteCorpus::Connect(fleet.endpoints);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    const RemoteCorpus remote = std::move(connected).value();
    CheckLayout(RemoteShardOracle(remote), store, questions,
                "remote " + std::to_string(shards) + " shards");
    EXPECT_EQ(remote.error_epoch(), 0u);
  }
}

TEST(ShardedReferenceTest, RandomCorpus) {
  DatasetSpec spec;
  spec.num_objects = 300;
  spec.vocabulary_size = 40;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 401;
  RunAllLayouts(GenerateDataset(spec), /*seed=*/411, /*count=*/6);
}

TEST(ShardedReferenceTest, SparseVocabularyCorpus) {
  // A tiny vocabulary: query and missing keywords overlap a lot, so many
  // candidates tie on ∆doc and rank and the deterministic tie order decides.
  DatasetSpec spec;
  spec.num_objects = 250;
  spec.vocabulary_size = 8;
  spec.min_keywords = 1;
  spec.max_keywords = 3;
  spec.seed = 402;
  RunAllLayouts(GenerateDataset(spec), /*seed=*/412, /*count=*/6);
}

TEST(ShardedReferenceTest, TieHeavyCorpus) {
  // Exact score ties everywhere: clones stacked on twelve points with six
  // keyword patterns, so ranks hinge on the global-id tie break, score lines
  // coincide, and crossings are shared by many objects.
  ObjectStore store;
  std::vector<TermId> t;
  for (const char* word : {"a", "b", "c", "d", "e"}) {
    t.push_back(store.mutable_vocab()->Intern(word));
  }
  const std::vector<std::vector<TermId>> patterns = {
      {t[0]}, {t[0], t[1]}, {t[1], t[2]}, {t[2], t[3], t[4]}, {t[3]},
      {t[0], t[4]}};
  for (int i = 0; i < 240; ++i) {
    const Point loc{0.1 + 0.25 * (i % 4), 0.2 + 0.3 * ((i / 4) % 3)};
    store.Add(loc, KeywordSet(patterns[(i / 6) % patterns.size()]), "clone");
  }
  RunAllLayouts(store, /*seed=*/413, /*count=*/8);
}

}  // namespace
}  // namespace yask
