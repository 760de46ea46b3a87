// The shardrpc /shard/plane/* routes refuse what a why-not question never
// sends. A question is opened only for a query Query::Validate accepts and a
// keyword universe of at most kMaxKeywordUniverse terms; a rank spec must
// sit at the question's location with a doc inside q.doc ∪ U; a count batch
// takes weights strictly inside (0, 1), finite anchors (the column search is
// exact only for w ≥ 0) and at most kMaxCountBatchPairs (weight, anchor)
// pairs; a crossing query takes an interval 0 ≤ wlo ≤ whi ≤ 1; a top-k
// takes finite weights ≥ 0, a doc inside q.doc ∪ U and a k within kMaxK or
// the shard's object count (so does /shard/topk, which also takes only a
// finite location, finite weights ≥ 0 and a threshold that is not NaN).
// Each bad request answers
// 400, an unknown session 404, and the session still answers the valid
// request that follows it. Seed-driven mutations of valid /shard/plane/open,
// /shard/plane/rank, /shard/plane/topk, /shard/plane/count_batch and
// /shard/plane/crossings bodies (the JsonFuzz pattern of json_test.cc)
// answer 200, 400 or 404 and never crash the shard.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/corpus/corpus.h"
#include "src/query/scoring.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/shard_primitives.h"
#include "tests/reference/whynot_reference.h"

namespace yask {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class ShardPlaneBoundaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.num_objects = 2000;
    spec.vocabulary_size = 40;
    spec.seed = 9;
    corpus_ = std::make_unique<Corpus>(
        CorpusBuilder().Build(GenerateDataset(spec)));
    service_ = std::make_unique<ShardService>(
        *corpus_, ShardService::StandaloneInfo(*corpus_));
    ASSERT_TRUE(service_->Start().ok());

    query_.loc = corpus_->store().Get(11).loc;
    query_.doc = KeywordSet({0, 1, 2});
    query_.k = 5;
    const Scorer scorer(corpus_->store(), query_,
                        corpus_->store().BoundsDiagonal());
    const SpatialObject& o = corpus_->store().Get(42);
    anchor_ = PlanePoint{1.0 - scorer.SDist(o.loc), scorer.TSim(o.doc), 42};
  }

  void TearDown() override { service_->Stop(); }

  /// POSTs a raw shardrpc body; returns the HTTP status.
  int Post(const char* path, const std::string& body) {
    int status = 0;
    auto response = HttpFetch(service_->port(), "POST", path, body, &status);
    EXPECT_TRUE(response.ok());
    return status;
  }

  /// A /shard/plane/open body (shardrpc v9: the query, then U).
  static std::string OpenBody(const Query& query, const KeywordSet& universe) {
    BufWriter req;
    shardrpc::PutQuery(&req, query);
    req.PutDeltaIds(universe.ids());
    return req.data();
  }

  int OpenStatus(const Query& query, uint64_t* id = nullptr,
                 const KeywordSet& universe = KeywordSet({3, 4})) {
    int status = 0;
    auto response =
        HttpFetch(service_->port(), "POST", shardrpc::kPlaneOpenPath,
                  OpenBody(query, universe), &status);
    EXPECT_TRUE(response.ok());
    if (status == 200 && id != nullptr) {
      BufReader in(response->data(), response->size());
      *id = in.GetU64();
      EXPECT_EQ(in.GetVarU64(), corpus_->size());  // Objects.
      EXPECT_GT(in.GetVarU64(), 0u);               // Groups.
      EXPECT_GT(in.GetVarU64(), 0u);               // Columns.
      EXPECT_TRUE(in.ok() && in.AtEnd());
    }
    return status;
  }

  /// A /shard/plane/rank body: one spec per query, each targeting object 42
  /// at its score.
  std::string RankBody(uint64_t id, const std::vector<Query>& queries) {
    BufWriter req;
    req.PutU64(id);
    req.PutVarU64(queries.size());
    for (const Query& q : queries) {
      shardrpc::PutQuery(&req, q);
      req.PutU32(42);
      req.PutF64(Scorer(corpus_->store(), q).Score(42));
    }
    return req.data();
  }

  /// A /shard/plane/topk body.
  static std::string TopKBody(uint64_t id, const Weights& w,
                              const KeywordSet& doc, uint32_t k) {
    BufWriter req;
    req.PutU64(id);
    req.PutF64(w.ws);
    req.PutF64(w.wt);
    req.PutDeltaIds(doc.ids());
    req.PutVarU32(k);
    return req.data();
  }

  uint64_t Open() {
    uint64_t id = 0;
    EXPECT_EQ(OpenStatus(query_, &id), 200);
    return id;
  }

  /// A /shard/plane/count_batch body.
  static std::string CountBatchBody(uint64_t id,
                                    const std::vector<double>& weights,
                                    const std::vector<PlanePoint>& anchors) {
    BufWriter req;
    req.PutU64(id);
    req.PutVarU64(weights.size());
    for (double w : weights) req.PutF64(w);
    req.PutVarU64(anchors.size());
    for (const PlanePoint& a : anchors) shardrpc::PutPlanePoint(&req, a);
    return req.data();
  }

  /// A /shard/plane/crossings body.
  static std::string CrossingsBody(uint64_t id, const PlanePoint& anchor,
                                   double wlo, double whi) {
    BufWriter req;
    req.PutU64(id);
    shardrpc::PutPlanePoint(&req, anchor);
    req.PutF64(wlo);
    req.PutF64(whi);
    return req.data();
  }

  int CountBatchStatus(uint64_t id, const std::vector<double>& weights,
                       const std::vector<PlanePoint>& anchors) {
    return Post(shardrpc::kPlaneCountBatchPath,
                CountBatchBody(id, weights, anchors));
  }

  int CrossingsStatus(uint64_t id, const PlanePoint& anchor, double wlo,
                      double whi) {
    return Post(shardrpc::kPlaneCrossingsPath,
                CrossingsBody(id, anchor, wlo, whi));
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ShardService> service_;
  Query query_;
  PlanePoint anchor_;
};

TEST_F(ShardPlaneBoundaryTest, OpenRejectsAQueryValidateRejects) {
  std::vector<Query> bad;
  for (const Point loc : {Point{kNaN, 0.5}, Point{0.5, kInf}}) {
    Query q = query_;
    q.loc = loc;
    bad.push_back(q);
  }
  for (const double ws : {0.0, 1.0, -0.5, kNaN}) {
    Query q = query_;
    q.w.ws = ws;
    q.w.wt = 1.0 - ws;
    bad.push_back(q);
  }
  Query no_keywords = query_;
  no_keywords.doc = KeywordSet();
  bad.push_back(no_keywords);
  for (size_t i = 0; i < bad.size(); ++i) {
    ASSERT_FALSE(bad[i].Validate().ok()) << "case " << i;
    EXPECT_EQ(OpenStatus(bad[i]), 400) << "case " << i;
  }
  EXPECT_EQ(OpenStatus(query_), 200);
}

TEST_F(ShardPlaneBoundaryTest, OpenRejectsAUniverseOverTheCap) {
  std::vector<TermId> terms;
  for (TermId t = 0; t < kMaxKeywordUniverse; ++t) terms.push_back(t);
  uint64_t id = 0;
  EXPECT_EQ(OpenStatus(query_, &id, KeywordSet(terms)), 200);
  terms.push_back(TermId{kMaxKeywordUniverse});
  EXPECT_EQ(OpenStatus(query_, nullptr, KeywordSet(terms)), 400);
}

TEST_F(ShardPlaneBoundaryTest, RankSpecsStayInsideTheQuestion) {
  const uint64_t id = Open();
  // Covered: the question's location, a doc inside q.doc ∪ U = {0..4}, any
  // weights.
  Query inside = query_;
  inside.doc = KeywordSet({1, 3, 4});
  inside.w = Weights::FromWs(0.8);
  EXPECT_EQ(Post(shardrpc::kPlaneRankPath, RankBody(id, {query_, inside})),
            200);
  // Another location, even one differing only in the sign of a zero or in
  // the last bit, and a keyword outside the universe.
  std::vector<Query> outside;
  for (const Point loc :
       {Point{query_.loc.x, std::nextafter(query_.loc.y, 2.0)},
        Point{query_.loc.x + 0.125, query_.loc.y}}) {
    Query q = query_;
    q.loc = loc;
    outside.push_back(q);
  }
  Query extra = query_;
  extra.doc = KeywordSet({0, 5});
  outside.push_back(extra);
  for (size_t i = 0; i < outside.size(); ++i) {
    EXPECT_EQ(Post(shardrpc::kPlaneRankPath,
                   RankBody(id, {query_, outside[i]})),
              400)
        << "case " << i;
  }
  Query origin = query_;
  origin.loc = Point{0.0, 0.0};
  uint64_t zero = 0;
  ASSERT_EQ(OpenStatus(origin, &zero), 200);
  Query negative_zero = origin;
  negative_zero.loc = Point{-0.0, 0.0};
  EXPECT_EQ(Post(shardrpc::kPlaneRankPath, RankBody(zero, {negative_zero})),
            400);
  EXPECT_EQ(Post(shardrpc::kPlaneRankPath, RankBody(zero, {origin})), 200);
  // A spec Query::Validate rejects, and an unknown session.
  Query invalid = query_;
  invalid.w.ws = 1.5;
  EXPECT_EQ(Post(shardrpc::kPlaneRankPath, RankBody(id, {invalid})), 400);
  EXPECT_EQ(Post(shardrpc::kPlaneRankPath, RankBody(id + 1000, {query_})),
            404);
  // The session still answers.
  EXPECT_EQ(Post(shardrpc::kPlaneRankPath, RankBody(id, {inside})), 200);
}

TEST_F(ShardPlaneBoundaryTest, TopKAnswersTheReferenceRows) {
  const uint64_t id = Open();
  for (const auto& [w, doc] :
       std::vector<std::pair<Weights, KeywordSet>>{
           {Weights::FromWs(0.5), query_.doc},
           {Weights::FromWs(0.8), KeywordSet({3, 4})},  // Doc within U.
           {Weights{0.0, 1.0}, KeywordSet({1, 4})},
           {Weights{1.0, 0.0}, query_.doc}}) {
    for (const uint32_t k : {uint32_t{1}, uint32_t{9}, kMaxK}) {
      int status = 0;
      auto body = HttpFetch(service_->port(), "POST", shardrpc::kPlaneTopKPath,
                            TopKBody(id, w, doc, k), &status);
      ASSERT_TRUE(body.ok());
      ASSERT_EQ(status, 200) << *body;
      BufReader in(body->data(), body->size());
      const TopKResult rows = shardrpc::GetScoredRows(&in);
      in.GetU64();  // Groups opened.
      EXPECT_LE(in.GetU64(), corpus_->size());  // Rows scored.
      EXPECT_TRUE(in.ok() && in.AtEnd());
      Query q = query_;
      q.w = w;
      q.doc = doc;
      q.k = k;
      EXPECT_EQ(rows, reference::TopK(corpus_->store(), q))
          << "ws " << w.ws << " k " << k;
    }
  }
}

TEST_F(ShardPlaneBoundaryTest, TopKRefusesWhatAQuestionNeverAsks) {
  const uint64_t id = Open();
  const Weights w = Weights::FromWs(0.5);
  // A doc beyond q.doc ∪ U = {0..4}; weights not finite or below zero.
  EXPECT_EQ(Post(shardrpc::kPlaneTopKPath, TopKBody(id, w, KeywordSet({0, 5}), 3)),
            400);
  for (const Weights bad : {Weights{-0.25, 1.25}, Weights{0.5, -0.5},
                            Weights{kNaN, 0.5}, Weights{0.5, kInf}}) {
    EXPECT_EQ(Post(shardrpc::kPlaneTopKPath, TopKBody(id, bad, query_.doc, 3)),
              400)
        << "ws " << bad.ws << " wt " << bad.wt;
  }
  // A malformed body: truncated, or with a trailing byte.
  const std::string good = TopKBody(id, w, query_.doc, 3);
  EXPECT_EQ(Post(shardrpc::kPlaneTopKPath, good.substr(0, good.size() - 1)),
            400);
  EXPECT_EQ(Post(shardrpc::kPlaneTopKPath, good + '\0'), 400);
  // k past kMaxK and the shard's 2000 objects.
  EXPECT_EQ(Post(shardrpc::kPlaneTopKPath,
                 TopKBody(id, w, query_.doc, kMaxK + 1)),
            400);
  // An unknown session.
  EXPECT_EQ(Post(shardrpc::kPlaneTopKPath,
                 TopKBody(id + 1000, w, query_.doc, 3)),
            404);
  // The session still answers.
  EXPECT_EQ(Post(shardrpc::kPlaneTopKPath, good), 200);
}

TEST_F(ShardPlaneBoundaryTest, ShardTopKBoundsK) {
  const auto status_at = [&](uint32_t k) {
    Query q = query_;
    q.k = k;
    BufWriter req;
    shardrpc::PutQuery(&req, q);
    req.PutF64(-kInf);
    return Post(shardrpc::kTopKPath, req.data());
  };
  EXPECT_EQ(status_at(kMaxK), 200);
  EXPECT_EQ(status_at(kMaxK + 1), 400);
  EXPECT_EQ(status_at(~uint32_t{0}), 400);
}

TEST_F(ShardPlaneBoundaryTest, ShardTopKRefusesOutOfDomainInput) {
  const auto status_of = [&](const Query& q, double prune_below) {
    BufWriter req;
    shardrpc::PutQuery(&req, q);
    req.PutF64(prune_below);
    return Post(shardrpc::kTopKPath, req.data());
  };
  for (const double bad : {kNaN, kInf, -kInf}) {
    Query q = query_;
    q.loc.x = bad;
    EXPECT_EQ(status_of(q, -kInf), 400) << "loc.x " << bad;
    q = query_;
    q.loc.y = bad;
    EXPECT_EQ(status_of(q, -kInf), 400) << "loc.y " << bad;
  }
  for (const double bad : {kNaN, kInf, -kInf, -0.5}) {
    Query q = query_;
    q.w.ws = bad;
    EXPECT_EQ(status_of(q, -kInf), 400) << "ws " << bad;
    q = query_;
    q.w.wt = bad;
    EXPECT_EQ(status_of(q, -kInf), 400) << "wt " << bad;
  }
  EXPECT_EQ(status_of(query_, kNaN), 400);
  // Zero weights and any non-NaN threshold are valid.
  Query zero = query_;
  zero.w = Weights{0.0, 0.0};
  EXPECT_EQ(status_of(zero, -kInf), 200);
  zero.w = Weights{0.0, 1.0};
  EXPECT_EQ(status_of(zero, 0.25), 200);
  zero.w = Weights{1.0, 0.0};
  EXPECT_EQ(status_of(zero, kInf), 200);
  EXPECT_EQ(status_of(query_, -kInf), 200);
}

/// Seed-driven byte mutations of valid question bodies: the shard answers
/// each with 200, 400 or 404, and a valid request after them still works.
class ShardPlaneFuzz : public ShardPlaneBoundaryTest,
                       public ::testing::WithParamInterface<uint64_t> {};

TEST_P(ShardPlaneFuzz, MutatedQuestionBodiesAnswerWithoutCrashing) {
  const uint64_t id = Open();
  Query other = query_;
  other.doc = KeywordSet({0, 4});
  const std::vector<std::pair<const char*, std::string>> bases = {
      {shardrpc::kPlaneOpenPath, OpenBody(query_, KeywordSet({3, 4}))},
      {shardrpc::kPlaneRankPath, RankBody(id, {query_, other})},
      {shardrpc::kPlaneTopKPath,
       TopKBody(id, Weights::FromWs(0.3), KeywordSet({0, 4}), 12)},
      {shardrpc::kPlaneCountBatchPath,
       CountBatchBody(id, {0.2, 0.45, 0.8}, {anchor_, anchor_})},
      {shardrpc::kPlaneCrossingsPath, CrossingsBody(id, anchor_, 0.1, 0.9)},
  };
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    const auto& [path, base] = bases[iter % bases.size()];
    std::string body = base;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(3)) {
        case 0:  // Flip a byte.
          body[rng.NextBounded(body.size())] =
              static_cast<char>(rng.NextBounded(256));
          break;
        case 1:  // Truncate.
          body.resize(rng.NextBounded(body.size() + 1));
          break;
        default:  // Append junk.
          body += static_cast<char>(rng.NextBounded(256));
          break;
      }
      if (body.empty()) body = base.substr(0, 1);
    }
    const int status = Post(path, body);
    EXPECT_TRUE(status == 200 || status == 400 || status == 404)
        << path << " iteration " << iter << " answered " << status;
  }
  EXPECT_EQ(Post(shardrpc::kPlaneRankPath, RankBody(id, {query_})), 200);
  EXPECT_EQ(CountBatchStatus(id, {0.3, 0.7}, {anchor_}), 200);
  EXPECT_EQ(CrossingsStatus(id, anchor_, 0.2, 0.8), 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardPlaneFuzz, ::testing::Values(1, 2, 3));

TEST_F(ShardPlaneBoundaryTest, CountBatchRejectsOneBadWeightOrAnchor) {
  const uint64_t id = Open();
  for (const double w : {kNaN, -0.25, 0.0, 1.0, 1.5, kInf, -kInf}) {
    EXPECT_EQ(CountBatchStatus(id, {0.3, w, 0.7}, {anchor_}), 400)
        << "w=" << w;
  }
  for (const PlanePoint bad :
       {PlanePoint{0.5, kNaN, 7}, PlanePoint{kNaN, 0.2, 42},
        PlanePoint{0.5, kInf, 42}, PlanePoint{-kInf, 0.2, 42},
        PlanePoint{kInf, 0.2, 42}, PlanePoint{0.5, -kInf, 42}}) {
    EXPECT_EQ(CountBatchStatus(id, {0.3, 0.7}, {anchor_, bad}), 400)
        << "anchor (" << bad.x << ", " << bad.y << ")";
  }
  EXPECT_EQ(CountBatchStatus(id, {0.3, 0.7}, {anchor_}), 200);
}

TEST_F(ShardPlaneBoundaryTest, CountBatchRejectsMorePairsThanTheCap) {
  const uint64_t id = Open();
  const auto spread = [](size_t n) {
    std::vector<double> weights(n);
    for (size_t i = 0; i < n; ++i) weights[i] = (i + 1.0) / (n + 1.0);
    return weights;
  };
  // cap + 1 = 65537 is prime: one anchor; and a 2-D grid just past the cap.
  EXPECT_EQ(CountBatchStatus(id, spread(kMaxCountBatchPairs + 1), {anchor_}),
            400);
  EXPECT_EQ(CountBatchStatus(id, spread(257),
                             std::vector<PlanePoint>(256, anchor_)),
            400);
  EXPECT_EQ(CountBatchStatus(id, spread(kMaxCountBatchPairs), {anchor_}), 200);
  EXPECT_EQ(CountBatchStatus(id, spread(kMaxCountBatchPairs / 2),
                             {anchor_, anchor_}),
            200);
}

TEST_F(ShardPlaneBoundaryTest, CrossingsRejectAnIntervalOutsideTheUnitRange) {
  const uint64_t id = Open();
  const std::vector<std::pair<double, double>> bad = {
      {0.7, 0.3},  {kNaN, 0.5}, {0.5, kNaN}, {-0.1, 0.5},
      {0.5, 1.25}, {0.2, kInf}, {-kInf, 0.5}, {kNaN, kNaN}};
  for (const auto& [wlo, whi] : bad) {
    EXPECT_EQ(CrossingsStatus(id, anchor_, wlo, whi), 400)
        << "[" << wlo << ", " << whi << "]";
  }
  EXPECT_EQ(CrossingsStatus(id, PlanePoint{kInf, 0.1, 3}, 0.2, 0.8), 400);
  EXPECT_EQ(CrossingsStatus(id, anchor_, 0.2, 0.8), 200);
  EXPECT_EQ(CrossingsStatus(id, anchor_, 0.5, 0.5), 200);  // One point.
  EXPECT_EQ(CrossingsStatus(id, anchor_, 0.0, 1.0), 200);  // The whole line.
}

}  // namespace
}  // namespace yask
