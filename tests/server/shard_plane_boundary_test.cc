// The shardrpc /shard/plane/* routes refuse what the weight sweep never
// sends. A plane is opened only for a query Query::Validate accepts; a count
// batch takes weights strictly inside (0, 1), finite anchors (the column
// search is exact only for w ≥ 0) and at most kMaxCountBatchPairs
// (weight, anchor) pairs; a crossing query takes an interval
// 0 ≤ wlo ≤ whi ≤ 1. Each bad request answers 400, and the session still
// answers the valid request that follows it.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/query/scoring.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/shard_primitives.h"

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

  int OpenStatus(const Query& query, uint64_t* id = nullptr) {
    BufWriter req;
    shardrpc::PutQuery(&req, query);
    req.PutU8(1);  // Optimized: the column index.
    int status = 0;
    auto response = HttpFetch(service_->port(), "POST",
                              shardrpc::kPlaneOpenPath, req.data(), &status);
    EXPECT_TRUE(response.ok());
    if (status == 200 && id != nullptr) {
      BufReader in(response->data(), response->size());
      *id = in.GetU64();
      EXPECT_TRUE(in.ok() && in.AtEnd());
    }
    return status;
  }

  uint64_t Open() {
    uint64_t id = 0;
    EXPECT_EQ(OpenStatus(query_, &id), 200);
    return id;
  }

  int CountBatchStatus(uint64_t id, const std::vector<double>& weights,
                       const std::vector<PlanePoint>& anchors) {
    BufWriter req;
    req.PutU64(id);
    req.PutVarU64(weights.size());
    for (double w : weights) req.PutF64(w);
    req.PutVarU64(anchors.size());
    for (const PlanePoint& a : anchors) shardrpc::PutPlanePoint(&req, a);
    return Post(shardrpc::kPlaneCountBatchPath, req.data());
  }

  int CrossingsStatus(uint64_t id, const PlanePoint& anchor, double wlo,
                      double whi) {
    BufWriter req;
    req.PutU64(id);
    shardrpc::PutPlanePoint(&req, anchor);
    req.PutF64(wlo);
    req.PutF64(whi);
    return Post(shardrpc::kPlaneCrossingsPath, req.data());
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
