// The shardrpc /shard/probe/refine contract on malformed member lists: the
// whole request is validated before any refiner moves, so an out-of-range
// or duplicated member index answers 400 and leaves the probe session
// exactly as it was — a following valid refine returns what it returns on a
// fresh session. Also the batched /shard/count route: scan and SetR specs
// mixed in one request each answer what they answer alone.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/query/scoring.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

class ProbeRefineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.num_objects = 3000;
    spec.vocabulary_size = 60;
    spec.seed = 5;
    corpus_ = std::make_unique<Corpus>(
        CorpusBuilder().Build(GenerateDataset(spec)));
    service_ = std::make_unique<ShardService>(
        *corpus_, ShardService::StandaloneInfo(*corpus_));
    ASSERT_TRUE(service_->Start().ok());

    const ObjectStore& store = corpus_->store();
    for (const ObjectId target : {ObjectId{17}, ObjectId{2024}}) {
      Query q;
      q.loc = store.Get(target).loc;
      q.doc = KeywordSet({0, 1, 2});
      queries_.push_back(q);
      targets_.push_back(target);
    }
  }

  void TearDown() override { service_->Stop(); }

  /// POSTs a raw shardrpc body; returns the response body.
  std::string Post(const char* path, const std::string& body, int* status) {
    auto response = HttpFetch(service_->port(), "POST", path, body, status);
    EXPECT_TRUE(response.ok());
    return response.ok() ? *response : std::string();
  }

  /// Opens a probe session over both members; returns its id.
  uint64_t Open() {
    BufWriter req;
    req.PutVarU64(queries_.size());
    const double dist_norm = corpus_->store().BoundsDiagonal();
    for (size_t i = 0; i < queries_.size(); ++i) {
      shardrpc::PutQuery(&req, queries_[i]);
      req.PutU32(targets_[i]);
      req.PutF64(
          Scorer(corpus_->store(), queries_[i], dist_norm).Score(targets_[i]));
    }
    int status = 0;
    const std::string body =
        Post(shardrpc::kProbeOpenPath, req.data(), &status);
    EXPECT_EQ(status, 200);
    BufReader in(body.data(), body.size());
    const uint64_t id = in.GetU64();
    in.GetU64();  // Member 0's interval: it must still be open.
    in.GetU64();
    EXPECT_EQ(in.GetU8(), 0) << "member 0 resolved at open";
    EXPECT_TRUE(in.ok());
    return id;
  }

  std::string Refine(uint64_t id, const std::vector<uint32_t>& members,
                     int* status) {
    BufWriter req;
    req.PutU64(id);
    req.PutVarU64(members.size());
    for (uint32_t m : members) req.PutVarU32(m);
    return Post(shardrpc::kProbeRefinePath, req.data(), status);
  }

  /// POSTs one /shard/count request of (member, method) specs; returns the
  /// counts.
  std::vector<uint64_t> Count(
      const std::vector<std::pair<size_t, shardrpc::CountMethod>>& specs,
      int* status) {
    BufWriter req;
    req.PutVarU64(specs.size());
    const double dist_norm = corpus_->store().BoundsDiagonal();
    for (const auto& [i, method] : specs) {
      shardrpc::PutQuery(&req, queries_[i]);
      req.PutU32(targets_[i]);
      req.PutF64(
          Scorer(corpus_->store(), queries_[i], dist_norm).Score(targets_[i]));
      req.PutU8(static_cast<uint8_t>(method));
    }
    const std::string body = Post(shardrpc::kCountPath, req.data(), status);
    std::vector<uint64_t> counts;
    if (*status != 200) return counts;
    BufReader in(body.data(), body.size());
    const uint64_t count = in.GetVarU64();
    for (uint64_t i = 0; i < count && in.ok(); ++i) {
      counts.push_back(in.GetU64());
    }
    EXPECT_TRUE(in.ok() && in.AtEnd());
    return counts;
  }

  /// What refining member 0 once answers on a fresh session.
  std::string FreshRefineOfMemberZero() {
    int status = 0;
    const std::string body = Refine(Open(), {0}, &status);
    EXPECT_EQ(status, 200);
    return body;
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ShardService> service_;
  std::vector<Query> queries_;
  std::vector<ObjectId> targets_;
};

TEST_F(ProbeRefineTest, OutOfRangeMemberAfterAValidOneRefinesNothing) {
  const std::string fresh = FreshRefineOfMemberZero();
  const uint64_t id = Open();
  int status = 0;
  Refine(id, {0, 5}, &status);
  EXPECT_EQ(status, 400);
  Refine(id, {7}, &status);
  EXPECT_EQ(status, 400);
  EXPECT_EQ(Refine(id, {0}, &status), fresh);
  EXPECT_EQ(status, 200);
}

TEST_F(ProbeRefineTest, DuplicatedMemberIsRejected) {
  const std::string fresh = FreshRefineOfMemberZero();
  const uint64_t id = Open();
  int status = 0;
  Refine(id, {0, 0}, &status);
  EXPECT_EQ(status, 400);
  Refine(id, {1, 0, 1}, &status);
  EXPECT_EQ(status, 400);
  EXPECT_EQ(Refine(id, {0}, &status), fresh);
  EXPECT_EQ(status, 200);
}

TEST_F(ProbeRefineTest, CountBatchMixesScanAndSetRSpecs) {
  using M = shardrpc::CountMethod;
  int status = 0;
  // Alone, each member's scan and SetR counts agree: both are exact.
  std::vector<uint64_t> alone;
  for (size_t i = 0; i < queries_.size(); ++i) {
    const std::vector<uint64_t> scan = Count({{i, M::kScan}}, &status);
    ASSERT_EQ(status, 200);
    ASSERT_EQ(scan.size(), 1u);
    EXPECT_EQ(Count({{i, M::kSetR}}, &status), scan) << "member " << i;
    alone.push_back(scan[0]);
  }
  EXPECT_NE(alone[0], alone[1]);
  const std::vector<uint64_t> mixed = Count({{1, M::kScan},
                                             {0, M::kSetR},
                                             {0, M::kScan},
                                             {1, M::kSetR},
                                             {1, M::kScan}},
                                            &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(mixed, (std::vector<uint64_t>{alone[1], alone[0], alone[0],
                                          alone[1], alone[1]}));
  Count({{0, M::kScan}, {1, static_cast<M>(9)}}, &status);
  EXPECT_EQ(status, 400);
}

}  // namespace
}  // namespace yask
