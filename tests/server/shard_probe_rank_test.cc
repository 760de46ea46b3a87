// The shardrpc /shard/probe/rank boundary, both directions.
//
// The shard answers 400 to a truncated body or trailing bytes, a non-finite
// target score, a query Query::Validate rejects, more than kMaxProbeSpecs
// specs, specs whose keywords span more than kMaxKeywordUniverse terms, or
// more than kMaxProbeShapes distinct (loc, ws) query shapes — and answers
// exactly (the /shard/count scan counts) at each cap. A
// coordinator that gets a malformed reply records a shard error and its
// /whynot answers 503; nothing is read out of bounds. Also the batched
// /shard/count route: scan and SetR specs mixed in one request each answer
// what they answer alone.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/query/scoring.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/shard_primitives.h"

namespace yask {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One (query, target, target score) spec of a rank request.
struct Spec {
  Query query;
  ObjectId target = kInvalidObject;
  double target_score = 0.0;
};

std::string EncodeRank(const std::vector<Spec>& specs) {
  BufWriter req;
  req.PutVarU64(specs.size());
  for (const Spec& spec : specs) {
    shardrpc::PutQuery(&req, spec.query);
    req.PutU32(spec.target);
    req.PutF64(spec.target_score);
  }
  return req.data();
}

std::vector<uint64_t> DecodeCounts(const std::string& body) {
  BufReader in(body.data(), body.size());
  const uint64_t count = in.GetVarU64();
  std::vector<uint64_t> counts;
  for (uint64_t i = 0; i < count && in.ok(); ++i) {
    counts.push_back(in.GetU64());
  }
  EXPECT_TRUE(in.ok() && in.AtEnd());
  return counts;
}

class ProbeRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.num_objects = 3000;
    spec.vocabulary_size = 80;
    spec.seed = 5;
    corpus_ = std::make_unique<Corpus>(
        CorpusBuilder().Build(GenerateDataset(spec)));
    service_ = std::make_unique<ShardService>(
        *corpus_, ShardService::StandaloneInfo(*corpus_));
    ASSERT_TRUE(service_->Start().ok());
  }

  void TearDown() override { service_->Stop(); }

  /// A spec ranking `target` under a query at `near`'s location with `doc`.
  Spec MakeSpec(ObjectId near, ObjectId target, KeywordSet doc) const {
    Spec spec;
    spec.query.loc = corpus_->store().Get(near).loc;
    spec.query.doc = std::move(doc);
    spec.target = target;
    spec.target_score = Scorer(corpus_->store(), spec.query,
                               corpus_->store().BoundsDiagonal())
                            .Score(target);
    return spec;
  }

  /// POSTs a raw shardrpc body; returns the response body.
  std::string Post(const char* path, const std::string& body, int* status) {
    auto response = HttpFetch(service_->port(), "POST", path, body, status);
    EXPECT_TRUE(response.ok());
    return response.ok() ? *response : std::string();
  }

  int RankStatus(const std::string& body) {
    int status = 0;
    Post(shardrpc::kProbeRankPath, body, &status);
    return status;
  }

  std::vector<uint64_t> Rank(const std::vector<Spec>& specs) {
    int status = 0;
    const std::string body =
        Post(shardrpc::kProbeRankPath, EncodeRank(specs), &status);
    EXPECT_EQ(status, 200) << body;
    return status == 200 ? DecodeCounts(body) : std::vector<uint64_t>{};
  }

  /// POSTs one /shard/count request, one method for every spec.
  std::vector<uint64_t> Count(
      const std::vector<std::pair<Spec, shardrpc::CountMethod>>& specs,
      int* status) {
    BufWriter req;
    req.PutVarU64(specs.size());
    for (const auto& [spec, method] : specs) {
      shardrpc::PutQuery(&req, spec.query);
      req.PutU32(spec.target);
      req.PutF64(spec.target_score);
      req.PutU8(static_cast<uint8_t>(method));
    }
    const std::string body = Post(shardrpc::kCountPath, req.data(), status);
    return *status == 200 ? DecodeCounts(body) : std::vector<uint64_t>{};
  }

  std::vector<uint64_t> ScanCounts(const std::vector<Spec>& specs) {
    std::vector<std::pair<Spec, shardrpc::CountMethod>> scans;
    for (const Spec& spec : specs) {
      scans.emplace_back(spec, shardrpc::CountMethod::kScan);
    }
    int status = 0;
    const std::vector<uint64_t> counts = Count(scans, &status);
    EXPECT_EQ(status, 200);
    return counts;
  }

  /// Three specs; the last one's target is not held by the shard (it
  /// carries the score of object 2024).
  std::vector<Spec> SomeSpecs() const {
    std::vector<Spec> specs = {MakeSpec(17, 17, KeywordSet({0, 1, 2})),
                               MakeSpec(17, 2024, KeywordSet({0, 3})),
                               MakeSpec(17, 2024, KeywordSet({1}))};
    specs.back().target = 99999;
    return specs;
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ShardService> service_;
};

TEST_F(ProbeRankTest, AnswersTheScanCounts) {
  const std::vector<Spec> specs = SomeSpecs();
  EXPECT_EQ(Rank(specs), ScanCounts(specs));
  EXPECT_EQ(Rank({}), std::vector<uint64_t>{});
}

TEST_F(ProbeRankTest, TruncatedBodiesAndTrailingBytesAre400) {
  const std::string body = EncodeRank(SomeSpecs());
  for (size_t cut : {size_t{0}, size_t{1}, body.size() / 2, body.size() - 1}) {
    EXPECT_EQ(RankStatus(body.substr(0, cut)), 400) << "cut at " << cut;
  }
  EXPECT_EQ(RankStatus(body + '\0'), 400);
  // A count far beyond the bytes that follow it.
  BufWriter huge;
  huge.PutVarU64(uint64_t{1} << 40);
  EXPECT_EQ(RankStatus(huge.data()), 400);
  EXPECT_EQ(RankStatus(body), 200);
}

TEST_F(ProbeRankTest, NonFiniteTargetScoresAre400) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    std::vector<Spec> specs = SomeSpecs();
    specs[1].target_score = bad;
    EXPECT_EQ(RankStatus(EncodeRank(specs)), 400) << bad;
  }
}

TEST_F(ProbeRankTest, QueriesValidateRejectsAre400) {
  const std::vector<void (*)(Query*)> breakers = {
      [](Query* q) { q->k = 0; },
      [](Query* q) { q->w = Weights{1.5, -0.5}; },
      [](Query* q) { q->w = Weights{kNaN, 0.5}; },
      [](Query* q) { q->doc = KeywordSet(); },
      [](Query* q) { q->loc.x = kInf; },
  };
  for (size_t i = 0; i < breakers.size(); ++i) {
    std::vector<Spec> specs = SomeSpecs();
    breakers[i](&specs.back().query);
    EXPECT_EQ(RankStatus(EncodeRank(specs)), 400) << "breaker " << i;
  }
}

TEST_F(ProbeRankTest, KeywordUniverseCap) {
  // Members whose keywords together span exactly the cap, then one more.
  std::vector<Spec> specs;
  for (TermId t = 0; t < kMaxKeywordUniverse; t += 4) {
    specs.push_back(
        MakeSpec(17, 40 + t, KeywordSet({t, t + 1, t + 2, t + 3})));
  }
  EXPECT_EQ(Rank(specs), ScanCounts(specs));
  specs.push_back(MakeSpec(17, 7, KeywordSet({TermId{kMaxKeywordUniverse}})));
  EXPECT_EQ(RankStatus(EncodeRank(specs)), 400);
}

TEST_F(ProbeRankTest, SpecCountCap) {
  const Spec one = MakeSpec(17, 2024, KeywordSet({0, 3}));
  const uint64_t want = ScanCounts({one}).front();
  std::vector<Spec> specs(kMaxProbeSpecs, one);
  EXPECT_EQ(Rank(specs), std::vector<uint64_t>(kMaxProbeSpecs, want));
  specs.push_back(one);
  EXPECT_EQ(RankStatus(EncodeRank(specs)), 400);
}

TEST_F(ProbeRankTest, QueryShapeCap) {
  // One spec per location: kMaxProbeShapes shapes are answered exactly, one
  // more is refused, and so is a batch of many locations.
  std::vector<Spec> specs;
  for (ObjectId near = 0; near < kMaxProbeShapes; ++near) {
    specs.push_back(MakeSpec(near, 2024, KeywordSet({0, 3})));
  }
  EXPECT_EQ(Rank(specs), ScanCounts(specs));
  specs.push_back(MakeSpec(kMaxProbeShapes, 2024, KeywordSet({0, 3})));
  EXPECT_EQ(RankStatus(EncodeRank(specs)), 400);
  // Another ws at a known location is another shape too.
  specs.pop_back();
  specs.push_back(specs.front());
  specs.back().query.w = Weights::FromWs(0.25);
  EXPECT_EQ(RankStatus(EncodeRank(specs)), 400);
  std::vector<Spec> spread;
  for (ObjectId near = 0; near < 2000; ++near) {
    spread.push_back(MakeSpec(near, 2024, KeywordSet({0})));
  }
  EXPECT_EQ(RankStatus(EncodeRank(spread)), 400);
}

TEST_F(ProbeRankTest, CountBatchMixesScanAndSetRSpecs) {
  using M = shardrpc::CountMethod;
  const std::vector<Spec> specs = {MakeSpec(17, 17, KeywordSet({0, 1, 2})),
                                   MakeSpec(2024, 2024, KeywordSet({0, 1, 2}))};
  int status = 0;
  // Alone, each member's scan and SetR counts agree: both are exact.
  std::vector<uint64_t> alone;
  for (const Spec& spec : specs) {
    const std::vector<uint64_t> scan = Count({{spec, M::kScan}}, &status);
    ASSERT_EQ(status, 200);
    ASSERT_EQ(scan.size(), 1u);
    EXPECT_EQ(Count({{spec, M::kSetR}}, &status), scan);
    alone.push_back(scan[0]);
  }
  EXPECT_NE(alone[0], alone[1]);
  const std::vector<uint64_t> mixed = Count({{specs[1], M::kScan},
                                             {specs[0], M::kSetR},
                                             {specs[0], M::kScan},
                                             {specs[1], M::kSetR},
                                             {specs[1], M::kScan}},
                                            &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(mixed, (std::vector<uint64_t>{alone[1], alone[0], alone[0],
                                          alone[1], alone[1]}));
  Count({{specs[0], M::kScan}, {specs[1], static_cast<M>(9)}}, &status);
  EXPECT_EQ(status, 400);
}

/// A shard server that forwards every route to a real one, except
/// /shard/probe/rank, which answers whatever reply() makes of the request.
class TamperingShard {
 public:
  using Reply = std::string (*)(size_t specs);

  explicit TamperingShard(uint16_t upstream) : server_(0, 4) {
    server_.Route("POST", shardrpc::kProbeRankPath,
                  [this](const HttpRequest& req) {
                    BufReader in(req.body.data(), req.body.size());
                    const size_t specs = in.GetVarU64();
                    std::lock_guard<std::mutex> lock(mu_);
                    return HttpResponse{200, "application/octet-stream",
                                        reply_(specs)};
                  });
    for (const char* method : {"GET", "POST"}) {
      server_.RoutePrefix(method, "/", [upstream](const HttpRequest& req) {
        int status = 0;
        auto body = HttpFetch(upstream, req.method, req.path, req.body,
                              &status);
        if (!body.ok()) return HttpResponse::Error(502, "upstream down");
        return HttpResponse{status, "application/octet-stream", *body};
      });
    }
    EXPECT_TRUE(server_.Start().ok());
  }
  ~TamperingShard() { server_.Stop(); }

  void set_reply(Reply reply) {
    std::lock_guard<std::mutex> lock(mu_);
    reply_ = reply;
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_.bound_port());
  }

 private:
  HttpServer server_;
  std::mutex mu_;
  Reply reply_ = [](size_t) { return std::string(); };
};

std::string Counts(size_t announced, size_t present, bool trailing) {
  BufWriter out;
  out.PutVarU64(announced);
  for (size_t i = 0; i < present; ++i) out.PutU64(i);
  if (trailing) out.PutU8(7);
  return out.data();
}

TEST_F(ProbeRankTest, CoordinatorFailsCleanlyOnMalformedReplies) {
  TamperingShard shard(service_->port());
  auto connected = RemoteCorpus::Connect({shard.endpoint()});
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  const RemoteShardOracle oracle(remote);
  YaskService coordinator(remote);
  ASSERT_TRUE(coordinator.Start().ok());

  const std::vector<Spec> specs = SomeSpecs();
  std::vector<OracleTargetSpec> oracle_specs;
  for (const Spec& spec : specs) {
    oracle_specs.push_back(OracleTargetSpec{&spec.query, spec.target % 3000});
  }
  const std::vector<TamperingShard::Reply> replies = {
      [](size_t) { return std::string(); },
      [](size_t n) { return Counts(n, n - 1, false); },    // Truncated.
      [](size_t n) { return Counts(n, n, true); },         // Trailing bytes.
      [](size_t n) { return Counts(n + 1, n + 1, false); },  // Wrong count.
      [](size_t) { return Counts(size_t{1} << 40, 1, false); },
  };
  for (size_t r = 0; r < replies.size(); ++r) {
    shard.set_reply(replies[r]);
    const uint64_t before = remote.error_epoch();
    KeywordAdaptStats stats;
    const auto batch = oracle.ProbeRankBatch(oracle_specs, &stats);
    ASSERT_EQ(batch->size(), oracle_specs.size()) << "reply " << r;
    EXPECT_GT(remote.error_epoch(), before) << "reply " << r;

    // Through the front door: the question fails with 503.
    int status = 0;
    auto query = HttpFetch(
        coordinator.port(), "POST", "/query",
        "{\"x\":0.5,\"y\":0.5,\"keywords\":\"kw1 kw2\",\"k\":3}", &status);
    ASSERT_TRUE(query.ok());
    ASSERT_EQ(status, 200) << *query;
    auto parsed = JsonValue::Parse(*query);
    ASSERT_TRUE(parsed.ok());
    const size_t id = static_cast<size_t>(parsed->Get("query_id").as_number());
    auto whynot = HttpFetch(coordinator.port(), "POST", "/whynot",
                            "{\"query_id\":" + std::to_string(id) +
                                ",\"missing\":[5],\"model\":\"keyword\"}",
                            &status);
    ASSERT_TRUE(whynot.ok());
    EXPECT_EQ(status, 503) << "reply " << r << ": " << *whynot;
  }

  // A well-formed reply again: the same question is answered.
  shard.set_reply([](size_t n) { return Counts(n, n, false); });
  const uint64_t before = remote.error_epoch();
  KeywordAdaptStats stats;
  oracle.ProbeRankBatch(oracle_specs, &stats);
  EXPECT_EQ(remote.error_epoch(), before);
  coordinator.Stop();
}

}  // namespace
}  // namespace yask
