// The shardrpc rank-spec boundaries of /shard/plane/rank, both directions,
// and the coordinator's side of the plane routes, which answer every rank
// batch.
//
// /shard/plane/rank answers each spec as if alone, with the reference's
// counts. It answers 400 to a
// truncated body or trailing bytes, a non-finite target score, a query
// Query::Validate rejects, or more than kMaxProbeSpecs specs, and answers
// exactly at the cap; a coordinator splits a larger batch into requests
// under the cap. The stateless rank routes are gone: /shard/probe/rank
// since shardrpc v7 and /shard/count since v8 (404). A coordinator that
// gets a malformed /shard/plane/rank, /shard/plane/count_batch or
// /shard/plane/crossings reply records a shard error, and its /whynot
// answers 503 or its rank batch outside a question adds nothing; nothing is
// read out of bounds. So does a /shard/plane/topk reply with more rows than
// asked for, rows out of the ScoredObject order, a non-finite score or an
// unknown id.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/random.h"
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
#include "src/whynot/whynot_oracle.h"
#include "tests/reference/whynot_reference.h"

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

/// A spec list: varu64 N, then N × (query, u32 target, F64 target score).
std::string EncodeSpecs(const std::vector<Spec>& specs) {
  BufWriter req;
  req.PutVarU64(specs.size());
  for (const Spec& spec : specs) {
    shardrpc::PutQuery(&req, spec.query);
    req.PutU32(spec.target);
    req.PutF64(spec.target_score);
  }
  return req.data();
}

/// A /shard/plane/rank body: the session id, then the spec list.
std::string RankBody(uint64_t session, const std::vector<Spec>& specs) {
  BufWriter req;
  req.PutU64(session);
  return req.data() + EncodeSpecs(specs);
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
    session_ = Open();
  }

  void TearDown() override { service_->Stop(); }

  /// A spec ranking `target` under a query at object 17's location with
  /// `doc`.
  Spec MakeSpec(ObjectId target, KeywordSet doc) const {
    Spec spec;
    spec.query.loc = corpus_->store().Get(17).loc;
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

  /// Opens a session at object 17's location whose docs cover every spec
  /// below (q.doc = {0, 1, 2, 3}); returns its id.
  uint64_t Open() {
    Query query;
    query.loc = corpus_->store().Get(17).loc;
    query.doc = KeywordSet({0, 1, 2, 3});
    BufWriter req;
    shardrpc::PutQuery(&req, query);
    req.PutDeltaIds({});
    int status = 0;
    const std::string body = Post(shardrpc::kPlaneOpenPath, req.data(),
                                  &status);
    EXPECT_EQ(status, 200);
    BufReader in(body.data(), body.size());
    return in.GetU64();
  }

  int RankStatus(const std::string& body) {
    int status = 0;
    Post(shardrpc::kPlaneRankPath, body, &status);
    return status;
  }

  /// POSTs one /shard/plane/rank request to `session`.
  std::vector<uint64_t> Rank(uint64_t session, const std::vector<Spec>& specs,
                             int* status) {
    const std::string body =
        Post(shardrpc::kPlaneRankPath, RankBody(session, specs), status);
    return *status == 200 ? DecodeCounts(body) : std::vector<uint64_t>{};
  }

  int RankStatus(const std::vector<Spec>& specs) {
    int status = 0;
    Rank(session_, specs, &status);
    return status;
  }

  std::vector<uint64_t> RankCounts(uint64_t session,
                                   const std::vector<Spec>& specs) {
    int status = 0;
    const std::vector<uint64_t> counts = Rank(session, specs, &status);
    EXPECT_EQ(status, 200);
    return counts;
  }

  /// Three specs; the last one's target is not held by the shard (it
  /// carries the score of object 2024).
  std::vector<Spec> SomeSpecs() const {
    std::vector<Spec> specs = {MakeSpec(17, KeywordSet({0, 1, 2})),
                               MakeSpec(2024, KeywordSet({0, 3})),
                               MakeSpec(2024, KeywordSet({1}))};
    specs.back().target = 99999;
    return specs;
  }

  /// Requests the shard has served on `route`.
  uint64_t Served(const char* route) const {
    return service_->metrics()
        .GetHistogram("yask_shard_request_ms", {{"endpoint", route}})
        ->count();
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ShardService> service_;
  uint64_t session_ = 0;  // The fixture's session.
};

TEST_F(ProbeRankTest, RankAnswersEachSpecAsAlone) {
  std::vector<Spec> specs = SomeSpecs();
  specs.push_back(MakeSpec(2024, KeywordSet({0, 1, 2})));
  std::vector<uint64_t> alone;
  for (const Spec& spec : specs) {
    const uint64_t want = reference::OutrankingCount(
        corpus_->store(), nullptr, corpus_->store().BoundsDiagonal(),
        spec.query, spec.target, spec.target_score);
    EXPECT_EQ(RankCounts(session_, {spec}), std::vector<uint64_t>{want});
    alone.push_back(want);
  }
  EXPECT_NE(alone[0], alone[3]);
  EXPECT_EQ(RankCounts(session_, {specs[3], specs[0], specs[3]}),
            (std::vector<uint64_t>{alone[3], alone[0], alone[3]}));
  EXPECT_EQ(RankCounts(session_, {}), std::vector<uint64_t>{});
}

TEST_F(ProbeRankTest, TruncatedBodiesAndTrailingBytesAre400) {
  const std::string body = RankBody(session_, SomeSpecs());
  for (size_t cut : {size_t{0}, size_t{1}, size_t{8}, body.size() / 2,
                     body.size() - 1}) {
    EXPECT_EQ(RankStatus(body.substr(0, cut)), 400) << "cut at " << cut;
  }
  EXPECT_EQ(RankStatus(body + '\0'), 400);
  // A count far beyond the bytes that follow it.
  BufWriter huge;
  huge.PutU64(session_);
  huge.PutVarU64(uint64_t{1} << 40);
  EXPECT_EQ(RankStatus(huge.data()), 400);
  EXPECT_EQ(RankStatus(body), 200);
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
    EXPECT_EQ(RankStatus(specs), 400) << "breaker " << i;
  }
}

TEST_F(ProbeRankTest, ProbeRankRouteIsGone) {
  int status = 0;
  Post("/shard/probe/rank", EncodeSpecs(SomeSpecs()), &status);
  EXPECT_EQ(status, 404);
}

TEST_F(ProbeRankTest, CountRouteIsGone) {
  // A v7 /shard/count body, well-formed: the route itself is gone.
  int status = 0;
  Post(shardrpc::kCountPath, EncodeSpecs(SomeSpecs()), &status);
  EXPECT_EQ(status, 404);
  EXPECT_EQ(Served(shardrpc::kCountPath), 0u);
}

TEST_F(ProbeRankTest, RankSpecCap) {
  const Spec one = MakeSpec(2024, KeywordSet({0, 3}));
  const uint64_t want = RankCounts(session_, {one}).front();
  std::vector<Spec> specs(kMaxProbeSpecs, one);
  EXPECT_EQ(RankCounts(session_, specs),
            std::vector<uint64_t>(kMaxProbeSpecs, want));
  specs.push_back(one);
  EXPECT_EQ(RankStatus(specs), 400);
}

TEST_F(ProbeRankTest, NonFiniteTargetScoresAre400) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    std::vector<Spec> specs = SomeSpecs();
    specs[1].target_score = bad;
    EXPECT_EQ(RankStatus(specs), 400) << bad;
  }
  EXPECT_EQ(RankStatus(SomeSpecs()), 200);
}

TEST_F(ProbeRankTest, CoordinatorSplitsRankBatchesAtTheCap) {
  auto connected = RemoteCorpus::Connect(
      {"127.0.0.1:" + std::to_string(service_->port())});
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  const RemoteShardOracle oracle(remote);
  const LocalWhyNotOracle local(*corpus_);

  // A rank batch outside a question may carry more specs than one request
  // does.
  std::vector<Query> queries(3);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].loc = corpus_->store().Get(17).loc;
    queries[i].doc = KeywordSet({static_cast<TermId>(i), 3});
  }
  std::vector<OracleTargetSpec> specs;
  for (size_t i = 0; i <= kMaxProbeSpecs; ++i) {
    specs.push_back(OracleTargetSpec{&queries[i % queries.size()],
                                     static_cast<ObjectId>(i % 3000)});
  }
  const uint64_t errors = remote.error_epoch();

  // One one-call session (one location), two rank requests, the local
  // oracle's ranks.
  const uint64_t opens = Served(shardrpc::kPlaneOpenPath);
  const uint64_t ranks = Served(shardrpc::kPlaneRankPath);
  KeywordAdaptStats remote_stats;
  KeywordAdaptStats local_stats;
  const auto batch = oracle.ProbeRankBatch(specs, &remote_stats);
  EXPECT_EQ(Served(shardrpc::kPlaneOpenPath) - opens, 1u);
  EXPECT_EQ(Served(shardrpc::kPlaneRankPath) - ranks, 2u);
  const auto want = local.ProbeRankBatch(specs, &local_stats);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(batch->lower(i), want->lower(i)) << "spec " << i;
  }
  EXPECT_EQ(remote_stats.objects_scored, local_stats.objects_scored);
  EXPECT_EQ(remote.error_epoch(), errors);
  EXPECT_EQ(service_->open_sessions(), 1u);  // The fixture's own one.
}

/// A shard server that forwards every route to a real one, and passes the
/// upstream reply of one route through mutate(request body, reply).
class TamperingShard {
 public:
  using Mutate =
      std::function<std::string(const std::string&, const std::string&)>;

  TamperingShard(uint16_t upstream, const char* path) : server_(0, 4) {
    const auto forward = [upstream](const HttpRequest& req, int* status) {
      auto body = HttpFetch(upstream, req.method, req.path, req.body, status);
      if (!body.ok()) *status = 502;
      return body.ok() ? *body : std::string("upstream down");
    };
    server_.Route("POST", path, [this, forward](const HttpRequest& req) {
      int status = 0;
      std::string reply = forward(req, &status);
      if (status != 200) return HttpResponse::Error(status, reply);
      ++hits_;
      std::lock_guard<std::mutex> lock(mu_);
      return HttpResponse{200, "application/octet-stream",
                          mutate_(req.body, reply)};
    });
    for (const char* method : {"GET", "POST"}) {
      server_.RoutePrefix(method, "/", [forward](const HttpRequest& req) {
        int status = 0;
        std::string reply = forward(req, &status);
        return HttpResponse{status, "application/octet-stream",
                            std::move(reply)};
      });
    }
    EXPECT_TRUE(server_.Start().ok());
  }
  ~TamperingShard() { server_.Stop(); }

  void set_mutate(Mutate mutate) {
    std::lock_guard<std::mutex> lock(mu_);
    mutate_ = std::move(mutate);
  }
  /// Tampered-route requests the upstream answered.
  size_t hits() const { return hits_; }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_.bound_port());
  }

 private:
  HttpServer server_;
  std::atomic<size_t> hits_{0};
  std::mutex mu_;
  Mutate mutate_ = [](const std::string&, const std::string& reply) {
    return reply;
  };
};

/// Asks `coordinator` one why-not question of `model`; returns the
/// `/whynot` status, or -1 (failing the test) when the `/query` that sets
/// the question up does not answer 200 with a parsable reply, or when the
/// `/whynot` request itself fails.
int AskWhyNot(const YaskService& coordinator, const char* model) {
  int status = 0;
  auto query = HttpFetch(
      coordinator.port(), "POST", "/query",
      "{\"x\":0.5,\"y\":0.5,\"keywords\":\"kw1 kw2\",\"k\":3}", &status);
  EXPECT_TRUE(query.ok());
  if (!query.ok()) return -1;
  EXPECT_EQ(status, 200) << *query;
  if (status != 200) return -1;
  auto parsed = JsonValue::Parse(*query);
  EXPECT_TRUE(parsed.ok());
  if (!parsed.ok()) return -1;
  const size_t id = static_cast<size_t>(parsed->Get("query_id").as_number());
  auto whynot =
      HttpFetch(coordinator.port(), "POST", "/whynot",
                "{\"query_id\":" + std::to_string(id) +
                    ",\"missing\":[5],\"model\":\"" + model + "\"}",
                &status);
  EXPECT_TRUE(whynot.ok());
  if (!whynot.ok()) return -1;
  return status;
}

std::string Counts(size_t announced, size_t present, bool trailing) {
  BufWriter out;
  out.PutVarU64(announced);
  for (size_t i = 0; i < present; ++i) out.PutU64(i);
  if (trailing) out.PutU8(7);
  return out.data();
}

TEST_F(ProbeRankTest, CoordinatorFailsCleanlyOnMalformedReplies) {
  const std::vector<Spec> specs = SomeSpecs();
  std::vector<OracleTargetSpec> oracle_specs;
  for (const Spec& spec : specs) {
    oracle_specs.push_back(OracleTargetSpec{&spec.query, spec.target % 3000});
  }
  using Reply = std::string (*)(size_t specs);
  const std::vector<Reply> replies = {
      [](size_t) { return std::string(); },
      [](size_t n) { return Counts(n, n - 1, false); },    // Truncated.
      [](size_t n) { return Counts(n, n, true); },         // Trailing bytes.
      [](size_t n) { return Counts(n + 1, n + 1, false); },  // Wrong count.
      [](size_t) { return Counts(size_t{1} << 40, 1, false); },
  };
  // The session's ranks answer both a rank batch outside a question (its
  // one-call session) and every /whynot of the keyword model.
  const char* path = shardrpc::kPlaneRankPath;
  TamperingShard shard(service_->port(), path);
  auto connected = RemoteCorpus::Connect({shard.endpoint()});
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  const RemoteShardOracle oracle(remote);
  YaskService coordinator(remote);
  ASSERT_TRUE(coordinator.Start().ok());
  // Each reply is made from the request's spec count alone.
  const auto from_request = [](Reply reply) {
    return [reply](const std::string& request, const std::string&) {
      BufReader in(request.data(), request.size());
      in.GetU64();  // The session slot.
      return reply(in.GetVarU64());
    };
  };
  for (size_t r = 0; r < replies.size(); ++r) {
    shard.set_mutate(from_request(replies[r]));
    uint64_t before = remote.error_epoch();
    // Through the front door: the question fails with 503.
    EXPECT_EQ(AskWhyNot(coordinator, "keyword"), 503) << "reply " << r;
    EXPECT_GT(remote.error_epoch(), before) << "reply " << r;
    // Outside a question: the batch still holds one rank per spec.
    before = remote.error_epoch();
    KeywordAdaptStats stats;
    const auto batch = oracle.ProbeRankBatch(oracle_specs, &stats);
    ASSERT_EQ(batch->size(), oracle_specs.size()) << "reply " << r;
    EXPECT_GT(remote.error_epoch(), before) << "reply " << r;
  }

  // Well-formed replies again: the same calls are answered.
  shard.set_mutate(
      [](const std::string&, const std::string& reply) { return reply; });
  const uint64_t before = remote.error_epoch();
  KeywordAdaptStats stats;
  const auto batch = oracle.ProbeRankBatch(oracle_specs, &stats);
  const LocalWhyNotOracle local(*corpus_);
  for (size_t i = 0; i < oracle_specs.size(); ++i) {
    EXPECT_EQ(batch->lower(i),
              local.Rank(*oracle_specs[i].query, oracle_specs[i].target));
  }
  EXPECT_EQ(AskWhyNot(coordinator, "keyword"), 200);
  EXPECT_EQ(remote.error_epoch(), before);
  coordinator.Stop();
}

/// Seed-driven mutations of the question replies a coordinator reads, after
/// the JsonFuzz pattern of json_test.cc. A reply cut short or extended is
/// malformed: the /whynot answers 503 and the error epoch moves. A reply
/// with one byte replaced may still be well-formed; the /whynot then
/// answers 200 or 503, and nothing is read out of bounds.
class QuestionReplyFuzz : public ProbeRankTest,
                          public ::testing::WithParamInterface<uint64_t> {};

TEST_P(QuestionReplyFuzz, MalformedRepliesAnswer503) {
  auto rng = std::make_shared<Rng>(GetParam());
  for (const char* path : {shardrpc::kPlaneOpenPath, shardrpc::kPlaneRankPath,
                           shardrpc::kPlaneTopKPath}) {
    TamperingShard shard(service_->port(), path);
    auto connected = RemoteCorpus::Connect({shard.endpoint()});
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    const RemoteCorpus remote = std::move(connected).value();
    YaskService coordinator(remote);
    ASSERT_TRUE(coordinator.Start().ok());
    for (int iter = 0; iter < 6; ++iter) {
      const int kind = iter % 3;  // Cut, extend, replace a byte.
      shard.set_mutate([rng, kind](const std::string&,
                                   const std::string& reply) {
        std::string out = reply;
        if (kind == 0) {
          out.resize(rng->NextBounded(out.size()));
        } else if (kind == 1) {
          for (size_t n = 1 + rng->NextBounded(8); n > 0; --n) {
            out += static_cast<char>(rng->NextBounded(256));
          }
        } else if (!out.empty()) {
          out[rng->NextBounded(out.size())] =
              static_cast<char>(rng->NextBounded(256));
        }
        return out;
      });
      const uint64_t before = remote.error_epoch();
      const int status = AskWhyNot(coordinator, "keyword");
      if (kind == 2) {
        EXPECT_TRUE(status == 200 || status == 503)
            << path << " iteration " << iter << " answered " << status;
        continue;
      }
      EXPECT_EQ(status, 503) << path << " iteration " << iter;
      EXPECT_GT(remote.error_epoch(), before) << path << " iteration " << iter;
    }
    coordinator.Stop();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuestionReplyFuzz, ::testing::Values(1, 2, 3));

/// A plane reply's leading count, announced as `announced`, followed by the
/// rest of `reply` unchanged.
std::string Reannounce(const std::string& reply, uint64_t announced) {
  BufReader in(reply.data(), reply.size());
  in.GetVarU64();
  BufWriter out;
  out.PutVarU64(announced);
  return out.data() + reply.substr(reply.size() - in.remaining());
}

uint64_t Announced(const std::string& reply) {
  BufReader in(reply.data(), reply.size());
  return in.GetVarU64();
}

/// A /shard/plane/topk reply with its rows replaced by `edit(rows)`.
std::string EditRows(const std::string& reply,
                     const std::function<void(TopKResult*)>& edit) {
  BufReader in(reply.data(), reply.size());
  TopKResult rows = shardrpc::GetScoredRows(&in);
  const uint64_t opened = in.GetU64();
  const uint64_t scored = in.GetU64();
  edit(&rows);
  BufWriter out;
  shardrpc::PutScoredRows(&out, rows);
  out.PutU64(opened);
  out.PutU64(scored);
  return out.data();
}

TEST_F(ProbeRankTest, CoordinatorRejectsMalformedTopKReplies) {
  using Edit = std::function<void(TopKResult*)>;
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"one row too many",
       [](TopKResult* rows) {
         rows->push_back(ScoredObject{rows->back().id,
                                      rows->back().score - 1.0});
       }},
      {"rows out of order",
       [](TopKResult* rows) { std::swap(rows->front(), rows->back()); }},
      {"NaN score",
       [](TopKResult* rows) { rows->back().score = kNaN; }},
      {"infinite score",
       [](TopKResult* rows) { rows->front().score = kInf; }},
      {"unknown id", [](TopKResult* rows) { rows->back().id = 1u << 30; }},
  };
  TamperingShard shard(service_->port(), shardrpc::kPlaneTopKPath);
  auto connected = RemoteCorpus::Connect({shard.endpoint()});
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();
  YaskService coordinator(remote);
  ASSERT_TRUE(coordinator.Start().ok());
  for (const auto& [name, edit] : edits) {
    shard.set_mutate([edit = edit](const std::string&,
                                   const std::string& reply) {
      return EditRows(reply, edit);
    });
    const uint64_t before = remote.error_epoch();
    const size_t hits = shard.hits();
    EXPECT_EQ(AskWhyNot(coordinator, "both"), 503) << name;
    EXPECT_GT(shard.hits(), hits) << name;
    EXPECT_GT(remote.error_epoch(), before) << name;
  }
  // The rows as the shard sent them, re-encoded: the question is answered.
  shard.set_mutate([](const std::string&, const std::string& reply) {
    return EditRows(reply, [](TopKResult*) {});
  });
  const uint64_t before = remote.error_epoch();
  EXPECT_EQ(AskWhyNot(coordinator, "both"), 200);
  EXPECT_EQ(remote.error_epoch(), before);
  coordinator.Stop();
}

TEST_F(ProbeRankTest, CoordinatorRejectsMalformedPlaneReplies) {
  using Mutate = TamperingShard::Mutate;
  const std::vector<std::pair<const char*, std::vector<Mutate>>> cases = {
      {shardrpc::kPlaneCountBatchPath,
       {
           [](const std::string&, const std::string& reply) {
             return reply + '\0';  // Trailing bytes.
           },
           [](const std::string&, const std::string& reply) {
             // One count too many, and its bytes: well-formed, wrong count.
             BufReader in(reply.data(), reply.size());
             const uint64_t n = in.GetVarU64();
             BufWriter out;
             out.PutVarU64(n + 1);
             for (uint64_t i = 0; i <= n; ++i) out.PutU64(0);
             out.PutU64(0);
             return out.data();
           },
           [](const std::string&, const std::string& reply) {
             return reply.substr(0, reply.size() - 1);  // Truncated.
           },
           [](const std::string&, const std::string&) {
             return std::string();
           },
       }},
      {shardrpc::kPlaneCrossingsPath,
       {
           [](const std::string&, const std::string& reply) {
             return reply + '\0';  // Trailing bytes.
           },
           [](const std::string&, const std::string& reply) {
             // One event fewer than the reply holds.
             const uint64_t n = Announced(reply);
             return n == 0 ? reply + std::string(8, '\0')
                           : Reannounce(reply, n - 1);
           },
           [](const std::string&, const std::string& reply) {
             // One event more than the reply holds.
             return Reannounce(reply, Announced(reply) + 1);
           },
           [](const std::string&, const std::string& reply) {
             return reply.substr(0, reply.size() - 1);  // Truncated.
           },
       }},
  };
  for (const auto& [path, mutations] : cases) {
    TamperingShard shard(service_->port(), path);
    auto connected = RemoteCorpus::Connect({shard.endpoint()});
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    const RemoteCorpus remote = std::move(connected).value();
    YaskService coordinator(remote);
    ASSERT_TRUE(coordinator.Start().ok());
    for (size_t m = 0; m < mutations.size(); ++m) {
      shard.set_mutate(mutations[m]);
      const uint64_t before = remote.error_epoch();
      const size_t hits = shard.hits();
      EXPECT_EQ(AskWhyNot(coordinator, "preference"), 503)
          << path << " mutation " << m;
      EXPECT_GT(shard.hits(), hits) << path << " mutation " << m;
      EXPECT_GT(remote.error_epoch(), before) << path << " mutation " << m;
    }
    // The replies as the shard sent them: the question is answered.
    shard.set_mutate(
        [](const std::string&, const std::string& reply) { return reply; });
    const uint64_t before = remote.error_epoch();
    EXPECT_EQ(AskWhyNot(coordinator, "preference"), 200) << path;
    EXPECT_EQ(remote.error_epoch(), before) << path;
    coordinator.Stop();
  }
}

}  // namespace
}  // namespace yask
