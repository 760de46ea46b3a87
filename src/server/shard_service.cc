#include "src/server/shard_service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>

#include "src/common/timer.h"
#include "src/common/version.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/trace_json.h"

namespace yask {

namespace {

HttpResponse Binary(const BufWriter& out) {
  return HttpResponse{200, "application/octet-stream", out.data()};
}

HttpResponse BadBody(const BufReader& in) {
  return HttpResponse::Error(
      400, "malformed shard request: " + (in.status().ok()
                                              ? std::string("truncated")
                                              : in.status().message()));
}

/// The sweep counts at query weights, strictly inside (0, 1), and crosses
/// within [0, 1], always from the finite plane point of a real object. The
/// column search is exact only for w ≥ 0: anything else is refused.
bool IsSweepWeight(double w) { return w > 0.0 && w < 1.0; }
bool IsFinitePoint(const PlanePoint& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

/// The specs of a /shard/plane/rank request.
struct SpecBatch {
  std::vector<Query> queries;
  std::vector<ScanTarget> targets;  // targets[i].query = &queries[i].
};

/// Decodes the rest of a spec request — varu64 N ≤ kMaxProbeSpecs, then
/// N × (query, u32 global target id, raw-F64 finite target score) — into
/// `batch`. Returns the 400 to answer when the body is malformed, N is over
/// the cap, a query fails Query::Validate or a score is not finite.
std::optional<HttpResponse> DecodeSpecs(BufReader* in, SpecBatch* batch) {
  const uint64_t count = in->GetVarU64();
  if (!in->ok()) return BadBody(*in);
  if (count > kMaxProbeSpecs) {
    return HttpResponse::Error(
        400, "batch of " + std::to_string(count) + " specs exceeds " +
                 std::to_string(kMaxProbeSpecs));
  }
  if (!in->CheckCount(count, 16)) return BadBody(*in);
  batch->queries.resize(count);
  batch->targets.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    batch->queries[i] = shardrpc::GetQuery(in);
    ScanTarget& target = batch->targets[i];
    target.query = &batch->queries[i];
    target.target = in->GetU32();
    target.target_score = in->GetF64();
    if (!in->ok()) return BadBody(*in);
    if (Status s = batch->queries[i].Validate(); !s.ok()) {
      return HttpResponse::Error(400, s.message());
    }
    if (!std::isfinite(target.target_score)) {
      return HttpResponse::Error(400, "non-finite target score");
    }
  }
  if (!in->AtEnd()) return BadBody(*in);
  return std::nullopt;
}

/// The 400 a shard top-k route answers to a k above both kMaxK and the
/// shard's object count (a coordinator sends at most the count).
std::optional<HttpResponse> CheckK(uint32_t k, size_t objects) {
  if (k <= kMaxK || k <= objects) return std::nullopt;
  return HttpResponse::Error(400, "k of " + std::to_string(k) +
                                      " exceeds " + std::to_string(kMaxK) +
                                      " and the shard's " +
                                      std::to_string(objects) + " objects");
}

/// A top-k reply: the rows, then the work counters.
HttpResponse Rows(const TopKResult& rows, const TopKStats& stats) {
  BufWriter out;
  shardrpc::PutScoredRows(&out, rows);
  out.PutU64(stats.nodes_popped);
  out.PutU64(stats.objects_scored);
  return Binary(out);
}

HttpResponse Counts(const std::vector<size_t>& counts) {
  BufWriter out;
  out.PutVarU64(counts.size());
  for (size_t c : counts) out.PutU64(c);
  return Binary(out);
}

}  // namespace

/// One why-not question's session: this shard's question columns, which
/// take overlapping calls (the coordinator's preference and keyword stages
/// share the session), and what the rank specs must stay within.
struct ShardService::PlaneSession {
  Query query;          // The question's location and plane.
  KeywordSet universe;  // query.doc ∪ U.
  std::unique_ptr<OracleShardQuestion> question;
  uint64_t last_use = 0;  // Guarded by sessions_mu_.
};

ShardService::Info ShardService::StandaloneInfo(const Corpus& corpus) {
  Info info;
  info.global_bounds = corpus.store().bounds();
  info.dist_norm = corpus.store().BoundsDiagonal();
  return info;
}

ShardService::Info ShardService::InfoFromManifest(
    const ShardManifest& manifest) {
  Info info;
  info.shard_index = manifest.shard_index;
  info.shard_count = manifest.shard_count;
  info.global_bounds = manifest.global_bounds;
  // The exact arithmetic ShardedCorpus::Load uses for the normaliser.
  info.dist_norm =
      manifest.global_bounds.empty()
          ? 0.0
          : Distance(
                Point{manifest.global_bounds.min_x,
                      manifest.global_bounds.min_y},
                Point{manifest.global_bounds.max_x,
                      manifest.global_bounds.max_y});
  info.to_global = manifest.global_ids;
  info.router = manifest.router;
  return info;
}

ShardService::ShardService(const Corpus& corpus, Info info,
                           ShardServiceOptions options)
    : corpus_(&corpus),
      info_(std::move(info)),
      view_{&corpus.store(),
            info_.to_global.empty() ? nullptr : &info_.to_global,
            &corpus.setr()},
      shard_(view_, info_.dist_norm),
      server_(options.port, options.num_workers),
      max_sessions_(options.max_sessions == 0 ? 1 : options.max_sessions) {

  // Every shardrpc route is instrumented: latency and status-code series,
  // and a shard-side span when the request carries a trace header.
  using S = ShardService;
  using Handler = HttpResponse (S::*)(const HttpRequest&);
  const std::tuple<const char*, const char*, Handler> routes[] = {
      {"GET", shardrpc::kHealthPath, &S::HandleHealth},
      {"GET", shardrpc::kMetaPath, &S::HandleMeta},
      {"GET", shardrpc::kVocabPath, &S::HandleVocab},
      {"POST", shardrpc::kObjectsPath, &S::HandleObjects},
      {"POST", shardrpc::kFindPath, &S::HandleFind},
      {"POST", shardrpc::kTopKPath, &S::HandleTopK},
      {"POST", shardrpc::kPlaneOpenPath, &S::HandlePlaneOpen},
      {"POST", shardrpc::kPlaneRankPath, &S::HandlePlaneRank},
      {"POST", shardrpc::kPlaneTopKPath, &S::HandlePlaneTopK},
      {"POST", shardrpc::kPlaneCountBatchPath, &S::HandlePlaneCountBatch},
      {"POST", shardrpc::kPlaneCrossingsPath, &S::HandlePlaneCrossings},
      {"POST", shardrpc::kPlaneClosePath, &S::HandlePlaneClose},
  };
  for (const auto& [method, path, handler] : routes) {
    server_.Route(method, path,
                  Instrumented(path, [this, h = handler](const HttpRequest& r) {
                    return (this->*h)(r);
                  }));
  }
  // Observability endpoints are NOT instrumented: a scrape must not perturb
  // the very series it reads, and neither carries a trace header.
  server_.Route("GET", shardrpc::kTracePath,
                [this](const HttpRequest& r) { return HandleTrace(r); });
  server_.Route("GET", shardrpc::kMetricsPath,
                [this](const HttpRequest& r) { return HandleMetrics(r); });

  const MetricLabels shard_label = {
      {"shard", std::to_string(info_.shard_index)}};
  metrics_.AddGaugeCallback("yask_shard_open_plane_sessions", shard_label,
                            [this] {
                              std::lock_guard<std::mutex> lock(sessions_mu_);
                              return static_cast<double>(planes_.size());
                            });
  metrics_.AddGaugeCallback("yask_shard_objects", shard_label, [this] {
    return static_cast<double>(corpus_->size());
  });
  metrics_.AddCounterCallback("yask_http_idle_reaped_total", shard_label,
                              [this] {
                                return static_cast<double>(
                                    server_.idle_reaped());
                              });
  MetricLabels plane_labels = shard_label;
  plane_labels.emplace_back("kind", "plane");
  plane_evictions_ =
      metrics_.GetCounter("yask_shard_sessions_evicted_total", plane_labels);
}

HttpServer::Handler ShardService::Instrumented(const char* endpoint,
                                               HttpServer::Handler inner) {
  // The latency histogram is resolved once here (stable pointer); the
  // code-labelled counter is resolved per response — that lookup takes the
  // registry mutex, but it is one short map probe per HTTP request,
  // invisible next to the request's own work.
  Histogram* latency = metrics_.GetHistogram(
      "yask_shard_request_ms", {{"endpoint", endpoint}});
  const std::string endpoint_str = endpoint;
  return [this, latency, endpoint_str,
          inner = std::move(inner)](const HttpRequest& req) {
    Timer timer;
    HttpResponse resp;
    std::string trace_id;
    uint64_t parent_span = 0;
    const auto header = req.headers.find(kTraceHeaderName);
    if (header != req.headers.end() &&
        ParseTraceHeaderValue(header->second, &trace_id, &parent_span)) {
      // shardrpc v2: this RPC is part of a distributed trace. The root span
      // is parented to the coordinator's rpc span id so the stitched tree
      // at GET /trace/<id> hangs this server's work under that rpc.
      TraceRecorder recorder(trace_id);
      {
        TraceContextScope scope(TraceContext{&recorder, parent_span});
        ScopedSpan span(endpoint_str,
                        "shard " + std::to_string(info_.shard_index));
        resp = inner(req);
      }
      traces_.Add(trace_id, recorder.TakeSpans(), recorder.ElapsedMs());
    } else {
      resp = inner(req);
    }
    latency->Observe(timer.ElapsedMillis());
    metrics_
        .GetCounter("yask_shard_requests_total",
                    {{"endpoint", endpoint_str},
                     {"code", std::to_string(resp.status)}})
        ->Add();
    return resp;
  };
}

HttpResponse ShardService::HandleTrace(const HttpRequest& req) {
  const auto it = req.query_params.find("id");
  if (it == req.query_params.end() || it->second.empty()) {
    return HttpResponse::Error(400, "missing ?id=<trace_id>");
  }
  const std::optional<TraceStore::Stored> stored = traces_.Get(it->second);
  if (!stored.has_value()) {
    return HttpResponse::Error(404, "unknown trace " + it->second);
  }
  return HttpResponse::Json(
      StoredTraceToJson(*stored,
                        "shard " + std::to_string(info_.shard_index))
          .Dump());
}

HttpResponse ShardService::HandleMetrics(const HttpRequest&) {
  std::string body;
  metrics_.RenderPrometheus(&body);
  return HttpResponse{200, "text/plain; version=0.0.4", std::move(body)};
}

size_t ShardService::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return planes_.size();
}

uint64_t ShardService::AddSession(std::shared_ptr<PlaneSession> session) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const uint64_t id = next_session_id_++;
  session->last_use = ++use_clock_;
  planes_[id] = std::move(session);
  if (planes_.size() > max_sessions_) {
    // Evicting by LAST USE, not creation order, protects a long-running
    // sweep's session from a burst of newer opens; the maps are small
    // (<= max_sessions + 1), so a linear scan beats bookkeeping an
    // intrusive LRU list here.
    auto victim = planes_.begin();
    for (auto it = planes_.begin(); it != planes_.end(); ++it) {
      if (it->second->last_use < victim->second->last_use) victim = it;
    }
    planes_.erase(victim);
    plane_evictions_->Add();
  }
  return id;
}

std::shared_ptr<ShardService::PlaneSession> ShardService::FindSession(
    uint64_t id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = planes_.find(id);
  if (it == planes_.end()) return nullptr;
  it->second->last_use = ++use_clock_;
  return it->second;
}

// --- Introspection -----------------------------------------------------------

HttpResponse ShardService::HandleHealth(const HttpRequest&) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("status", JsonValue("ok"));
  out.Set("role", JsonValue("shard"));
  out.Set("shard_index", JsonValue(static_cast<size_t>(info_.shard_index)));
  out.Set("shard_count", JsonValue(static_cast<size_t>(info_.shard_count)));
  out.Set("objects", JsonValue(corpus_->size()));
  out.Set("protocol_version",
          JsonValue(static_cast<size_t>(shardrpc::kProtocolVersion)));
  // Build identity for rolling upgrades: which binary this replica runs and
  // the shardrpc range a coordinator of this build accepts (same shape as
  // the coordinator's; this replica speaks protocol_version, the maximum).
  JsonValue build = JsonValue::MakeObject();
  build.Set("git_sha", JsonValue(std::string(BuildGitSha())));
  build.Set("shardrpc_min", JsonValue(static_cast<size_t>(
                                shardrpc::kMinSupportedProtocolVersion)));
  build.Set("shardrpc_max",
            JsonValue(static_cast<size_t>(shardrpc::kProtocolVersion)));
  out.Set("build", std::move(build));
  JsonValue indexes = JsonValue::MakeObject();
  indexes.Set("setr", JsonValue(true));
  out.Set("indexes", std::move(indexes));
  // Every shard serves its slice of /whynot refinement.
  out.Set("whynot", JsonValue(true));
  out.Set("open_sessions", JsonValue(open_sessions()));
  return HttpResponse::Json(out.Dump());
}

HttpResponse ShardService::HandleMeta(const HttpRequest&) {
  shardrpc::ShardMeta meta;
  meta.shard_index = info_.shard_index;
  meta.shard_count = info_.shard_count;
  meta.object_count = corpus_->size();
  meta.dist_norm = info_.dist_norm;
  meta.global_bounds = info_.global_bounds;
  const SetRTree& tree = corpus_->setr();
  meta.setr_empty = tree.empty();
  if (!tree.empty()) meta.setr_root_mbr = tree.node(tree.root()).rect;
  meta.router = info_.router;
  meta.global_ids = info_.to_global;
  BufWriter out;
  shardrpc::PutShardMeta(&out, meta);
  return Binary(out);
}

HttpResponse ShardService::HandleVocab(const HttpRequest&) {
  BufWriter out;
  SaveVocabulary(corpus_->vocab(), &out);
  return Binary(out);
}

HttpResponse ShardService::HandleObjects(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t count = in.GetVarU64();
  if (!in.CheckCount(count, sizeof(uint32_t))) return BadBody(in);
  std::vector<ObjectId> locals;
  locals.reserve(count);
  BufWriter out;
  out.PutVarU64(count);
  for (uint64_t i = 0; i < count; ++i) {
    const ObjectId global = in.GetU32();
    if (!in.ok()) return BadBody(in);
    const std::optional<ObjectId> local = LocalOf(view_, global);
    if (!local.has_value()) {
      return HttpResponse::Error(
          404, "object " + std::to_string(global) + " is not on shard " +
                   std::to_string(info_.shard_index));
    }
    shardrpc::PutObject(&out, global, corpus_->store().Get(*local));
  }
  if (!in.AtEnd()) return BadBody(in);
  return Binary(out);
}

HttpResponse ShardService::HandleFind(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const std::string name = in.GetString();
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  // First local match = first global match within the shard (local order is
  // the global order restricted to the shard).
  const ObjectId local = corpus_->store().FindByName(name);
  BufWriter out;
  out.PutU32(local == kInvalidObject ? kInvalidObject : ToGlobal(local));
  return Binary(out);
}

// --- Top-k -------------------------------------------------------------------

HttpResponse ShardService::HandleTopK(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const Query query = shardrpc::GetQuery(&in);
  const double prune_below = in.GetF64();
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  if (auto bad = CheckK(query.k, corpus_->size())) return *bad;
  // The k-NN half of the search keys nodes by ws·(1 − MinDist), a bound
  // only for finite ws ≥ 0. Zero weights stay valid: a coordinator's top-k
  // passes any weights a caller may ask of the engine.
  if (!std::isfinite(query.loc.x) || !std::isfinite(query.loc.y)) {
    return HttpResponse::Error(400, "query location must be finite");
  }
  if (!(std::isfinite(query.w.ws) && query.w.ws >= 0.0 &&
        std::isfinite(query.w.wt) && query.w.wt >= 0.0)) {
    return HttpResponse::Error(400, "weights must be finite and non-negative");
  }
  if (std::isnan(prune_below)) {
    return HttpResponse::Error(400, "prune_below must not be NaN");
  }

  TopKStats stats;
  const TopKResult rows = shard_.TopK(query, prune_below, &stats).value();
  return Rows(rows, stats);
}

// --- Question sessions ------------------------------------------------------

HttpResponse ShardService::HandlePlaneOpen(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const Query query = shardrpc::GetQuery(&in);
  const KeywordSet universe = KeywordSet::FromSortedUnique(in.GetDeltaIds());
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  if (Status s = query.Validate(); !s.ok()) {
    return HttpResponse::Error(400, s.message());
  }
  if (universe.size() > kMaxKeywordUniverse) {
    return HttpResponse::Error(
        400, "question universe of " + std::to_string(universe.size()) +
                 " keywords exceeds " + std::to_string(kMaxKeywordUniverse));
  }

  auto session = std::make_shared<PlaneSession>();
  session->query = query;
  session->universe = KeywordSet::Union(query.doc, universe);
  session->question = shard_.OpenQuestion(query, universe).value();
  const QuestionShape shape = session->question->shape();
  BufWriter out;
  out.PutU64(AddSession(std::move(session)));
  out.PutVarU64(shape.objects);
  out.PutVarU64(shape.groups);
  out.PutVarU64(shape.columns);
  return Binary(out);
}

HttpResponse ShardService::HandlePlaneRank(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  SpecBatch batch;
  if (auto bad = DecodeSpecs(&in, &batch)) return *bad;
  const std::shared_ptr<PlaneSession> session = FindSession(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown plane session");
  }
  for (const Query& q : batch.queries) {
    if (!QuestionCovers(session->query, session->universe, q)) {
      return HttpResponse::Error(
          400, "rank spec outside the question: another location, or "
               "keywords beyond q.doc and its universe");
    }
  }
  return Counts(session->question->CountOutscoring(batch.targets).value());
}

HttpResponse ShardService::HandlePlaneTopK(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  Query query;
  query.w.ws = in.GetF64();
  query.w.wt = in.GetF64();
  query.doc = KeywordSet::FromSortedUnique(in.GetDeltaIds());
  query.k = in.GetVarU32();
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  if (auto bad = CheckK(query.k, corpus_->size())) return *bad;
  const std::shared_ptr<PlaneSession> session = FindSession(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown plane session");
  }
  query.loc = session->query.loc;
  if (!QuestionCoversTopK(session->query, session->universe, query)) {
    return HttpResponse::Error(
        400, "top-k outside the question: keywords beyond q.doc and its "
             "universe, or weights not finite and non-negative");
  }
  TopKStats stats;
  const TopKResult rows = session->question->TopK(query, &stats).value();
  return Rows(rows, stats);
}

HttpResponse ShardService::HandlePlaneCountBatch(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  const uint64_t num_weights = in.GetVarU64();
  if (!in.CheckCount(num_weights, sizeof(double))) return BadBody(in);
  std::vector<double> weights;
  weights.reserve(num_weights);
  for (uint64_t i = 0; i < num_weights; ++i) weights.push_back(in.GetF64());
  const uint64_t num_anchors = in.GetVarU64();
  if (!in.CheckCount(num_anchors, 20)) return BadBody(in);
  std::vector<PlanePoint> anchors;
  anchors.reserve(num_anchors);
  for (uint64_t i = 0; i < num_anchors; ++i) {
    anchors.push_back(shardrpc::GetPlanePoint(&in));
  }
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  if (num_weights == 0 || num_anchors == 0) {
    return HttpResponse::Error(400, "empty plane count batch");
  }
  if (num_weights * num_anchors > kMaxCountBatchPairs) {
    return HttpResponse::Error(
        400, "plane count batch of " + std::to_string(num_weights) + " x " +
                 std::to_string(num_anchors) + " pairs exceeds " +
                 std::to_string(kMaxCountBatchPairs));
  }
  if (!std::all_of(weights.begin(), weights.end(), IsSweepWeight) ||
      !std::all_of(anchors.begin(), anchors.end(), IsFinitePoint)) {
    return HttpResponse::Error(400, "bad plane count weight or anchor");
  }
  const std::shared_ptr<PlaneSession> session = FindSession(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown plane session");
  }
  // Thresholds are computed inside CountAboveBatch from anchor.ScoreAt(w),
  // the same double the in-process oracles hand every shard.
  std::vector<size_t> counts(weights.size() * anchors.size(), 0);
  size_t nodes = 0;
  (void)session->question->CountAboveBatch(weights, anchors, &counts, &nodes);
  BufWriter out;
  out.PutVarU64(counts.size());
  for (size_t c : counts) out.PutU64(c);
  out.PutU64(nodes);
  return Binary(out);
}

HttpResponse ShardService::HandlePlaneCrossings(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  const PlanePoint anchor = shardrpc::GetPlanePoint(&in);
  const double wlo = in.GetF64();
  const double whi = in.GetF64();
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  if (!(wlo >= 0.0 && wlo <= whi && whi <= 1.0) || !IsFinitePoint(anchor)) {
    return HttpResponse::Error(400, "bad plane crossing interval or anchor");
  }
  const std::shared_ptr<PlaneSession> session = FindSession(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown plane session");
  }
  std::vector<double> events;
  size_t nodes = 0;
  (void)session->question->CollectCrossings(anchor, wlo, whi, &events, &nodes);
  BufWriter out;
  out.PutVarU64(events.size());
  for (double e : events) out.PutF64(e);
  out.PutU64(nodes);
  return Binary(out);
}

HttpResponse ShardService::HandlePlaneClose(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  bool erased;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    erased = planes_.erase(id) > 0;
  }
  BufWriter out;
  out.PutU8(erased ? 1 : 0);
  return Binary(out);
}

}  // namespace yask
