#include "src/server/shard_service.h"

#include <algorithm>

#include "src/common/timer.h"
#include "src/common/version.h"
#include "src/query/ranking.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/trace_json.h"

namespace yask {

using shardrpc::CountMethod;

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

}  // namespace

/// One Eqn. (3) session: this shard's plane points / plane index for one
/// query. Calls are serialised per session (the coordinator's weight sweep
/// is sequential anyway; the lock protects against misbehaving clients).
struct ShardService::PlaneSession {
  std::mutex mu;
  std::unique_ptr<ShardPlane> plane;
  uint64_t last_use = 0;  // Guarded by sessions_mu_, not mu.
};

/// One Eqn. (4) probe batch: per (candidate, missing object) member a
/// candidate query copy, a scorer bound to it, and this shard's refiner.
/// Members live behind unique_ptrs — scorers point into the member's query.
struct ShardService::ProbeSession {
  struct Member {
    Query query;
    std::optional<Scorer> scorer;
    std::optional<ShardRankRefiner> refiner;
  };

  std::mutex mu;
  std::vector<std::unique_ptr<Member>> members;
  KeywordAdaptStats stats;  // Refiner work counters; deltas reported per call.
  uint64_t last_use = 0;    // Guarded by sessions_mu_, not mu.
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
      topk_(corpus.store(), corpus.setr()),
      server_(options.port, options.num_workers),
      max_sessions_(options.max_sessions == 0 ? 1 : options.max_sessions) {
  topk_.set_dist_norm(info_.dist_norm);
  view_ = OracleShardView{
      &corpus.store(), &corpus.setr(),
      corpus.has_kcr() ? &corpus.kcr() : nullptr,
      info_.to_global.empty() ? nullptr : &info_.to_global};

  server_.Route("GET", shardrpc::kHealthPath, Instrumented(
      shardrpc::kHealthPath,
      [this](const HttpRequest& r) { return HandleHealth(r); }));
  server_.Route("GET", shardrpc::kMetaPath, Instrumented(
      shardrpc::kMetaPath,
      [this](const HttpRequest& r) { return HandleMeta(r); }));
  server_.Route("GET", shardrpc::kVocabPath, Instrumented(
      shardrpc::kVocabPath,
      [this](const HttpRequest& r) { return HandleVocab(r); }));
  server_.Route("POST", shardrpc::kObjectsPath, Instrumented(
      shardrpc::kObjectsPath,
      [this](const HttpRequest& r) { return HandleObjects(r); }));
  server_.Route("POST", shardrpc::kFindPath, Instrumented(
      shardrpc::kFindPath,
      [this](const HttpRequest& r) { return HandleFind(r); }));
  server_.Route("POST", shardrpc::kTopKPath, Instrumented(
      shardrpc::kTopKPath,
      [this](const HttpRequest& r) { return HandleTopK(r); }));
  server_.Route("POST", shardrpc::kCountPath, Instrumented(
      shardrpc::kCountPath,
      [this](const HttpRequest& r) { return HandleCount(r); }));
  server_.Route("POST", shardrpc::kPlaneOpenPath, Instrumented(
      shardrpc::kPlaneOpenPath,
      [this](const HttpRequest& r) { return HandlePlaneOpen(r); }));
  server_.Route("POST", shardrpc::kPlaneCountPath, Instrumented(
      shardrpc::kPlaneCountPath,
      [this](const HttpRequest& r) { return HandlePlaneCount(r); }));
  server_.Route("POST", shardrpc::kPlaneCountBatchPath, Instrumented(
      shardrpc::kPlaneCountBatchPath,
      [this](const HttpRequest& r) { return HandlePlaneCountBatch(r); }));
  server_.Route("POST", shardrpc::kPlaneCrossingsPath, Instrumented(
      shardrpc::kPlaneCrossingsPath,
      [this](const HttpRequest& r) { return HandlePlaneCrossings(r); }));
  server_.Route("POST", shardrpc::kPlaneClosePath, Instrumented(
      shardrpc::kPlaneClosePath,
      [this](const HttpRequest& r) { return HandlePlaneClose(r); }));
  server_.Route("POST", shardrpc::kProbeOpenPath, Instrumented(
      shardrpc::kProbeOpenPath,
      [this](const HttpRequest& r) { return HandleProbeOpen(r); }));
  server_.Route("POST", shardrpc::kProbeRefinePath, Instrumented(
      shardrpc::kProbeRefinePath,
      [this](const HttpRequest& r) { return HandleProbeRefine(r); }));
  server_.Route("POST", shardrpc::kProbeClosePath, Instrumented(
      shardrpc::kProbeClosePath,
      [this](const HttpRequest& r) { return HandleProbeClose(r); }));
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
  metrics_.AddGaugeCallback("yask_shard_open_probe_sessions", shard_label,
                            [this] {
                              std::lock_guard<std::mutex> lock(sessions_mu_);
                              return static_cast<double>(probes_.size());
                            });
  metrics_.AddGaugeCallback("yask_shard_objects", shard_label, [this] {
    return static_cast<double>(corpus_->size());
  });
  MetricLabels plane_labels = shard_label;
  plane_labels.emplace_back("kind", "plane");
  plane_evictions_ =
      metrics_.GetCounter("yask_shard_sessions_evicted_total", plane_labels);
  MetricLabels probe_labels = shard_label;
  probe_labels.emplace_back("kind", "probe");
  probe_evictions_ =
      metrics_.GetCounter("yask_shard_sessions_evicted_total", probe_labels);
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
  return planes_.size() + probes_.size();
}

std::optional<ObjectId> ShardService::ToLocal(ObjectId global_id) const {
  if (info_.to_global.empty()) {
    if (global_id >= corpus_->size()) return std::nullopt;
    return global_id;
  }
  // to_global is strictly ascending (shards fill in global id order).
  const auto it = std::lower_bound(info_.to_global.begin(),
                                   info_.to_global.end(), global_id);
  if (it == info_.to_global.end() || *it != global_id) return std::nullopt;
  return static_cast<ObjectId>(it - info_.to_global.begin());
}

std::shared_ptr<ShardService::PlaneSession> ShardService::FindPlane(
    uint64_t id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = planes_.find(id);
  if (it == planes_.end()) return nullptr;
  it->second->last_use = ++use_clock_;
  return it->second;
}

std::shared_ptr<ShardService::ProbeSession> ShardService::FindProbe(
    uint64_t id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = probes_.find(id);
  if (it == probes_.end()) return nullptr;
  it->second->last_use = ++use_clock_;
  return it->second;
}

template <typename Map>
void ShardService::EvictLeastRecentlyUsed(Map* sessions) const {
  // Called under sessions_mu_ with size == max + 1. Evicting by LAST USE,
  // not creation order, protects a long-running sweep's session from a
  // burst of newer opens; the maps are small (<= max_sessions + 1), so a
  // linear scan beats bookkeeping an intrusive LRU list here.
  auto victim = sessions->begin();
  for (auto it = sessions->begin(); it != sessions->end(); ++it) {
    if (it->second->last_use < victim->second->last_use) victim = it;
  }
  sessions->erase(victim);
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
  indexes.Set("kcr", JsonValue(corpus_->has_kcr()));
  out.Set("indexes", std::move(indexes));
  // Whether this shard can serve its slice of /whynot refinement.
  out.Set("whynot", JsonValue(corpus_->has_kcr()));
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
  meta.has_kcr = corpus_->has_kcr();
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
    const std::optional<ObjectId> local = ToLocal(global);
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

  TopKStats stats;
  TopKResult rows;
  if (query.k > 0) rows = topk_.Query(query, prune_below, &stats);
  for (ScoredObject& row : rows) row.id = ToGlobal(row.id);

  BufWriter out;
  shardrpc::PutScoredRows(&out, rows);
  out.PutU64(stats.nodes_popped);
  out.PutU64(stats.objects_scored);
  return Binary(out);
}

// --- Outscoring counts -------------------------------------------------------

HttpResponse ShardService::HandleCount(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t count = in.GetVarU64();
  if (!in.CheckCount(count, 16)) return BadBody(in);
  struct Spec {
    Query query;
    ObjectId target;
    double target_score;
    uint8_t method;
  };
  std::vector<Spec> specs;
  specs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Spec spec;
    spec.query = shardrpc::GetQuery(&in);
    spec.target = in.GetU32();
    spec.target_score = in.GetF64();
    spec.method = in.GetU8();
    if (!in.ok()) return BadBody(in);
    if (spec.method != static_cast<uint8_t>(CountMethod::kScan) &&
        spec.method != static_cast<uint8_t>(CountMethod::kSetR)) {
      return HttpResponse::Error(400, "unknown count method");
    }
    specs.push_back(std::move(spec));
  }
  if (!in.AtEnd()) return BadBody(in);

  // Every scan spec shares one pass over the store.
  std::vector<ScanTarget> scans;
  for (const Spec& spec : specs) {
    if (spec.method == static_cast<uint8_t>(CountMethod::kScan)) {
      scans.push_back(ScanTarget{&spec.query, spec.target_score, spec.target});
    }
  }
  const std::vector<size_t> scanned =
      ShardScanOutscoring(view_, info_.dist_norm, scans);
  BufWriter out;
  out.PutVarU64(count);
  size_t next_scan = 0;
  for (const Spec& spec : specs) {
    uint64_t above;
    if (spec.method == static_cast<uint8_t>(CountMethod::kScan)) {
      above = scanned[next_scan++];
    } else {
      const Scorer scorer(corpus_->store(), spec.query, info_.dist_norm);
      above = CountOutscoring(corpus_->store(), corpus_->setr(), scorer,
                              spec.target_score, spec.target, view_.to_global);
    }
    out.PutU64(above);
  }
  return Binary(out);
}

// --- Score-plane sessions (Eqn. (3)) -----------------------------------------

HttpResponse ShardService::HandlePlaneOpen(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const Query query = shardrpc::GetQuery(&in);
  const bool optimized = in.GetU8() != 0;
  if (!in.ok() || !in.AtEnd()) return BadBody(in);

  auto session = std::make_shared<PlaneSession>();
  session->plane = std::make_unique<ShardPlane>(view_, query, info_.dist_norm,
                                                optimized);
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    id = next_session_id_++;
    session->last_use = ++use_clock_;
    planes_[id] = std::move(session);
    if (planes_.size() > max_sessions_) {
      EvictLeastRecentlyUsed(&planes_);
      plane_evictions_->Add();
    }
  }
  BufWriter out;
  out.PutU64(id);
  return Binary(out);
}

HttpResponse ShardService::HandlePlaneCount(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  const double w = in.GetF64();
  const PlanePoint anchor = shardrpc::GetPlanePoint(&in);
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  const std::shared_ptr<PlaneSession> session = FindPlane(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown plane session");
  }
  // The same double the in-process session hands every shard.
  const double threshold = anchor.ScoreAt(w);
  size_t nodes = 0;
  size_t count;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    count = session->plane->CountAbove(w, threshold, anchor, &nodes);
  }
  BufWriter out;
  out.PutU64(count);
  out.PutU64(nodes);
  return Binary(out);
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
  const std::shared_ptr<PlaneSession> session = FindPlane(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown plane session");
  }
  // Thresholds are computed inside CountAboveBatch from the same
  // anchor.ScoreAt(w) expression HandlePlaneCount evaluates, so each batched
  // count is the same double-for-double computation as its per-call twin.
  std::vector<size_t> counts(weights.size() * anchors.size(), 0);
  size_t nodes = 0;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->plane->CountAboveBatch(weights, anchors, &counts, &nodes);
  }
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
  const std::shared_ptr<PlaneSession> session = FindPlane(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown plane session");
  }
  std::vector<double> events;
  size_t nodes = 0;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->plane->CollectCrossings(anchor, wlo, whi, &events, &nodes);
  }
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

// --- Rank-probe batches (Eqn. (4)) -------------------------------------------

HttpResponse ShardService::HandleProbeOpen(const HttpRequest& req) {
  if (view_.kcr == nullptr) {
    return HttpResponse::Error(
        501, "shard " + std::to_string(info_.shard_index) +
                 " has no KcR-tree; rank probes (why-not keyword "
                 "refinement) are unavailable");
  }
  BufReader in(req.body.data(), req.body.size());
  const uint64_t count = in.GetVarU64();
  if (!in.CheckCount(count, 16)) return BadBody(in);

  auto session = std::make_shared<ProbeSession>();
  session->members.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    auto member = std::make_unique<ProbeSession::Member>();
    member->query = shardrpc::GetQuery(&in);
    const ObjectId target = in.GetU32();
    const double target_score = in.GetF64();
    if (!in.ok()) return BadBody(in);
    member->scorer.emplace(corpus_->store(), member->query, info_.dist_norm);
    member->refiner.emplace(view_, *member->scorer, target, target_score,
                            &session->stats);
    session->members.push_back(std::move(member));
  }
  if (!in.AtEnd()) return BadBody(in);

  BufWriter out;
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    id = next_session_id_++;
    session->last_use = ++use_clock_;
    probes_[id] = session;
    if (probes_.size() > max_sessions_) {
      EvictLeastRecentlyUsed(&probes_);
      probe_evictions_->Add();
    }
  }
  out.PutU64(id);
  for (const auto& member : session->members) {
    out.PutU64(member->refiner->count_lower());
    out.PutU64(member->refiner->count_upper());
    out.PutU8(member->refiner->resolved() ? 1 : 0);
  }
  return Binary(out);
}

HttpResponse ShardService::HandleProbeRefine(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  const uint64_t count = in.GetVarU64();
  if (!in.CheckCount(count, 1)) return BadBody(in);
  const std::shared_ptr<ProbeSession> session = FindProbe(id);
  if (session == nullptr) {
    return HttpResponse::Error(404, "unknown probe session");
  }

  std::lock_guard<std::mutex> lock(session->mu);
  // The whole request is validated before any refiner moves: a rejected
  // request leaves the session exactly as it was.
  std::vector<ShardRankRefiner*> refiners;
  refiners.reserve(count);
  std::vector<char> listed(session->members.size(), 0);
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t m = in.GetVarU32();
    if (!in.ok()) return BadBody(in);
    if (m >= session->members.size()) {
      return HttpResponse::Error(
          400, "probe member " + std::to_string(m) + " out of range");
    }
    if (listed[m]) {
      return HttpResponse::Error(
          400, "probe member " + std::to_string(m) + " listed twice");
    }
    listed[m] = 1;
    refiners.push_back(&*session->members[m]->refiner);
  }
  if (!in.AtEnd()) return BadBody(in);

  const KeywordAdaptStats before = session->stats;
  ShardRankRefiner::RefineLevel(refiners);

  BufWriter out;
  out.PutVarU64(count);
  for (const ShardRankRefiner* refiner : refiners) {
    out.PutU64(refiner->count_lower());
    out.PutU64(refiner->count_upper());
    out.PutU8(refiner->resolved() ? 1 : 0);
  }
  out.PutU64(session->stats.kcr_nodes_expanded - before.kcr_nodes_expanded);
  out.PutU64(session->stats.objects_scored - before.objects_scored);
  return Binary(out);
}

HttpResponse ShardService::HandleProbeClose(const HttpRequest& req) {
  BufReader in(req.body.data(), req.body.size());
  const uint64_t id = in.GetU64();
  if (!in.ok() || !in.AtEnd()) return BadBody(in);
  bool erased;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    erased = probes_.erase(id) > 0;
  }
  BufWriter out;
  out.PutU8(erased ? 1 : 0);
  return Binary(out);
}

}  // namespace yask
