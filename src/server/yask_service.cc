#include "src/server/yask_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "src/common/string_util.h"
#include "src/common/text.h"
#include "src/common/timer.h"
#include "src/common/version.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/server/http_client.h"
#include "src/server/shard_protocol.h"
#include "src/server/trace_json.h"

namespace yask {

namespace {

/// Checked double -> integer conversions for client-supplied JSON numbers:
/// a value outside the type's range (a bare static_cast from a negative or
/// huge double is UB) or with a fractional part (which a cast would
/// silently truncate: "k": 2.5 is not k = 2) is rejected.
bool ToUint32(double v, uint32_t* out) {
  if (!(v >= 0.0 && v <= static_cast<double>(
                             std::numeric_limits<uint32_t>::max())) ||
      std::trunc(v) != v) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ToUint64(double v, uint64_t* out) {
  if (!(v >= 0.0 && v < 18446744073709551616.0) || std::trunc(v) != v) {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

/// The trace id the Instrumented wrapper minted for this request thread
/// ("" on untraced requests) — what the query log records.
std::string CurrentTraceId() {
  const TraceContext ctx = CurrentTraceContext();
  return ctx.recorder != nullptr ? ctx.recorder->trace_id() : std::string();
}

/// Bit-exact double rendering for canonical cache keys: two doubles map to
/// the same key iff they are the same value (decimal formatting would
/// collapse distinct inputs and split equal ones).
std::string HexBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return std::string(buf);
}

/// Canonical /query key. Every answer-relevant input is folded in: the
/// layout generation (a cutover swaps the whole fleet, so every response
/// computed on the old layout is retired), the corpus error epoch (a replica
/// failure may change which replica answers, so it retires all prior
/// entries), k, the bit-exact location, and the resolved term-id set
/// (already sorted/deduplicated, so "wifi coffee" and "coffee wifi coffee"
/// share one key — they ARE the same query). The weight vector is a
/// server-side constant (§3.2) and is deliberately absent.
std::string QueryCacheKey(uint64_t generation, uint64_t epoch,
                          const Query& q) {
  std::string key = "q|g" + std::to_string(generation) + "|e" +
                    std::to_string(epoch) + "|k" + std::to_string(q.k) + '|' +
                    HexBits(q.loc.x) + ',' + HexBits(q.loc.y) + '|';
  for (const TermId t : q.doc) {
    key += std::to_string(t);
    key += ',';
  }
  return key;
}

/// Canonical /whynot key. query_id alone pins the initial query (ids are
/// minted monotonically and never reused); `missing` stays in request order
/// because explanations are rendered per missing object in that order.
std::string WhyNotCacheKey(uint64_t generation, uint64_t epoch,
                           uint64_t query_id,
                           const std::vector<ObjectId>& missing,
                           const std::string& model, double lambda) {
  std::string key = "w|g" + std::to_string(generation) + "|e" +
                    std::to_string(epoch) + "|q" + std::to_string(query_id) +
                    '|' + model + '|' + HexBits(lambda) + '|';
  for (const ObjectId id : missing) {
    key += std::to_string(id);
    key += ',';
  }
  return key;
}

/// The "build" object /health exposes on coordinator and shard servers
/// alike: which binary this process runs (git sha) and which shardrpc
/// protocol range it speaks — what a rolling upgrade asserts per process.
JsonValue BuildInfoJson() {
  JsonValue build = JsonValue::MakeObject();
  build.Set("git_sha", JsonValue(std::string(BuildGitSha())));
  build.Set("shardrpc_min", JsonValue(static_cast<size_t>(
                                shardrpc::kMinSupportedProtocolVersion)));
  build.Set("shardrpc_max",
            JsonValue(static_cast<size_t>(shardrpc::kProtocolVersion)));
  return build;
}

}  // namespace

YaskService::YaskService(YaskServiceOptions options)
    : options_(options), server_(options.port, options.num_workers) {
  traces_.set_slow_threshold_ms(options.slow_trace_threshold_ms);
  // Only the two engine-driven endpoints are traced (they are the ones with
  // a span tree worth keeping); everything data-path is metered.
  server_.Route("POST", "/query", Instrumented(
      "/query", /*traced=*/true,
      [this](const HttpRequest& r) { return HandleQuery(r); }));
  server_.Route("POST", "/whynot", Instrumented(
      "/whynot", /*traced=*/true,
      [this](const HttpRequest& r) { return HandleWhyNot(r); }));
  server_.Route("GET", "/objects", Instrumented(
      "/objects", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleObjects(r); }));
  server_.Route("GET", "/log", Instrumented(
      "/log", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleLog(r); }));
  server_.Route("POST", "/forget", Instrumented(
      "/forget", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleForget(r); }));
  server_.Route("GET", "/health", Instrumented(
      "/health", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleHealth(r); }));
  server_.Route("POST", "/snapshot", Instrumented(
      "/snapshot", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleSnapshot(r); }));
  // Fleet admin (coordinator mode, enable_fleet_admin): runtime layout
  // cutover and replica membership. Untraced — they are rare control-plane
  // calls, and the /metrics meters suffice.
  server_.Route("GET", "/admin/layout", Instrumented(
      "/admin/layout", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleAdminLayout(r); }));
  server_.Route("POST", "/admin/layout", Instrumented(
      "/admin/layout", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleAdminLayout(r); }));
  server_.Route("POST", "/admin/replicas", Instrumented(
      "/admin/replicas", /*traced=*/false,
      [this](const HttpRequest& r) { return HandleAdminReplicas(r); }));
  // Observability endpoints are not instrumented: a scrape must not move
  // the series it reads. They still pin the active deployment — both read
  // remote state, which a concurrent cutover must not destroy under them.
  server_.Route("GET", "/metrics", [this](const HttpRequest& r) {
    DeploymentPin pin(*this);
    return HandleMetrics(r);
  });
  server_.RoutePrefix("GET", "/trace/", [this](const HttpRequest& r) {
    DeploymentPin pin(*this);
    return HandleTrace(r);
  });
  metrics_.AddGaugeCallback("yask_cached_queries", {}, [this] {
    return static_cast<double>(cached_queries());
  });
  metrics_.AddGaugeCallback("yask_query_log_entries", {}, [this] {
    return static_cast<double>(log_.size());
  });
  metrics_.AddCounterCallback("yask_http_idle_reaped_total", {}, [this] {
    return static_cast<double>(server_.idle_reaped());
  });
  if (options_.enable_result_cache) {
    result_cache_ = std::make_unique<ResultCache>(
        options_.result_cache_max_entries, options_.result_cache_max_bytes,
        metrics_.GetCounter("yask_result_cache_evictions_total", {}),
        metrics_.GetCounter("yask_result_cache_invalidations_total", {}));
    cache_hits_ = metrics_.GetCounter("yask_result_cache_hits_total", {});
    cache_misses_ = metrics_.GetCounter("yask_result_cache_misses_total", {});
    coalesced_ = metrics_.GetCounter("yask_coalesced_requests_total", {});
    coalesce_leader_failures_ =
        metrics_.GetCounter("yask_coalesce_leader_failures_total", {});
    metrics_.AddGaugeCallback("yask_result_cache_entries", {}, [this] {
      return static_cast<double>(result_cache_->entries());
    });
    metrics_.AddGaugeCallback("yask_result_cache_bytes", {}, [this] {
      return static_cast<double>(result_cache_->bytes());
    });
  }
  // A minimal index page standing in for the demo's map GUI (Figs. 3-5).
  server_.Route("GET", "/", [](const HttpRequest&) {
    return HttpResponse{
        200, "text/html",
        "<!doctype html><title>YASK</title><h1>YASK</h1>"
        "<p>A why-not question answering engine for spatial keyword query "
        "services (VLDB'16 demo, C++ reproduction).</p><ul>"
        "<li>POST /query {x, y, keywords, k}</li>"
        "<li>POST /whynot {query_id, missing[], model, lambda}</li>"
        "<li>GET /objects?limit=N &middot; GET /log &middot; GET /health"
        "</li><li>POST /forget {query_id}</li></ul>"};
  });
}

YaskService::YaskService(const Corpus& corpus, YaskServiceOptions options)
    : YaskService(options) {
  auto d = std::make_shared<Deployment>();
  d->engine.emplace(corpus);
  d->vocab = &corpus.vocab();
  d->find_by_name = [&corpus](const std::string& name) {
    return corpus.store().FindByName(name);
  };
  d->save = [&corpus](const std::string& path) { return corpus.Save(path); };
  deployment_ = std::move(d);
}

YaskService::YaskService(const ShardedCorpus& corpus,
                         YaskServiceOptions options)
    : YaskService(options) {
  auto d = std::make_shared<Deployment>();
  d->engine.emplace(corpus);
  d->vocab = &corpus.vocab();
  d->shards = corpus.num_shards();
  d->find_by_name = [&corpus](const std::string& name) {
    return corpus.FindByName(name);
  };
  d->save = [&corpus](const std::string& prefix) {
    return corpus.Save(prefix);
  };
  deployment_ = std::move(d);
}

YaskService::YaskService(const RemoteCorpus& corpus,
                         YaskServiceOptions options)
    : YaskService(options) {
  // The boot deployment (generation 1) borrows the caller's corpus; fleets
  // swapped in later via /admin/layout are owned by their deployment.
  auto boot = std::make_shared<Deployment>();
  BindRemote(corpus, boot.get());
  deployment_ = std::move(boot);
}

void YaskService::BindRemote(const RemoteCorpus& corpus,
                             Deployment* deployment) {
  deployment->spec = SpecOf(corpus);
  deployment->remote = &corpus;
  deployment->engine.emplace(std::make_unique<RemoteShardOracle>(corpus));
  deployment->vocab = &corpus.vocab();
  deployment->shards = corpus.num_shards();
  deployment->find_by_name = [&corpus](const std::string& name) {
    return corpus.FindByName(name);
  };
}

Status YaskService::Start() { return server_.Start(); }

void YaskService::Stop() { server_.Stop(); }

// --- Layout deployments ------------------------------------------------------

thread_local const YaskService::Deployment* YaskService::tls_deployment_ =
    nullptr;

YaskService::DeploymentPin::DeploymentPin(const YaskService& service)
    : previous_(tls_deployment_) {
  {
    std::lock_guard<std::mutex> lock(service.layout_mu_);
    pinned_ = service.deployment_;
  }
  tls_deployment_ = pinned_.get();
}

YaskService::DeploymentPin::~DeploymentPin() { tls_deployment_ = previous_; }

const YaskService::Deployment& YaskService::CurrentDeployment() const {
  // Every handler runs under a DeploymentPin; the fallback covers direct
  // calls from tests or constructors (no cutover can race those).
  if (tls_deployment_ != nullptr) return *tls_deployment_;
  std::lock_guard<std::mutex> lock(layout_mu_);
  return *deployment_;
}

const RemoteCorpus* YaskService::ActiveRemote() const {
  return CurrentDeployment().remote;
}

const WhyNotEngine& YaskService::Engine() const {
  return *CurrentDeployment().engine;
}

uint64_t YaskService::LayoutGeneration() const {
  return CurrentDeployment().generation;
}

std::string YaskService::SpecOf(const RemoteCorpus& corpus) {
  std::string spec;
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    if (!spec.empty()) spec += ',';
    spec += corpus.replicas(s).description();
  }
  return spec;
}

JsonValue YaskService::LayoutJson() const {
  const Deployment& deployment = CurrentDeployment();
  JsonValue out = JsonValue::MakeObject();
  out.Set("generation", JsonValue(static_cast<size_t>(deployment.generation)));
  out.Set("spec", JsonValue(deployment.spec));
  std::lock_guard<std::mutex> lock(layout_mu_);
  out.Set("draining", JsonValue(draining_.size()));
  return out;
}

std::optional<HttpResponse> YaskService::AdminGate() const {
  if (ActiveRemote() == nullptr) {
    return HttpResponse::Error(
        501, "fleet admin applies to coordinator mode only (this server "
             "holds its corpus in-process)");
  }
  if (!options_.enable_fleet_admin) {
    return HttpResponse::Error(
        403, "fleet admin is disabled on this server "
             "(YaskServiceOptions::enable_fleet_admin)");
  }
  return std::nullopt;
}

HttpResponse YaskService::SwapLayout(const std::string& spec) {
  // Connect OUTSIDE layout_mu_: dialing takes wall time and serving must not
  // stall behind it. The swap itself is a pointer exchange.
  auto connected =
      RemoteCorpus::Connect(Split(spec, ','), options_.admin_connect_options);
  if (!connected.ok()) {
    return HttpResponse::Error(
        502, "new layout rejected: " + connected.status().ToString());
  }
  auto next = std::make_shared<Deployment>();
  next->owned.emplace(std::move(connected).value());
  BindRemote(*next->owned, next.get());

  // The new fleet must serve the SAME dataset: a cutover changes where
  // objects live, never what they are. Validated against the pinned active
  // deployment (object count, bounds, SDist normaliser); a mismatch means
  // the operator pointed the coordinator at a different corpus.
  const RemoteCorpus& active = *ActiveRemote();
  const RemoteCorpus& incoming = *next->remote;
  if (incoming.size() != active.size() ||
      !(incoming.bounds() == active.bounds()) ||
      incoming.dist_norm() != active.dist_norm()) {
    return HttpResponse::Error(
        409, "new layout serves a different dataset (" +
                 std::to_string(incoming.size()) + " objects vs " +
                 std::to_string(active.size()) +
                 ", or bounds/dist_norm differ) — reshard the SAME snapshot "
                 "set and retry");
  }

  uint64_t generation = 0;
  size_t draining = 0;
  {
    std::lock_guard<std::mutex> lock(layout_mu_);
    generation = deployment_->generation + 1;
    next->generation = generation;
    draining_.push_back(std::move(deployment_));
    deployment_ = std::move(next);
    // Reap drained deployments nobody pins anymore (use_count 1 = only the
    // draining_ entry itself). The boot deployment's borrowed corpus is NOT
    // destroyed by reaping — it only drops the deployment wrapper.
    draining_.erase(
        std::remove_if(draining_.begin(), draining_.end(),
                       [](const std::shared_ptr<const Deployment>& d) {
                         return d.use_count() == 1;
                       }),
        draining_.end());
    draining = draining_.size();
  }
  log_.Append("layout", "generation " + std::to_string(generation) + " -> " +
                            spec,
              0.0);

  JsonValue out = JsonValue::MakeObject();
  out.Set("generation", JsonValue(static_cast<size_t>(generation)));
  out.Set("spec", JsonValue(spec));
  out.Set("draining", JsonValue(draining));
  return HttpResponse::Json(out.Dump());
}

HttpResponse YaskService::HandleAdminLayout(const HttpRequest& req) {
  if (auto blocked = AdminGate(); blocked.has_value()) return *blocked;
  if (req.method == "GET") {
    JsonValue out = LayoutJson();
    out.Set("shards", JsonValue(CurrentDeployment().shards));
    return HttpResponse::Json(out.Dump());
  }
  auto parsed = JsonValue::Parse(req.body);
  if (!parsed.ok()) return HttpResponse::Error(400, parsed.status().message());
  if (!parsed.value().Get("remote_shards").is_string()) {
    return HttpResponse::Error(
        400, "expected {\"remote_shards\": \"host:port|...,host:port|...\"}");
  }
  return SwapLayout(parsed.value().Get("remote_shards").as_string());
}

HttpResponse YaskService::HandleAdminReplicas(const HttpRequest& req) {
  if (auto blocked = AdminGate(); blocked.has_value()) return *blocked;
  auto parsed = JsonValue::Parse(req.body);
  if (!parsed.ok()) return HttpResponse::Error(400, parsed.status().message());
  const JsonValue& in = parsed.value();
  const bool adding = in.Get("add").is_string();
  const bool removing = in.Get("remove").is_string();
  if (!in.Get("shard").is_number() || adding == removing) {
    return HttpResponse::Error(
        400, "expected {\"shard\": N, \"add\"|\"remove\": \"host:port\"}");
  }
  uint32_t shard = 0;
  if (!ToUint32(in.Get("shard").as_number(), &shard)) {
    return HttpResponse::Error(400, "shard out of range");
  }
  const std::string endpoint =
      adding ? in.Get("add").as_string() : in.Get("remove").as_string();

  const RemoteCorpus& active = *ActiveRemote();
  if (shard >= active.num_shards()) {
    return HttpResponse::Error(
        404, "shard " + std::to_string(shard) + " does not exist (layout has " +
                 std::to_string(active.num_shards()) + " shards)");
  }

  // Rewrite the active spec with the membership change, then run it through
  // the same connect-validate-swap path as a full cutover — which is exactly
  // PR 5's replica-identity validation: a LIVE new replica must present its
  // group's identity now; one that is still booting joins pending and is
  // checked on first contact (lazy connect).
  std::string spec;
  for (size_t s = 0; s < active.num_shards(); ++s) {
    std::vector<std::string> members =
        Split(active.replicas(s).description(), '|');
    if (s == shard) {
      const auto found =
          std::find(members.begin(), members.end(), endpoint);
      if (adding) {
        if (found != members.end()) {
          return HttpResponse::Error(
              409, endpoint + " is already a replica of shard " +
                       std::to_string(shard));
        }
        members.push_back(endpoint);
      } else {
        if (found == members.end()) {
          return HttpResponse::Error(
              404, endpoint + " is not a replica of shard " +
                       std::to_string(shard));
        }
        if (members.size() == 1) {
          return HttpResponse::Error(
              400, "cannot remove the last replica of shard " +
                       std::to_string(shard) +
                       " — a shard with no replicas cannot serve");
        }
        members.erase(found);
      }
    }
    std::string group;
    for (const std::string& member : members) {
      if (!group.empty()) group += '|';
      group += member;
    }
    if (!spec.empty()) spec += ',';
    spec += group;
  }
  return SwapLayout(spec);
}

size_t YaskService::cached_queries() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return query_cache_.size();
}

// --- Observability -----------------------------------------------------------

HttpServer::Handler YaskService::Instrumented(const char* endpoint,
                                              bool traced,
                                              HttpServer::Handler inner) {
  // The latency histogram is resolved once (stable pointer; the hot path
  // never takes the registry mutex for it). The code-labelled counter is
  // resolved per response: one short map probe under the registry mutex,
  // invisible next to the request's own work.
  Histogram* latency = metrics_.GetHistogram(
      "yask_http_request_ms", {{"endpoint", endpoint}});
  const std::string endpoint_str = endpoint;
  return [this, latency, endpoint_str, traced,
          inner = std::move(inner)](const HttpRequest& req) {
    // One layout for the whole request: the pin holds the deployment alive
    // across a concurrent cutover, and every accessor below reads it.
    DeploymentPin pin(*this);
    Timer timer;
    HttpResponse resp;
    if (traced) {
      TraceRecorder recorder(MintTraceId());
      {
        TraceContextScope scope(TraceContext{&recorder, 0});
        ScopedSpan span(req.method + " " + endpoint_str);
        resp = inner(req);
      }
      // Every span doubles as a stage-latency sample, so the aggregate view
      // (/metrics) and the per-request view (/trace/<id>) never disagree.
      std::vector<TraceSpan> spans = recorder.TakeSpans();
      for (const TraceSpan& s : spans) {
        metrics_.GetHistogram("yask_stage_ms", {{"stage", s.name}})
            ->Observe(s.duration_ms);
      }
      traces_.Add(recorder.trace_id(), std::move(spans),
                  recorder.ElapsedMs());
    } else {
      resp = inner(req);
    }
    latency->Observe(timer.ElapsedMillis());
    metrics_
        .GetCounter("yask_http_requests_total",
                    {{"endpoint", endpoint_str},
                     {"code", std::to_string(resp.status)}})
        ->Add();
    return resp;
  };
}

HttpResponse YaskService::HandleMetrics(const HttpRequest&) {
  std::string body;
  metrics_.RenderPrometheus(&body);
  if (const RemoteCorpus* remote = ActiveRemote(); remote != nullptr) {
    // The remote corpus keeps its own registry (per-replica RPC latency,
    // retries, failovers, cooldowns, session replays). The family names are
    // disjoint from the service's, so plain concatenation is a valid
    // exposition. A cutover starts a fresh registry with the new fleet —
    // the active deployment's meters are the ones that describe serving.
    remote->metrics().RenderPrometheus(&body);
  }
  return HttpResponse{200, "text/plain; version=0.0.4", std::move(body)};
}

HttpResponse YaskService::HandleTrace(const HttpRequest& req) {
  const std::string id = req.path.substr(std::string("/trace/").size());
  if (id.empty()) return HttpResponse::Error(400, "expected /trace/<id>");
  const std::optional<TraceStore::Stored> stored = traces_.Get(id);
  if (!stored.has_value()) {
    return HttpResponse::Error(404, "unknown trace " + id +
                                        " (evicted or never recorded)");
  }
  JsonValue out = StoredTraceToJson(*stored, "coordinator");
  if (const RemoteCorpus* remote = ActiveRemote(); remote != nullptr) {
    // Stitch in the shard-side spans: every replica that served one of this
    // trace's RPCs holds them keyed by the propagated trace id. Fetched via
    // CallUnmetered over a dedicated warm keep-alive channel per replica —
    // no connection setup per read, never sharing a pipeline with metered
    // RPCs, and still NOT through ReplicaSet::Call: a trace read must not
    // move RPC metrics or error epochs (neither by being counted nor by
    // failing a shared pipe), and a dead replica here is simply skipped.
    JsonValue spans = out.Get("spans");
    for (size_t s = 0; s < remote->num_shards(); ++s) {
      const ReplicaSet& set = remote->replicas(s);
      for (size_t r = 0; r < set.num_replicas(); ++r) {
        auto body = set.replica(r).CallUnmetered(
            "GET", std::string(shardrpc::kTracePath) + "?id=" + id, "",
            /*deadline_ms=*/1000);
        if (!body.ok()) continue;
        auto doc = JsonValue::Parse(*body);
        if (!doc.ok()) continue;
        for (const JsonValue& span : doc->Get("spans").array_items()) {
          spans.Append(span);
        }
      }
    }
    out.Set("spans", std::move(spans));
  }
  return HttpResponse::Json(out.Dump());
}

// --- Serving state accessors -------------------------------------------------

size_t YaskService::ObjectCount() const { return Engine().oracle().size(); }

const Vocabulary& YaskService::vocab() const {
  return *CurrentDeployment().vocab;
}

const SpatialObject& YaskService::ObjectAt(ObjectId global_id) const {
  return Engine().oracle().Object(global_id);
}

uint64_t YaskService::RemoteEpoch() const {
  const RemoteCorpus* remote = ActiveRemote();
  return remote != nullptr ? remote->error_epoch() : 0;
}

std::optional<HttpResponse> YaskService::RemoteFailure(uint64_t before) const {
  const RemoteCorpus* remote = ActiveRemote();
  if (remote == nullptr || remote->error_epoch() == before) {
    return std::nullopt;
  }
  // The epoch is corpus-global, so a concurrent request's failure can fail
  // this one too. That conservatism is deliberate: every data-path request
  // fans out to every shard anyway (a flapping shard legitimately fails
  // them all), a false 503 is safely retryable, and the alternative —
  // threading a per-request error slot through every oracle callback — buys
  // little for the plumbing it costs.
  return HttpResponse::Error(
      503, "remote shard failure: " + remote->last_error().message());
}

// --- Query cache (LRU) -------------------------------------------------------

uint64_t YaskService::CacheQuery(const Query& query) {
  uint64_t id = 0;
  uint64_t evicted = 0;
  bool did_evict = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    id = next_query_id_++;
    lru_.push_front(id);
    query_cache_[id] = CacheEntry{query, lru_.begin()};
    if (options_.max_cached_queries > 0 &&
        query_cache_.size() > options_.max_cached_queries) {
      evicted = lru_.back();
      lru_.pop_back();
      query_cache_.erase(evicted);
      did_evict = true;
    }
  }
  if (did_evict && result_cache_ != nullptr) {
    // The evicted id now answers 404, so any cached response rendered for
    // it (its /query entry, its /whynot entries) must go with it.
    result_cache_->InvalidateQuery(evicted);
  }
  return id;
}

std::optional<Query> YaskService::LookupCachedQuery(uint64_t id) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = query_cache_.find(id);
  if (it == query_cache_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.query;
}

// --- Handlers ----------------------------------------------------------------

JsonValue YaskService::ResultToJson(const TopKResult& result) const {
  if (const RemoteCorpus* remote = ActiveRemote(); remote != nullptr) {
    // One batched fetch per owning shard instead of a round-trip per row.
    std::vector<ObjectId> ids;
    ids.reserve(result.size());
    for (const ScoredObject& so : result) ids.push_back(so.id);
    remote->Prefetch(ids);
  }
  JsonValue arr = JsonValue::MakeArray();
  for (const ScoredObject& so : result) {
    const SpatialObject& o = ObjectAt(so.id);
    JsonValue row = JsonValue::MakeObject();
    row.Set("id", JsonValue(static_cast<size_t>(so.id)));
    row.Set("name", JsonValue(o.name));
    row.Set("x", JsonValue(o.loc.x));
    row.Set("y", JsonValue(o.loc.y));
    row.Set("score", JsonValue(so.score));
    row.Set("keywords", JsonValue(o.doc.ToString(vocab())));
    arr.Append(std::move(row));
  }
  return arr;
}

HttpResponse YaskService::HandleQuery(const HttpRequest& req) {
  const uint64_t epoch = RemoteEpoch();
  auto parsed = JsonValue::Parse(req.body);
  if (!parsed.ok()) return HttpResponse::Error(400, parsed.status().message());
  const JsonValue& in = parsed.value();
  if (!in.Get("x").is_number() || !in.Get("y").is_number() ||
      !in.Get("keywords").is_string()) {
    return HttpResponse::Error(400, "expected x, y, keywords[, k]");
  }

  Query q;
  q.loc = Point{in.Get("x").as_number(), in.Get("y").as_number()};
  q.doc = LookupKeywords(in.Get("keywords").as_string(), vocab());
  q.k = 10;
  if (in.Has("k") && (!in.Get("k").is_number() ||
                      !ToUint32(in.Get("k").as_number(), &q.k))) {
    return HttpResponse::Error(400, "k must be a non-negative integer");
  }
  if (q.k > kMaxK) {
    return HttpResponse::Error(
        400, "k must be at most " + std::to_string(kMaxK));
  }
  q.w = options_.system_weights;  // §3.2: w is a server-side parameter.
  if (Status s = q.Validate(); !s.ok()) {
    return HttpResponse::Error(400, s.message());
  }

  if (result_cache_ == nullptr) {
    uint64_t ignored = 0;
    return ComputeQuery(q, epoch, &ignored);
  }
  return CachedCompute(
      QueryCacheKey(LayoutGeneration(), epoch, q), epoch,
      [&](uint64_t* id) { return ComputeQuery(q, epoch, id); });
}

HttpResponse YaskService::ComputeQuery(const Query& q, uint64_t epoch,
                                       uint64_t* query_id_out) {
  Timer timer;
  TopKResult result;
  {
    ScopedSpan span("query/topk");
    TopKStats stats;
    result = Engine().TopK(q, span.active() ? &stats : nullptr);
    if (span.active()) {
      span.set_detail("k=" + std::to_string(q.k) +
                      " nodes_popped=" + std::to_string(stats.nodes_popped) +
                      " objects_scored=" +
                      std::to_string(stats.objects_scored));
    }
  }
  const double millis = timer.ElapsedMillis();

  JsonValue out = JsonValue::MakeObject();
  out.Set("k", JsonValue(static_cast<size_t>(q.k)));
  out.Set("ws", JsonValue(q.w.ws));
  out.Set("wt", JsonValue(q.w.wt));
  out.Set("keywords", JsonValue(q.doc.ToString(vocab())));
  out.Set("results", ResultToJson(result));
  out.Set("response_millis", JsonValue(millis));
  // After ResultToJson: the remote object fetches that render the rows are
  // part of the request too, and a failure there must 503, not emit rows
  // with empty names.
  if (auto failure = RemoteFailure(epoch); failure.has_value()) {
    return *failure;
  }

  const uint64_t id = CacheQuery(q);
  *query_id_out = id;
  log_.Append("topk", q.ToString(vocab()), millis, -1.0, CurrentTraceId());
  out.Set("query_id", JsonValue(static_cast<size_t>(id)));
  return HttpResponse::Json(out.Dump());
}

HttpResponse YaskService::CachedCompute(
    const std::string& key, uint64_t epoch,
    const std::function<HttpResponse(uint64_t*)>& compute) {
  uint64_t assoc_id = 0;
  if (result_cache_ == nullptr) return compute(&assoc_id);
  if (auto hit = result_cache_->Get(key); hit.has_value()) {
    cache_hits_->Add();
    return *hit;
  }
  cache_misses_->Add();
  SingleFlight::Ticket ticket = single_flight_.Join(key);
  if (!ticket.leader) {
    coalesced_->Add();
    if (auto shared = single_flight_.Wait(ticket); shared.has_value()) {
      return *shared;
    }
    // The leader failed (non-200); its outcome must not fan out to the
    // whole herd. Each follower computes independently.
    coalesce_leader_failures_->Add();
    return compute(&assoc_id);
  }
  HttpResponse resp = compute(&assoc_id);
  // Only a success computed under a still-current error epoch is reusable:
  // the epoch moving mid-compute means a shard call failed over, and the
  // next identical request must run its own fan-out.
  if (resp.status == 200 && RemoteEpoch() == epoch) {
    // The Put must be atomic with a query-cache membership re-check, under
    // the same lock the forget/eviction paths erase under. Otherwise a
    // POST /forget (or an LRU eviction) landing between this compute and
    // the Put would InvalidateQuery() first and then watch a 200 naming the
    // now-404 id get inserted afterwards. Both erase paths release cache_mu_
    // BEFORE calling InvalidateQuery, so if the id is still present here,
    // that invalidation is guaranteed to run after this Put and drop it.
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (query_cache_.count(assoc_id) != 0) {
      result_cache_->Put(key, resp, assoc_id);
    }
  }
  single_flight_.Finish(key, ticket, resp, resp.status == 200);
  return resp;
}

namespace {

JsonValue PenaltyToJson(const PenaltyBreakdown& p) {
  JsonValue v = JsonValue::MakeObject();
  v.Set("value", JsonValue(p.value));
  v.Set("k_term", JsonValue(p.k_term));
  v.Set("mod_term", JsonValue(p.mod_term));
  v.Set("delta_k", JsonValue(p.delta_k));
  v.Set("delta_w", JsonValue(p.delta_w));
  v.Set("delta_doc", JsonValue(p.delta_doc));
  return v;
}

}  // namespace

HttpResponse YaskService::HandleWhyNot(const HttpRequest& req) {
  const uint64_t epoch = RemoteEpoch();
  auto parsed = JsonValue::Parse(req.body);
  if (!parsed.ok()) return HttpResponse::Error(400, parsed.status().message());
  const JsonValue& in = parsed.value();
  if (!in.Get("query_id").is_number() || !in.Get("missing").is_array()) {
    return HttpResponse::Error(400, "expected query_id, missing[, model]");
  }
  if (in.Get("missing").array_items().size() > kMaxMissing) {
    return HttpResponse::Error(
        400, "missing lists at most " + std::to_string(kMaxMissing) +
                 " objects");
  }

  uint64_t query_id = 0;
  if (!ToUint64(in.Get("query_id").as_number(), &query_id)) {
    return HttpResponse::Error(400, "query_id out of range");
  }
  std::optional<Query> cached = LookupCachedQuery(query_id);
  if (!cached.has_value()) {
    return HttpResponse::Error(404, "unknown or expired query_id");
  }
  const Query& q = *cached;

  std::vector<ObjectId> missing;
  for (const JsonValue& v : in.Get("missing").array_items()) {
    if (v.is_number()) {
      uint32_t id = 0;
      if (!ToUint32(v.as_number(), &id)) {
        return HttpResponse::Error(
            400, "missing object id must be a non-negative integer");
      }
      missing.push_back(id);
    } else if (v.is_string()) {
      const ObjectId id = CurrentDeployment().find_by_name(v.as_string());
      if (id == kInvalidObject) {
        return HttpResponse::Error(404, "no object named " + v.as_string());
      }
      missing.push_back(id);
    } else {
      return HttpResponse::Error(
          400, "missing entries must be object ids or names");
    }
  }

  // Optional fields take their defaults only when absent: a field present
  // with the wrong type is a client error, not a request for the default.
  if (in.Has("lambda") && !in.Get("lambda").is_number()) {
    return HttpResponse::Error(400, "lambda must be a number");
  }
  if (in.Has("model") && !in.Get("model").is_string()) {
    return HttpResponse::Error(
        400, "model must be preference|keyword|both|combined");
  }
  const double lambda = in.Has("lambda") ? in.Get("lambda").as_number()
                                         : options_.default_lambda;
  const std::string model =
      in.Has("model") ? in.Get("model").as_string() : "both";

  // /whynot is idempotent for a fixed (query_id, missing, model, lambda):
  // query ids are never reused, so the cached-query lookup above pins the
  // exact same initial query for every repeat.
  if (result_cache_ == nullptr) {
    return ComputeWhyNot(q, missing, model, lambda, epoch);
  }
  return CachedCompute(
      WhyNotCacheKey(LayoutGeneration(), epoch, query_id, missing, model,
                     lambda),
      epoch,
      [&](uint64_t* id) {
        *id = query_id;
        return ComputeWhyNot(q, missing, model, lambda, epoch);
      });
}

HttpResponse YaskService::ComputeWhyNot(const Query& q,
                                        const std::vector<ObjectId>& missing,
                                        const std::string& model,
                                        double lambda, uint64_t epoch) {
  WhyNotOptions options;
  options.lambda = lambda;

  if (model == "combined") {
    // §3.2: apply the two refinement functions simultaneously.
    Timer timer;
    auto combined = Engine().CombineRefinements(q, missing, options);
    const double millis = timer.ElapsedMillis();
    if (!combined.ok()) {
      return HttpResponse::Error(400, combined.status().ToString());
    }
    JsonValue out = JsonValue::MakeObject();
    out.Set("ws", JsonValue(combined->refined.w.ws));
    out.Set("wt", JsonValue(combined->refined.w.wt));
    out.Set("keywords", JsonValue(combined->refined.doc.ToString(vocab())));
    out.Set("k", JsonValue(static_cast<size_t>(combined->refined.k)));
    out.Set("preference_penalty", PenaltyToJson(combined->preference_penalty));
    out.Set("keyword_penalty", PenaltyToJson(combined->keyword_penalty));
    out.Set("total_penalty", JsonValue(combined->total_penalty));
    out.Set("preference_first", JsonValue(combined->preference_first));
    out.Set("original_rank", JsonValue(combined->original_rank));
    out.Set("refined_rank", JsonValue(combined->refined_rank));
    out.Set("refined_results", ResultToJson(combined->refined_result));
    out.Set("response_millis", JsonValue(millis));
    if (auto failure = RemoteFailure(epoch); failure.has_value()) {
      return *failure;
    }
    log_.Append("whynot-combined", q.ToString(vocab()), millis,
                combined->total_penalty, CurrentTraceId());
    return HttpResponse::Json(out.Dump());
  }

  options.run_preference_adjustment = model == "both" || model == "preference";
  options.run_keyword_adaption = model == "both" || model == "keyword";
  if (!options.run_preference_adjustment && !options.run_keyword_adaption) {
    return HttpResponse::Error(
        400, "model must be preference|keyword|both|combined");
  }

  Timer timer;
  auto answer = Engine().Answer(q, missing, options);
  const double millis = timer.ElapsedMillis();
  if (!answer.ok()) {
    // A stage that failed because a shard did is the shard's failure.
    if (auto failure = RemoteFailure(epoch); failure.has_value()) {
      return *failure;
    }
    return HttpResponse::Error(400, answer.status().ToString());
  }
  const WhyNotAnswer& a = answer.value();

  double logged_penalty = -1.0;
  JsonValue out = JsonValue::MakeObject();
  JsonValue expl = JsonValue::MakeArray();
  for (const MissingObjectExplanation& e : a.explanations) {
    JsonValue v = JsonValue::MakeObject();
    v.Set("id", JsonValue(static_cast<size_t>(e.id)));
    v.Set("name", JsonValue(ObjectAt(e.id).name));
    v.Set("rank", JsonValue(e.rank));
    v.Set("score", JsonValue(e.score));
    v.Set("sdist", JsonValue(e.sdist));
    v.Set("tsim", JsonValue(e.tsim));
    v.Set("reason", JsonValue(MissingReasonToString(e.reason)));
    v.Set("recommendation",
          JsonValue(RefinementRecommendationToString(e.recommendation)));
    v.Set("text", JsonValue(e.text));
    expl.Append(std::move(v));
  }
  out.Set("explanations", std::move(expl));

  if (a.preference.has_value()) {
    const RefinedPreferenceQuery& r = *a.preference;
    JsonValue v = JsonValue::MakeObject();
    v.Set("ws", JsonValue(r.refined.w.ws));
    v.Set("wt", JsonValue(r.refined.w.wt));
    v.Set("k", JsonValue(static_cast<size_t>(r.refined.k)));
    v.Set("penalty", PenaltyToJson(r.penalty));
    v.Set("original_rank", JsonValue(r.original_rank));
    v.Set("refined_rank", JsonValue(r.refined_rank));
    v.Set("already_in_result", JsonValue(r.already_in_result));
    out.Set("preference", std::move(v));
    logged_penalty = r.penalty.value;
  }
  if (a.keyword.has_value()) {
    const RefinedKeywordQuery& r = *a.keyword;
    JsonValue v = JsonValue::MakeObject();
    v.Set("keywords", JsonValue(r.refined.doc.ToString(vocab())));
    v.Set("k", JsonValue(static_cast<size_t>(r.refined.k)));
    v.Set("penalty", PenaltyToJson(r.penalty));
    v.Set("original_rank", JsonValue(r.original_rank));
    v.Set("refined_rank", JsonValue(r.refined_rank));
    v.Set("already_in_result", JsonValue(r.already_in_result));
    v.Set("truncated", JsonValue(r.stats.truncated));
    out.Set("keyword", std::move(v));
    if (a.recommended == RefinementModel::kKeyword) {
      logged_penalty = r.penalty.value;
    }
  }

  switch (a.recommended) {
    case RefinementModel::kPreference:
      out.Set("recommended", JsonValue("preference"));
      break;
    case RefinementModel::kKeyword:
      out.Set("recommended", JsonValue("keyword"));
      break;
    case RefinementModel::kNone:
      out.Set("recommended", JsonValue("none"));
      break;
  }
  out.Set("refined_results", ResultToJson(a.refined_result));
  out.Set("response_millis", JsonValue(millis));
  if (auto failure = RemoteFailure(epoch); failure.has_value()) {
    return *failure;
  }

  log_.Append("whynot",
              q.ToString(vocab()) + " missing=" +
                  std::to_string(missing.size()),
              millis, logged_penalty, CurrentTraceId());
  return HttpResponse::Json(out.Dump());
}

HttpResponse YaskService::HandleObjects(const HttpRequest& req) {
  const uint64_t epoch = RemoteEpoch();
  size_t limit = 100;
  auto it = req.query_params.find("limit");
  if (it != req.query_params.end()) {
    uint64_t v = 0;
    if (!ParseUint64(it->second, &v)) {
      return HttpResponse::Error(400,
                                 "limit must be a non-negative integer");
    }
    limit = static_cast<size_t>(v);
  }
  JsonValue arr = JsonValue::MakeArray();
  const size_t n = std::min(limit, ObjectCount());
  if (const RemoteCorpus* remote = ActiveRemote(); remote != nullptr) {
    std::vector<ObjectId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<ObjectId>(i);
    remote->Prefetch(ids);
  }
  for (size_t i = 0; i < n; ++i) {
    const SpatialObject& o = ObjectAt(static_cast<ObjectId>(i));
    JsonValue row = JsonValue::MakeObject();
    row.Set("id", JsonValue(i));
    row.Set("name", JsonValue(o.name));
    row.Set("x", JsonValue(o.loc.x));
    row.Set("y", JsonValue(o.loc.y));
    row.Set("keywords", JsonValue(o.doc.ToString(vocab())));
    arr.Append(std::move(row));
  }
  if (auto failure = RemoteFailure(epoch); failure.has_value()) {
    return *failure;
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("total", JsonValue(ObjectCount()));
  out.Set("objects", std::move(arr));
  return HttpResponse::Json(out.Dump());
}

HttpResponse YaskService::HandleLog(const HttpRequest&) {
  JsonValue arr = JsonValue::MakeArray();
  for (const QueryLogEntry& e : log_.Snapshot()) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("id", JsonValue(static_cast<size_t>(e.id)));
    row.Set("kind", JsonValue(e.kind));
    row.Set("description", JsonValue(e.description));
    row.Set("response_millis", JsonValue(e.response_millis));
    if (e.penalty >= 0.0) row.Set("penalty", JsonValue(e.penalty));
    if (!e.trace_id.empty()) row.Set("trace_id", JsonValue(e.trace_id));
    arr.Append(std::move(row));
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("entries", std::move(arr));
  return HttpResponse::Json(out.Dump());
}

HttpResponse YaskService::HandleForget(const HttpRequest& req) {
  auto parsed = JsonValue::Parse(req.body);
  if (!parsed.ok()) return HttpResponse::Error(400, parsed.status().message());
  if (!parsed.value().Get("query_id").is_number()) {
    return HttpResponse::Error(400, "expected query_id");
  }
  uint64_t id = 0;
  if (!ToUint64(parsed.value().Get("query_id").as_number(), &id)) {
    return HttpResponse::Error(400, "query_id out of range");
  }
  bool erased = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = query_cache_.find(id);
    if (it != query_cache_.end()) {
      lru_.erase(it->second.lru_pos);
      query_cache_.erase(it);
      erased = true;
    }
  }
  if (result_cache_ != nullptr) {
    // Forgetting the query invalidates every response rendered for it: the
    // /query response that minted the id (a later cache hit would hand out
    // an id that now answers 404) and every /whynot answer referencing it.
    result_cache_->InvalidateQuery(id);
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("forgotten", JsonValue(erased));
  return HttpResponse::Json(out.Dump());
}

HttpResponse YaskService::HandleHealth(const HttpRequest&) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("status", JsonValue("ok"));
  out.Set("objects", JsonValue(ObjectCount()));
  out.Set("vocabulary", JsonValue(vocab().size()));
  const Deployment& deployment = CurrentDeployment();
  if (deployment.shards > 0) out.Set("shards", JsonValue(deployment.shards));
  if (const RemoteCorpus* remote = deployment.remote; remote != nullptr) {
    JsonValue shards = JsonValue::MakeArray();
    for (size_t s = 0; s < remote->num_shards(); ++s) {
      const ReplicaSet& set = remote->replicas(s);
      JsonValue row = JsonValue::MakeObject();
      row.Set("endpoint", JsonValue(set.description()));
      row.Set("objects", JsonValue(static_cast<size_t>(
                             remote->meta(s).object_count)));
      // Per-replica health: where the traffic goes, which replicas are being
      // routed around, and how many kills the set has absorbed.
      JsonValue reps = JsonValue::MakeArray();
      for (size_t r = 0; r < set.num_replicas(); ++r) {
        JsonValue rep = JsonValue::MakeObject();
        rep.Set("endpoint", JsonValue(set.replica(r).endpoint()));
        rep.Set("requests", JsonValue(static_cast<size_t>(
                                set.replica(r).requests())));
        rep.Set("error_epoch", JsonValue(static_cast<size_t>(
                                   set.replica(r).error_epoch())));
        rep.Set("cooling", JsonValue(set.InCooldown(r)));
        // Lazy-connect state: "pending" = unreached at Connect, identity
        // owed on first contact; "rejected" = answered with the wrong
        // identity, permanently unroutable.
        const char* validation = "validated";
        switch (set.validation(r)) {
          case ReplicaValidation::kValidated: break;
          case ReplicaValidation::kPending: validation = "pending"; break;
          case ReplicaValidation::kRejected: validation = "rejected"; break;
        }
        rep.Set("validation", JsonValue(std::string(validation)));
        reps.Append(std::move(rep));
      }
      row.Set("replicas", std::move(reps));
      row.Set("failovers", JsonValue(static_cast<size_t>(set.failovers())));
      shards.Append(std::move(row));
    }
    out.Set("remote_shards", std::move(shards));
    // The cutover window at a glance: which layout serves new requests and
    // how many old layouts still drain in-flight ones.
    out.Set("layout", LayoutJson());
  }
  out.Set("build", BuildInfoJson());
  // Index availability — what this deployment can answer. Every layout
  // answers /whynot: it needs no index beyond the SetR-tree.
  JsonValue indexes = JsonValue::MakeObject();
  indexes.Set("setr", JsonValue(true));
  out.Set("indexes", std::move(indexes));
  out.Set("whynot", JsonValue(true));
  return HttpResponse::Json(out.Dump());
}

HttpResponse YaskService::HandleSnapshot(const HttpRequest& req) {
  const Deployment& deployment = CurrentDeployment();
  if (!deployment.save) {
    return HttpResponse::Error(
        501, "a coordinator holds no serving state to snapshot; snapshot "
             "the shard servers' files instead");
  }
  std::string path = options_.snapshot_path;
  if (!req.body.empty()) {
    auto parsed = JsonValue::Parse(req.body);
    if (!parsed.ok()) {
      return HttpResponse::Error(400, parsed.status().message());
    }
    if (parsed.value().Get("path").is_string()) {
      if (!options_.allow_snapshot_path_override) {
        return HttpResponse::Error(
            403, "snapshot path override is disabled on this server");
      }
      path = parsed.value().Get("path").as_string();
    }
  }
  if (path.empty()) {
    return HttpResponse::Error(
        400, "no snapshot path configured on this server");
  }

  Timer timer;
  Result<uint64_t> bytes = deployment.save(path);
  const double millis = timer.ElapsedMillis();
  if (!bytes.ok()) {
    return HttpResponse::Error(500, bytes.status().ToString());
  }
  log_.Append("snapshot", path, millis);

  JsonValue out = JsonValue::MakeObject();
  out.Set("path", JsonValue(path));
  out.Set("bytes", JsonValue(static_cast<size_t>(*bytes)));
  out.Set("objects", JsonValue(ObjectCount()));
  if (deployment.shards > 0) out.Set("shards", JsonValue(deployment.shards));
  out.Set("response_millis", JsonValue(millis));
  return HttpResponse::Json(out.Dump());
}

}  // namespace yask
