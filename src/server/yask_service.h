// Copyright (c) 2026 The YASK reproduction authors.
// The YASK web service (§3.1-§3.3): binds the query processor (top-k engine +
// why-not engine) to HTTP endpoints, caches users' initial queries so that
// follow-up why-not questions can reference them ("The server caches users'
// initial spatial keyword queries until users give up asking follow-up
// 'why-not' questions"), and keeps the query log of Panel 5.
//
// Serving state comes from the corpus layer (src/corpus/): one Corpus (a
// single full replica), a ShardedCorpus (the in-process scale-out layout),
// or a RemoteCorpus (the coordinator role: shards live in yask_shard_server
// processes and every top-k / why-not fan-out goes over the wire through the
// same oracle seam — see docs/architecture.md, "Remote deployment"). Each
// constructor fills one Deployment — the WhyNotEngine over its layout plus
// the few layout facts the handlers read — and every handler serves through
// it, so the layout choice is made once, at construction. The full HTTP
// contract is served in all modes and answers are bit-identical across
// them; in remote mode each shard may be a replica set, a replica failure
// mid-request fails over transparently (sessions are re-established and
// replayed on a live sibling), and only a shard with NO live replica
// surfaces as 503 (the corpus error epoch is sampled around each request).
//
// Per §3.2, the client never supplies the weight vector: "the system ...
// leaves the weighting vector w as a system parameter on the server. In the
// default setting, the spatial distance and textual similarity are weighed
// equally, i.e., w = <0.5, 0.5>."
//
// Endpoints (all JSON):
//   POST /query    {"x":..,"y":..,"keywords":"coffee wifi","k":3}
//            ->    {"query_id":..,"results":[{"id","name","score",...}],..}
//   POST /whynot   {"query_id":..,"missing":[ids],"model":"preference"|
//                   "keyword"|"both"|"combined","lambda":0.5}
//            ->    explanations + refined queries + refined results
//                  ("combined" applies both models in sequence, §3.2)
//   GET  /objects?limit=N      -> dataset sample (the demo's grey markers)
//   GET  /log                  -> query log snapshot (incl. trace_id)
//   GET  /metrics              -> Prometheus text exposition (this service's
//                                 registry + the remote corpus's in
//                                 coordinator mode); docs/observability.md
//   GET  /trace/<id>           -> one finished request trace as a JSON span
//                                 tree; in coordinator mode shard-side spans
//                                 are fetched and stitched in by trace id
//   POST /forget   {"query_id":..}   -> drops a cached initial query
//   GET  /health               -> {"status":"ok","objects":N[,"shards":S]}
//   POST /snapshot [{"path":..}]  -> admin: serialize the warm state to disk
//                  (one file for a Corpus, one file per shard for a
//                  ShardedCorpus; 501 on a coordinator, which holds no
//                  serving state). Writes to YaskServiceOptions::
//                  snapshot_path; the body's "path" override is honoured
//                  only when allow_snapshot_path_override is set (403
//                  otherwise).
//   GET  /admin/layout         -> the live remote layout: generation, spec,
//                                 shard count, draining deployments
//   POST /admin/layout {"remote_shards":"a|b,c|d"} -> zero-downtime cutover
//                  to a different fleet of the SAME dataset (409 on a
//                  dataset mismatch, 502 when the fleet is unreachable);
//                  in-flight requests drain on the old layout
//   POST /admin/replicas {"shard":N,"add"|"remove":"host:port"} -> widen or
//                  shrink one shard's replica set at runtime via the same
//                  validated cutover path
//                  (the admin plane answers 501 outside coordinator mode
//                  and 403 unless enable_fleet_admin — docs/operations.md)

#ifndef YASK_SERVER_YASK_SERVICE_H_
#define YASK_SERVER_YASK_SERVICE_H_

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/query_log.h"
#include "src/server/result_cache.h"
#include "src/whynot/why_not_engine.h"

namespace yask {

/// Server-side system configuration (§3.2).
struct YaskServiceOptions {
  /// The system weight parameter (clients cannot set it).
  Weights system_weights;  // Defaults to <0.5, 0.5>.
  /// Default λ when a /whynot request does not specify one.
  double default_lambda = 0.5;
  uint16_t port = 0;  // 0 = ephemeral.
  size_t num_workers = 4;
  /// Upper bound on cached initial queries. Clients that never POST /forget
  /// used to grow the cache without limit; beyond this many entries the
  /// least-recently-used query is evicted (a later /whynot for it answers
  /// 404, exactly as if the client had forgotten it). 0 disables the bound.
  size_t max_cached_queries = 4096;
  /// Default target of the POST /snapshot admin endpoint. For a sharded
  /// service this is the per-shard file prefix (see ShardedCorpus::Save).
  std::string snapshot_path;
  /// Whether POST /snapshot may override the target via {"path": ...} in
  /// the request body. Off by default: the server has no authentication, so
  /// a client-chosen path would let any local client overwrite any file the
  /// server process can write. Enable only for trusted/admin deployments.
  bool allow_snapshot_path_override = false;
  /// Traces slower than this are PINNED in the trace store (survive ring
  /// eviction) — the slow-query debugging knob (docs/observability.md).
  double slow_trace_threshold_ms = 250.0;
  /// Coordinator result cache + single-flight coalescing for /query and
  /// idempotent /whynot. OFF by default — with the cache on, a repeated
  /// identical /query is served the cached bytes INCLUDING the original
  /// query_id instead of minting a fresh id and log entry, which is the
  /// right trade for a read-heavy production front end but changes the
  /// fresh-id-per-request contract the scripted demo/CI flows lean on.
  /// Cache keys fold in the corpus error epoch, so every replica failure
  /// implicitly invalidates all prior entries; POST /forget additionally
  /// drops exactly the entries rendered for the forgotten query_id.
  bool enable_result_cache = false;
  size_t result_cache_max_entries = 1024;
  size_t result_cache_max_bytes = 64u << 20;
  /// Fleet admin endpoints (coordinator mode only): POST /admin/layout swaps
  /// the whole shard layout at runtime (zero-downtime cutover — in-flight
  /// requests drain on the old layout, new requests route on the new one)
  /// and POST /admin/replicas adds/removes one replica of one shard. Off by
  /// default for the same reason as allow_snapshot_path_override: the server
  /// has no authentication, and these endpoints redirect all traffic.
  bool enable_fleet_admin = false;
  /// Dial/retry policy for fleets connected via the admin endpoints (the
  /// boot fleet's policy is whatever the caller passed to
  /// RemoteCorpus::Connect).
  RemoteShardOptions admin_connect_options;
};

/// The YASK service: owns the HTTP server and the query cache; borrows the
/// corpus (which must outlive it).
class YaskService {
 public:
  /// Full-featured replica over one corpus.
  explicit YaskService(const Corpus& corpus, YaskServiceOptions options = {});

  /// Scale-out mode: top-k and why-not both fan out over the shards.
  explicit YaskService(const ShardedCorpus& corpus,
                       YaskServiceOptions options = {});

  /// Coordinator mode: the shards are yask_shard_server processes behind a
  /// RemoteCorpus.
  explicit YaskService(const RemoteCorpus& corpus,
                       YaskServiceOptions options = {});

  /// Starts serving; returns the bound port via port().
  Status Start();
  void Stop();

  uint16_t port() const { return server_.bound_port(); }
  const QueryLog& log() const { return log_; }

  /// The coordinator's own registry (GET /metrics also appends the remote
  /// corpus's registry in coordinator mode).
  const MetricsRegistry& metrics() const { return metrics_; }
  /// Finished request traces (GET /trace/<id> serves these, stitched with
  /// shard-side spans in coordinator mode).
  const TraceStore& traces() const { return traces_; }

  /// Number of cached initial queries (for tests).
  size_t cached_queries() const;

 private:
  explicit YaskService(YaskServiceOptions options);

  /// Wraps a handler with per-endpoint metrics (request counter by response
  /// code + latency histogram). When `traced` is set the wrapper also mints
  /// a trace id, installs a TraceRecorder for the request thread, roots the
  /// span tree at "<METHOD> <endpoint>", folds every recorded span into the
  /// yask_stage_ms{stage=…} histograms and files the trace in traces_.
  HttpServer::Handler Instrumented(const char* endpoint, bool traced,
                                   HttpServer::Handler inner);

  HttpResponse HandleQuery(const HttpRequest& req);
  HttpResponse HandleWhyNot(const HttpRequest& req);
  /// The uncached /query body: runs the fan-out, renders the rows, mints the
  /// query_id (returned via `query_id_out` for cache association).
  HttpResponse ComputeQuery(const Query& q, uint64_t epoch,
                            uint64_t* query_id_out);
  /// The uncached /whynot body for an already-resolved request.
  HttpResponse ComputeWhyNot(const Query& q,
                             const std::vector<ObjectId>& missing,
                             const std::string& model, double lambda,
                             uint64_t epoch);
  /// Result-cache + single-flight wrapper. With the cache off it just runs
  /// `compute`. On a miss one leader computes; followers share a 200 leader
  /// response byte-for-byte and recompute independently when the leader
  /// fails. Only 200 responses computed under a still-current error epoch
  /// are cached. `compute` receives a slot for the query_id its response
  /// was rendered for (the /forget invalidation hook); the insert re-checks
  /// that id's query-cache membership under cache_mu_ so a /forget or LRU
  /// eviction racing the compute can never resurrect a response for an id
  /// that now answers 404.
  HttpResponse CachedCompute(
      const std::string& key, uint64_t epoch,
      const std::function<HttpResponse(uint64_t*)>& compute);
  HttpResponse HandleObjects(const HttpRequest& req);
  HttpResponse HandleLog(const HttpRequest& req);
  HttpResponse HandleForget(const HttpRequest& req);
  HttpResponse HandleHealth(const HttpRequest& req);
  HttpResponse HandleSnapshot(const HttpRequest& req);
  HttpResponse HandleMetrics(const HttpRequest& req);
  HttpResponse HandleTrace(const HttpRequest& req);
  HttpResponse HandleAdminLayout(const HttpRequest& req);
  HttpResponse HandleAdminReplicas(const HttpRequest& req);

  // --- Serving state accessors: each reads the pinned deployment. ---
  size_t ObjectCount() const;
  const Vocabulary& vocab() const;
  /// Object by global id (in sharded mode `.id` of the result is shard-
  /// local; always use `global_id` for identity).
  const SpatialObject& ObjectAt(ObjectId global_id) const;

  JsonValue ResultToJson(const TopKResult& result) const;

  /// Remote mode: the corpus error-epoch snapshot (0 in local modes).
  uint64_t RemoteEpoch() const;
  /// Remote mode: an engaged 503 when the epoch moved past `before` — a
  /// shard failed mid-request, so the computed payload cannot be trusted.
  std::optional<HttpResponse> RemoteFailure(uint64_t before) const;

  // --- Deployments: one serving layout each. ---

  /// One serving layout: the engine over it plus the layout facts the
  /// handlers read. Every constructor fills one; requests run on the active
  /// deployment. In coordinator mode POST /admin/layout connects a new fleet
  /// and swaps a new deployment in, while requests already in flight keep
  /// the deployment they started on (pinned via shared_ptr) until they
  /// finish — the cutover window. The boot deployment borrows the
  /// constructor's corpus; admin-connected deployments own theirs.
  struct Deployment {
    uint64_t generation = 1;
    /// Coordinator only: "host:port|...,host:port|..." — one group per shard.
    std::string spec;
    // `owned` is declared before `engine`: the engine's oracle borrows the
    // corpus, so reverse destruction order must tear the engine down first.
    std::optional<RemoteCorpus> owned;
    /// The coordinator's corpus (&*owned, or the borrowed boot corpus); null
    /// in-process. Everything remote-only — epochs, Prefetch, replica
    /// health, trace stitching, corpus metrics, /admin — hangs off it.
    const RemoteCorpus* remote = nullptr;
    std::optional<WhyNotEngine> engine;
    const Vocabulary* vocab = nullptr;
    /// 0 for an unsharded Corpus (/health then omits "shards").
    size_t shards = 0;
    std::function<ObjectId(const std::string&)> find_by_name;
    /// Writes the serving state under a path (POST /snapshot); empty on a
    /// coordinator.
    std::function<Result<uint64_t>(const std::string&)> save;
  };

  /// Pins the active deployment to the request thread for the request's
  /// whole lifetime (every handler runs under one): the shared_ptr keeps a
  /// mid-request cutover from destroying the deployment under the handler,
  /// and the thread-local lets every accessor on the call path read the SAME
  /// layout without threading a parameter through the oracle seam.
  class DeploymentPin {
   public:
    explicit DeploymentPin(const YaskService& service);
    ~DeploymentPin();
    DeploymentPin(const DeploymentPin&) = delete;
    DeploymentPin& operator=(const DeploymentPin&) = delete;

   private:
    std::shared_ptr<const Deployment> pinned_;
    const Deployment* previous_;
  };

  /// The deployment this request runs on.
  const Deployment& CurrentDeployment() const;
  /// The pinned remote corpus (null in-process).
  const RemoteCorpus* ActiveRemote() const;
  /// The engine answering this request (the pinned deployment's).
  const WhyNotEngine& Engine() const;
  /// Active layout generation (folds into result-cache keys: a cutover must
  /// retire every response computed on the old layout).
  uint64_t LayoutGeneration() const;
  /// Fills `deployment` as a coordinator deployment over `corpus`.
  static void BindRemote(const RemoteCorpus& corpus, Deployment* deployment);
  /// {generation, spec, draining} of the pinned deployment: the body of
  /// GET /admin/layout (which adds "shards") and /health's "layout".
  JsonValue LayoutJson() const;
  /// Connects `spec` and swaps it in as the active deployment. Shared by
  /// /admin/layout and /admin/replicas.
  HttpResponse SwapLayout(const std::string& spec);
  /// Canonical spec of a connected corpus (per-shard replica groups
  /// '|'-joined, shards ','-joined in shard order).
  static std::string SpecOf(const RemoteCorpus& corpus);
  /// Admin endpoints answer 403 unless enable_fleet_admin, 501 outside
  /// coordinator mode; returns the blocking response or nullopt.
  std::optional<HttpResponse> AdminGate() const;

  /// Caches `query`, evicting the LRU entry beyond max_cached_queries.
  uint64_t CacheQuery(const Query& query);
  /// Looks a cached query up and marks it most-recently used.
  std::optional<Query> LookupCachedQuery(uint64_t id);

  /// The active deployment plus, in coordinator mode, the ones still
  /// draining (kept alive until their last in-flight request drops its pin;
  /// reaped on the next admin call). Guarded by layout_mu_.
  mutable std::mutex layout_mu_;
  std::shared_ptr<const Deployment> deployment_;
  std::vector<std::shared_ptr<const Deployment>> draining_;
  /// The request thread's pinned deployment (set by DeploymentPin). Static:
  /// a nested private type cannot appear in a namespace-scope thread_local.
  static thread_local const Deployment* tls_deployment_;
  YaskServiceOptions options_;
  // Declared before server_: handlers running on server threads touch both,
  // and ~YaskService must stop those threads (server_ destroyed first)
  // before the registry and trace store go away.
  MetricsRegistry metrics_;
  TraceStore traces_;
  HttpServer server_;
  QueryLog log_;

  // LRU query cache: map id -> (query, position in lru_); lru_ holds ids,
  // most recently used at the front.
  mutable std::mutex cache_mu_;
  struct CacheEntry {
    Query query;
    std::list<uint64_t>::iterator lru_pos;
  };
  std::unordered_map<uint64_t, CacheEntry> query_cache_;
  std::list<uint64_t> lru_;
  uint64_t next_query_id_ = 1;

  // Result cache + single-flight (null / unused when disabled). Counter
  // pointers are resolved once in the constructor — the hot path never takes
  // the registry mutex for them.
  std::unique_ptr<ResultCache> result_cache_;
  SingleFlight single_flight_;
  Counter* cache_hits_ = nullptr;
  Counter* cache_misses_ = nullptr;
  Counter* coalesced_ = nullptr;
  Counter* coalesce_leader_failures_ = nullptr;
};

}  // namespace yask

#endif  // YASK_SERVER_YASK_SERVICE_H_
