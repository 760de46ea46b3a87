// Copyright (c) 2026 The YASK reproduction authors.
// ShardService: one Corpus shard served over HTTP — the remote half of the
// WhyNotOracle/top-k fan-out seam. A coordinator (yask_server_demo
// --remote-shards, via RemoteCorpus) connects to N of these and answers the
// full /query + /whynot + /forget contract bit-identically to the in-process
// ShardedCorpus path.
//
// The top-k and why-not endpoints are exactly the per-shard primitives of
// LocalOracleShard (src/whynot/shard_primitives.h), the backend the in-process
// oracles run over their shard views — the same code runs behind both
// transports, and every double crosses the wire as its raw bits
// (src/server/shard_protocol.h), which is what makes the remote answers
// byte-identical. /shard/plane/rank's spec decoder enforces the rank
// bounds (kMaxProbeSpecs, Query::Validate, finite target scores).
//
// Statefulness: a plane session is one why-not question's server-side state
// (this shard's QuestionColumns), which answers the question's ranks
// (/shard/plane/rank), its top-ks (/shard/plane/topk) and its Eqn. (3)
// sweep. Sessions are id-keyed,
// immutable once built (so a session's calls may overlap), explicitly
// closed by the coordinator, and LRU-capped so a leaking or dead client
// cannot pin memory. A rank batch outside a question is a session too: the
// coordinator opens a one-call session per location of the batch, ranks on
// it and closes it. There is no stateless count route.

#ifndef YASK_SERVER_SHARD_SERVICE_H_
#define YASK_SERVER_SHARD_SERVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/corpus/corpus.h"
#include "src/server/http_server.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/whynot/shard_primitives.h"

namespace yask {

struct ShardServiceOptions {
  uint16_t port = 0;  // 0 = ephemeral.
  /// Each keep-alive connection pins a worker while open. A coordinator
  /// multiplexes all its in-flight requests for this replica over a small
  /// fixed set of pipelined connections (RemoteShardOptions::mux_connections,
  /// default 4), so num_workers only needs to cover that set times the number
  /// of coordinators, not peak request concurrency.
  size_t num_workers = 8;
  /// Upper bound on open plane sessions; beyond it the least recently used
  /// is evicted (a later call on it answers 404). Coordinators close sessions
  /// after every question, so the cap only matters for leaking clients.
  size_t max_sessions = 256;
};

/// Serves one shard. The corpus must outlive the service.
class ShardService {
 public:
  /// The shard's identity inside the partitioned corpus, plus the GLOBAL
  /// quantities every score must be computed with.
  struct Info {
    uint32_t shard_index = 0;
    uint32_t shard_count = 1;
    Rect global_bounds = Rect::Empty();  // Whole-dataset MBR.
    double dist_norm = 0.0;              // Its diagonal (Eqn. (1)).
    std::vector<ObjectId> to_global;     // Empty = ids already global.
    std::string router;                  // Informational.
  };

  /// A standalone corpus served as shard 0 of 1 (global ids = local ids).
  static Info StandaloneInfo(const Corpus& corpus);
  /// The identity a per-shard snapshot file carries.
  static Info InfoFromManifest(const ShardManifest& manifest);

  ShardService(const Corpus& corpus, Info info,
               ShardServiceOptions options = {});

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.bound_port(); }

  /// Open sessions (for tests and /health).
  size_t open_sessions() const;

  /// This server's metric registry (GET /metrics renders it).
  const MetricsRegistry& metrics() const { return metrics_; }
  /// This server's trace store (GET /shard/trace?id=… serves it).
  const TraceStore& traces() const { return traces_; }

 private:
  struct PlaneSession;

  /// Wraps a handler with per-endpoint metrics (request counter by response
  /// code + latency histogram) and, when the request carries an
  /// `x-yask-trace` header (shardrpc v2), a per-RPC TraceRecorder whose root
  /// span is parented to the coordinator's propagated span id; the recorded
  /// spans land in traces_ under the propagated trace id.
  HttpServer::Handler Instrumented(const char* endpoint,
                                   HttpServer::Handler inner);

  HttpResponse HandleHealth(const HttpRequest& req);
  HttpResponse HandleMeta(const HttpRequest& req);
  HttpResponse HandleVocab(const HttpRequest& req);
  HttpResponse HandleObjects(const HttpRequest& req);
  HttpResponse HandleFind(const HttpRequest& req);
  HttpResponse HandleTopK(const HttpRequest& req);
  HttpResponse HandlePlaneOpen(const HttpRequest& req);
  HttpResponse HandlePlaneRank(const HttpRequest& req);
  HttpResponse HandlePlaneTopK(const HttpRequest& req);
  HttpResponse HandlePlaneCountBatch(const HttpRequest& req);
  HttpResponse HandlePlaneCrossings(const HttpRequest& req);
  HttpResponse HandlePlaneClose(const HttpRequest& req);
  HttpResponse HandleTrace(const HttpRequest& req);
  HttpResponse HandleMetrics(const HttpRequest& req);

  ObjectId ToGlobal(ObjectId local_id) const {
    return info_.to_global.empty() ? local_id : info_.to_global[local_id];
  }

  /// Stores `session` under a fresh id and returns it. Past max_sessions_,
  /// the session with the smallest last_use is dropped and counted.
  uint64_t AddSession(std::shared_ptr<PlaneSession> session);
  /// The session under `id`, stamped as just used; null when unknown.
  std::shared_ptr<PlaneSession> FindSession(uint64_t id) const;

  const Corpus* corpus_;
  Info info_;
  OracleShardView view_;
  LocalOracleShard shard_;  // The in-process oracles' shard backend.
  MetricsRegistry metrics_;
  TraceStore traces_;
  HttpServer server_;

  mutable std::mutex sessions_mu_;
  uint64_t next_session_id_ = 1;
  mutable uint64_t use_clock_ = 0;  // Recency stamp (under sessions_mu_).
  std::map<uint64_t, std::shared_ptr<PlaneSession>> planes_;
  size_t max_sessions_;
  /// Capacity evictions — an evicted session forces the coordinator into a
  /// 404 reopen, so silent churn here is a latency bug a dashboard must see
  /// (yask_shard_sessions_evicted_total).
  Counter* plane_evictions_ = nullptr;
};

}  // namespace yask

#endif  // YASK_SERVER_SHARD_SERVICE_H_
