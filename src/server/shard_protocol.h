// Copyright (c) 2026 The YASK reproduction authors.
// The coordinator <-> shard-server wire protocol: route names and the binary
// codecs shared by ShardService (src/server/shard_service.h) and the remote
// client stack (src/corpus/remote_corpus.h).
//
// Why binary and not the service's JSON: the remote tier's exactness
// contract is BIT-identity with the in-process sharded engines, and every
// score, threshold, plane coordinate and crossing weight that crosses the
// wire must round-trip as the exact same double. The snapshot layer's
// little-endian BufWriter/BufReader already do that (F64 = raw IEEE bits)
// and give bounds-checked, corruption-safe decoding for free — a shard
// server must never crash on a malformed peer request. Bodies travel as
// application/octet-stream over plain HTTP POST, so the transport stays the
// same embedded HttpServer the service already runs.
//
// Endpoints (all on the shard server; full request/response layouts are
// documented at the codec of each message below or inline at the two call
// sites):
//   GET  /health           JSON status + index availability
//   GET  /shard/meta       ShardMeta (identity, bounds, id map, indexes)
//   GET  /shard/vocab      the shared vocabulary (snapshot codec section)
//   POST /shard/objects    [gid...] -> objects (loc, doc, name) by GLOBAL id
//   POST /shard/find       name -> first matching GLOBAL id
//   POST /shard/topk       query + prune_below -> thresholded shard top-k
//   POST /shard/plane/open|rank|topk|count_batch|crossings|close  one
//                          session per why-not question: the explanations'
//                          and Eqn. (4) ranks, the top-k of the query and
//                          of its refinements, and the Eqn. (3) sweep; also
//                          the one-call sessions a rank batch or plane
//                          outside a question opens
//   GET  /shard/trace?id=…  JSON spans recorded under a propagated trace id
//   GET  /metrics           Prometheus text exposition (docs/observability.md)

#ifndef YASK_SERVER_SHARD_PROTOCOL_H_
#define YASK_SERVER_SHARD_PROTOCOL_H_

#include <string>
#include <vector>

#include "src/common/geometry.h"
#include "src/common/status.h"
#include "src/query/query.h"
#include "src/snapshot/snapshot_format.h"
#include "src/storage/object.h"
#include "src/whynot/preference_adjustment.h"

namespace yask {
namespace shardrpc {

/// Bumped on any incompatible message change; the coordinator refuses a
/// shard server speaking a version outside
/// [kMinSupportedProtocolVersion, kProtocolVersion] at Connect() time.
/// v2: request framing carries an optional `x-yask-trace` header
/// ("<trace_id>:<parent_span_hex>") on every RPC, and the shard server
/// grows GET /shard/trace (+ /metrics). A server must TOLERATE the header's
/// absence — untraced requests are served identically.
/// v3: adds POST /shard/plane/count_batch (K weights × A anchors per
/// request — the Eqn. (3) sweep-segment batch). The coordinator's weight
/// sweep speaks only this route, so the coordinator requires v3 shards.
/// v4: POST /shard/probe/rank (one stateless request per shard per rank
/// batch, answered exactly from keyword-mask columns) replaces the probe
/// sessions /shard/probe/{open,refine,close}, and ShardMeta drops its
/// has_kcr byte (the KcR-tree is gone).
/// v5: a plane session is a why-not question. /shard/plane/open carries the
/// keyword universe U and answers the columns' shape; POST /shard/plane/rank
/// answers rank specs from the open session; /shard/count keeps only the
/// scan method.
/// v6: POST /shard/plane/topk answers a top-k from the open session, and
/// the shard top-k routes answer 400 to a k above both kMaxK and the
/// shard's object count.
/// v7: POST /shard/probe/rank is gone (a rank batch outside a question opens
/// one-call sessions), and /shard/count specs no longer carry a method byte.
/// v8: POST /shard/count is gone: a basic session (u8 optimized = 0 at
/// /shard/plane/open) answers /shard/plane/rank by full scan, so basic
/// keyword adaption opens one-call basic sessions.
/// v9: /shard/plane/open drops the u8 optimized byte: every session answers
/// by the columns' binary searches (the paper's scanning baselines run over
/// one store, outside the wire).
inline constexpr uint32_t kProtocolVersion = 9;

/// Oldest shard-server version this coordinator speaks. One version: the
/// coordinator refuses older shards, and also any shard newer than its own
/// kProtocolVersion, so a protocol bump cannot be rolled in replica by
/// replica — the coordinator and its fleet move to the new version together
/// (docs/operations.md, "Protocol upgrades").
inline constexpr uint32_t kMinSupportedProtocolVersion = 9;

inline constexpr char kHealthPath[] = "/health";
inline constexpr char kMetaPath[] = "/shard/meta";
inline constexpr char kVocabPath[] = "/shard/vocab";
inline constexpr char kObjectsPath[] = "/shard/objects";
inline constexpr char kFindPath[] = "/shard/find";
/// Request: query, raw-F64 prune_below. Response: scored rows, u64
/// nodes_popped, u64 objects_scored. A k above both kMaxK and the shard's
/// object count answers 400; the coordinator sends at most the count.
inline constexpr char kTopKPath[] = "/shard/topk";
/// Not served since v8; declared only because servebench/servebench.cc
/// lists it.
inline constexpr char kCountPath[] = "/shard/count";
/// v5+. Request: query (valid), delta-coded ids of the keyword universe U
/// (≤ kMaxKeywordUniverse). Response: u64 session id, varu64 objects, groups
/// and columns (QuestionShape). The session answers ranks of specs at the
/// query's location with a doc ⊆ q.doc ∪ U, and the plane of the query.
inline constexpr char kPlaneOpenPath[] = "/shard/plane/open";
/// v5+. Request: u64 session slot, then the spec list, varu64 N ≤
/// kMaxProbeSpecs, then N × (query, u32 global target id, raw-F64 finite
/// target score); every query must pass Query::Validate, its location equal
/// the session query's (bits) and its doc lie in q.doc ∪ U. Response: varu64
/// N + N u64 tie-aware counts of this shard's objects outranking each
/// target.
inline constexpr char kPlaneRankPath[] = "/shard/plane/rank";
/// v6+. Request: u64 session slot, raw-F64 ws and wt (finite, ≥ 0),
/// delta-coded ids of a doc ⊆ q.doc ∪ U, varu32 k (the kTopKPath bound).
/// Response: the session's min(k, objects) best rows under (q.loc, doc, k,
/// ws, wt) (scored rows), u64 groups opened, u64 rows scored.
inline constexpr char kPlaneTopKPath[] = "/shard/plane/topk";
/// Not served; declared only because servebench/servebench.cc lists it.
inline constexpr char kPlaneCountPath[] = "/shard/plane/count";
/// v3+. Request: u64 session slot, varu64 K + K raw-F64 weights, varu64 A +
/// A plane points, K*A ≤ kMaxCountBatchPairs. Response: varu64 K*A + K*A u64
/// counts (row-major, weight-major: index wi*A + a), u64 nodes_visited.
inline constexpr char kPlaneCountBatchPath[] = "/shard/plane/count_batch";
inline constexpr char kPlaneCrossingsPath[] = "/shard/plane/crossings";
inline constexpr char kPlaneClosePath[] = "/shard/plane/close";
/// Not served since v4; declared only because servebench/servebench.cc,
/// their last reader, lists them (ROADMAP item 2 deletes them once item 1
/// retires that reader).
inline constexpr char kProbeOpenPath[] = "/shard/probe/open";
inline constexpr char kProbeRefinePath[] = "/shard/probe/refine";
inline constexpr char kProbeClosePath[] = "/shard/probe/close";
/// GET, JSON: the shard-side spans of one trace (?id=<trace_id>) — the
/// coordinator stitches these under its own spans at GET /trace/<id>.
inline constexpr char kTracePath[] = "/shard/trace";
/// GET, Prometheus text format (v2, docs/observability.md).
inline constexpr char kMetricsPath[] = "/metrics";

/// Everything the coordinator learns about one shard at connect time.
struct ShardMeta {
  uint32_t protocol_version = kProtocolVersion;
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint64_t object_count = 0;       // This shard's local store size.
  double dist_norm = 0.0;          // GLOBAL SDist normaliser.
  Rect global_bounds = Rect::Empty();
  bool setr_empty = true;
  Rect setr_root_mbr = Rect::Empty();  // Home-shard selection input.
  std::string router;              // Informational placement description.
  /// Local->global id map; empty means ids are already global (a standalone
  /// corpus served as shard 0 of 1).
  std::vector<ObjectId> global_ids;
};

void PutRect(BufWriter* out, const Rect& r);
Rect GetRect(BufReader* in);

void PutQuery(BufWriter* out, const Query& q);
Query GetQuery(BufReader* in);

void PutPlanePoint(BufWriter* out, const PlanePoint& p);
PlanePoint GetPlanePoint(BufReader* in);

/// Result rows (GLOBAL ids + scores), count-prefixed.
void PutScoredRows(BufWriter* out, const std::vector<ScoredObject>& rows);
std::vector<ScoredObject> GetScoredRows(BufReader* in);

/// Checks a shard's top-k reply before a merge reads it: at most `max_rows`
/// rows, each with a finite score and a GLOBAL id below `id_limit`, in
/// strict ScoredObject order.
Status CheckScoredRows(const std::vector<ScoredObject>& rows, size_t max_rows,
                       size_t id_limit);

void PutShardMeta(BufWriter* out, const ShardMeta& meta);
Result<ShardMeta> GetShardMeta(BufReader* in);

/// One object crossing the wire, keyed by GLOBAL id. The decoded
/// SpatialObject carries the global id in `.id` (the coordinator's object
/// cache is global-id keyed; there is no local store to index into).
void PutObject(BufWriter* out, ObjectId global_id, const SpatialObject& o);
SpatialObject GetObject(BufReader* in);

}  // namespace shardrpc
}  // namespace yask

#endif  // YASK_SERVER_SHARD_PROTOCOL_H_
