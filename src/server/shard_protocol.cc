#include "src/server/shard_protocol.h"

#include <cmath>
#include <string>

namespace yask {
namespace shardrpc {

void PutRect(BufWriter* out, const Rect& r) {
  out->PutF64(r.min_x);
  out->PutF64(r.min_y);
  out->PutF64(r.max_x);
  out->PutF64(r.max_y);
}

Rect GetRect(BufReader* in) {
  Rect r;
  r.min_x = in->GetF64();
  r.min_y = in->GetF64();
  r.max_x = in->GetF64();
  r.max_y = in->GetF64();
  return r;
}

void PutQuery(BufWriter* out, const Query& q) {
  out->PutF64(q.loc.x);
  out->PutF64(q.loc.y);
  out->PutVarU32(q.k);
  out->PutF64(q.w.ws);
  out->PutF64(q.w.wt);
  out->PutDeltaIds(q.doc.ids());
}

Query GetQuery(BufReader* in) {
  Query q;
  q.loc.x = in->GetF64();
  q.loc.y = in->GetF64();
  q.k = in->GetVarU32();
  q.w.ws = in->GetF64();
  q.w.wt = in->GetF64();
  q.doc = KeywordSet::FromSortedUnique(in->GetDeltaIds());
  return q;
}

void PutPlanePoint(BufWriter* out, const PlanePoint& p) {
  out->PutF64(p.x);
  out->PutF64(p.y);
  out->PutU32(p.id);
}

PlanePoint GetPlanePoint(BufReader* in) {
  PlanePoint p;
  p.x = in->GetF64();
  p.y = in->GetF64();
  p.id = in->GetU32();
  return p;
}

void PutScoredRows(BufWriter* out, const std::vector<ScoredObject>& rows) {
  out->PutVarU64(rows.size());
  for (const ScoredObject& row : rows) {
    out->PutU32(row.id);
    out->PutF64(row.score);
  }
}

std::vector<ScoredObject> GetScoredRows(BufReader* in) {
  const uint64_t count = in->GetVarU64();
  std::vector<ScoredObject> rows;
  if (!in->CheckCount(count, sizeof(uint32_t) + sizeof(double))) return rows;
  rows.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ScoredObject row;
    row.id = in->GetU32();
    row.score = in->GetF64();
    rows.push_back(row);
  }
  return rows;
}

Status CheckScoredRows(const std::vector<ScoredObject>& rows, size_t max_rows,
                       size_t id_limit) {
  if (rows.size() > max_rows) {
    return Status::InvalidArgument("shard top-k reply holds " +
                                   std::to_string(rows.size()) +
                                   " rows, more than " +
                                   std::to_string(max_rows));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!std::isfinite(rows[i].score) || rows[i].id >= id_limit) {
      return Status::InvalidArgument(
          "shard top-k reply row with a non-finite score or an unknown id");
    }
    if (i > 0 && !(rows[i - 1] < rows[i])) {
      return Status::InvalidArgument("shard top-k reply rows out of order");
    }
  }
  return Status::OK();
}

void PutShardMeta(BufWriter* out, const ShardMeta& meta) {
  out->PutU32(meta.protocol_version);
  out->PutU32(meta.shard_index);
  out->PutU32(meta.shard_count);
  out->PutU64(meta.object_count);
  out->PutF64(meta.dist_norm);
  PutRect(out, meta.global_bounds);
  out->PutU8(meta.tree_empty ? 1 : 0);
  PutRect(out, meta.root_mbr);
  out->PutString(meta.router);
  out->PutU8(meta.global_ids.empty() ? 1 : 0);  // 1 = identity mapping.
  if (!meta.global_ids.empty()) out->PutDeltaIds(meta.global_ids);
}

Result<ShardMeta> GetShardMeta(BufReader* in) {
  ShardMeta meta;
  meta.protocol_version = in->GetU32();
  // Another version's layout is unknown: return the version alone, so the
  // caller's protocol-range check names the mismatch.
  if (in->ok() && (meta.protocol_version < kMinSupportedProtocolVersion ||
                   meta.protocol_version > kProtocolVersion)) {
    return meta;
  }
  meta.shard_index = in->GetU32();
  meta.shard_count = in->GetU32();
  meta.object_count = in->GetU64();
  meta.dist_norm = in->GetF64();
  meta.global_bounds = GetRect(in);
  meta.tree_empty = in->GetU8() != 0;
  meta.root_mbr = GetRect(in);
  meta.router = in->GetString();
  const bool identity = in->GetU8() != 0;
  if (!identity) meta.global_ids = in->GetDeltaIds();
  if (!in->ok()) return in->status();
  if (!identity && meta.global_ids.size() != meta.object_count) {
    return Status::InvalidArgument(
        "shard meta id map does not match its object count");
  }
  return meta;
}

void PutObject(BufWriter* out, ObjectId global_id, const SpatialObject& o) {
  out->PutU32(global_id);
  out->PutF64(o.loc.x);
  out->PutF64(o.loc.y);
  out->PutDeltaIds(o.doc.ids());
  out->PutString(o.name);
}

SpatialObject GetObject(BufReader* in) {
  SpatialObject o;
  o.id = in->GetU32();
  o.loc.x = in->GetF64();
  o.loc.y = in->GetF64();
  o.doc = KeywordSet::FromSortedUnique(in->GetDeltaIds());
  o.name = in->GetString();
  return o;
}

}  // namespace shardrpc
}  // namespace yask
