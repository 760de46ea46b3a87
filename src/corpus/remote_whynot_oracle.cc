#include "src/corpus/remote_whynot_oracle.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <string>

#include "src/server/shard_protocol.h"

namespace yask {

namespace {

/// A shard reply must hold exactly what was read from it.
Status FullyRead(const BufReader& in, const char* path) {
  if (!in.ok()) return in.status();
  if (!in.AtEnd()) {
    return Status::InvalidArgument(std::string("trailing bytes in ") + path +
                                   " response");
  }
  return Status::OK();
}

/// Reads a varu64-prefixed run of u64 counts that must number `expected`.
Status GetCounts(BufReader* in, size_t expected, const char* path,
                 std::vector<size_t>* counts) {
  if (in->GetVarU64() != expected) {
    return Status::InvalidArgument(std::string("bad ") + path + " response");
  }
  for (size_t i = 0; i < expected; ++i) counts->push_back(in->GetU64());
  return Status::OK();
}

// --- Session failover channel ------------------------------------------------

/// One shard's server-side question session — its OracleShardQuestion —
/// with mid-request failover.
/// The session is replica-sticky: it lives on ONE replica of the shard's
/// ReplicaSet. When a session call fails on the wire — or the replica
/// restarted and answers 404 for an id it no longer knows — the channel
/// re-opens the session on a live replica (possibly the restarted one) and
/// re-issues the failed call. Session calls never change the session, and
/// every replica boots from the same snapshot, so the re-opened session is
/// byte-identical to the lost one, and the caller never sees the kill.
///
/// Every session request body leads with an 8-byte session-id slot the
/// channel stamps per attempt. Thread-safe: the preference and keyword
/// stages of one question call it from two threads. Calls run concurrently
/// (the shard serves a session's calls in parallel); only the session id,
/// and the re-open that replaces it, are under the channel's lock.
class ShardSessionChannel final : public OracleShardQuestion {
 public:
  ShardSessionChannel(const RemoteCorpus& corpus, size_t shard)
      : corpus_(&corpus), shard_(shard) {}

  ~ShardSessionChannel() override { Close(); }
  ShardSessionChannel(const ShardSessionChannel&) = delete;
  ShardSessionChannel& operator=(const ShardSessionChannel&) = delete;

  /// First open, trying every replica. An open that had to pass a failed
  /// replica counts as a failover, as a stateless call's does.
  bool Open(std::string open_body, size_t universe) {
    std::lock_guard<std::mutex> lock(mu_);
    open_body_ = std::move(open_body);
    shape_.objects = corpus_->meta(shard_).object_count;
    shape_.universe = universe;
    std::vector<bool> tried(set().num_replicas(), false);
    if (!Reopen(&tried)) return false;
    if (std::find(tried.begin(), tried.end(), true) != tried.end()) {
      set().NoteFailover();
    }
    return true;
  }

  Status last_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_error_;
  }

  QuestionShape shape() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return shape_;
  }

  /// One /shard/plane/rank per spec list of at most kMaxProbeSpecs specs
  /// (the cap a shard enforces). Target scores travel with the specs: a
  /// spec's target need not live on this shard.
  Result<std::vector<size_t>> CountOutscoring(
      const std::vector<ScanTarget>& targets) override {
    const char* path = shardrpc::kPlaneRankPath;
    std::vector<size_t> counts;
    counts.reserve(targets.size());
    size_t first = 0;
    do {
      const size_t last = std::min(targets.size(), first + kMaxProbeSpecs);
      BufWriter req;
      req.PutU64(0);  // Session slot, stamped per attempt.
      req.PutVarU64(last - first);
      for (size_t i = first; i < last; ++i) {
        shardrpc::PutQuery(&req, *targets[i].query);
        req.PutU32(targets[i].target);
        req.PutF64(targets[i].target_score);
      }
      Result<std::string> raw = Call(path, req.data());
      if (!raw.ok()) return raw.status();
      BufReader in(raw->data(), raw->size());
      if (Status s = GetCounts(&in, last - first, path, &counts); !s.ok()) {
        return s;
      }
      if (Status s = FullyRead(in, path); !s.ok()) return s;
      first = last;
    } while (first < targets.size());
    return counts;
  }

  Result<TopKResult> TopK(const Query& query, TopKStats* stats) override {
    // No more rows than the shard's objects: the shard refuses a k above
    // both kMaxK and that count.
    const uint32_t k = static_cast<uint32_t>(std::min<uint64_t>(
        query.k, corpus_->meta(shard_).object_count));
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped per attempt.
    req.PutF64(query.w.ws);
    req.PutF64(query.w.wt);
    req.PutDeltaIds(query.doc.ids());
    req.PutVarU32(k);
    const char* path = shardrpc::kPlaneTopKPath;
    Result<std::string> raw = Call(path, req.data());
    if (!raw.ok()) return raw.status();
    BufReader in(raw->data(), raw->size());
    TopKResult rows = shardrpc::GetScoredRows(&in);
    const uint64_t opened = in.GetU64();
    const uint64_t scored = in.GetU64();
    if (Status s = FullyRead(in, path); !s.ok()) return s;
    if (Status s = shardrpc::CheckScoredRows(rows, k, corpus_->size());
        !s.ok()) {
      return s;
    }
    if (stats != nullptr) {
      stats->nodes_popped += opened;
      stats->objects_scored += scored;
    }
    return rows;
  }

  Status CountAboveBatch(const std::vector<double>& weights,
                         const std::vector<PlanePoint>& anchors,
                         std::vector<size_t>* counts,
                         size_t* nodes_visited) override {
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped per attempt.
    req.PutVarU64(weights.size());
    for (const double w : weights) req.PutF64(w);
    req.PutVarU64(anchors.size());
    for (const PlanePoint& anchor : anchors) {
      shardrpc::PutPlanePoint(&req, anchor);
    }
    const char* path = shardrpc::kPlaneCountBatchPath;
    Result<std::string> raw = Call(path, req.data());
    if (!raw.ok()) return raw.status();
    BufReader in(raw->data(), raw->size());
    const size_t pairs = counts->size();
    counts->clear();
    if (Status s = GetCounts(&in, pairs, path, counts); !s.ok()) return s;
    *nodes_visited = in.GetU64();
    return FullyRead(in, path);
  }

  Status CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                          std::vector<double>* events,
                          size_t* nodes_visited) override {
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped per attempt.
    shardrpc::PutPlanePoint(&req, anchor);
    req.PutF64(wlo);
    req.PutF64(whi);
    const char* path = shardrpc::kPlaneCrossingsPath;
    Result<std::string> raw = Call(path, req.data());
    if (!raw.ok()) return raw.status();
    BufReader in(raw->data(), raw->size());
    const uint64_t count = in.GetVarU64();
    if (!in.CheckCount(count, sizeof(double))) {
      return Status::InvalidArgument(std::string("bad ") + path + " response");
    }
    for (uint64_t i = 0; i < count; ++i) events->push_back(in.GetF64());
    *nodes_visited = in.GetU64();
    return FullyRead(in, path);
  }

 private:
  /// One session call; `body` leads with 8 bytes the channel overwrites with
  /// the session id. Errors only when no replica can serve the session.
  Result<std::string> Call(const char* path, std::string body) {
    std::vector<bool> tried(set().num_replicas(), false);
    // A restarted replica is healthy but sessionless: it answers 404, we
    // re-open (maybe on it) and retry. Bound those loops — a server that
    // keeps losing fresh sessions is broken, not restarting.
    size_t lost_sessions = 0;
    bool failed_over = false;
    for (;;) {
      uint64_t session;
      size_t replica;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (session_ == 0) {
          return Status::Unavailable("shard " + set().description() +
                                     ": no live session");
        }
        session = session_;
        replica = replica_;
      }
      StampSession(&body, session);
      Result<std::string> raw = set().CallOn(replica, "POST", path, body);
      if (raw.ok()) {
        if (failed_over) set().NoteFailover();
        return raw;
      }
      const StatusCode code = raw.status().code();
      std::lock_guard<std::mutex> lock(mu_);
      if (code == StatusCode::kUnavailable) {
        tried[replica] = true;  // This replica failed on the wire.
      } else if (code == StatusCode::kNotFound) {
        // Session gone (replica restart or server-side eviction); the
        // replica itself stays eligible for the re-open.
        if (++lost_sessions > set().num_replicas() + 1) {
          last_error_ = raw.status();
          return raw;
        }
      } else {
        return raw;  // Deterministic semantic error; retries would repeat it.
      }
      failed_over = true;
      // Another call may have re-opened the session already: retry on it.
      if (session_ != session) continue;
      if (!Reopen(&tried)) {
        return Status::Unavailable("shard " + set().description() +
                                   ": no replica could serve the session: " +
                                   last_error_.message());
      }
    }
  }

  /// Best-effort close; an unreachable replica's session falls to the
  /// server-side LRU cap eventually.
  void Close() {
    if (session_ == 0) return;
    BufWriter req;
    req.PutU64(session_);
    (void)set().CallOn(replica_, "POST", shardrpc::kPlaneClosePath,
                       req.data());
    session_ = 0;
  }

  ReplicaSet& set() const { return corpus_->replicas(shard_); }

  static void StampSession(std::string* body, uint64_t session) {
    std::memcpy(body->data(), &session, sizeof(session));
  }

  /// Opens on some not-yet-tried replica. Under mu_.
  bool Reopen(std::vector<bool>* tried) {
    session_ = 0;
    for (;;) {
      const std::optional<size_t> r = set().PickReplica(tried);
      if (!r.has_value()) return false;
      if (OpenOn(*r)) return true;
      (*tried)[*r] = true;
    }
  }

  /// Under mu_.
  bool OpenOn(size_t r) {
    Result<std::string> raw =
        set().CallOn(r, "POST", shardrpc::kPlaneOpenPath, open_body_);
    if (!raw.ok()) {
      last_error_ = raw.status();
      return false;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t id = in.GetU64();
    const uint64_t objects = in.GetVarU64();
    const uint64_t groups = in.GetVarU64();
    const uint64_t columns = in.GetVarU64();
    if (!in.ok() || !in.AtEnd() || id == 0 || objects != shape_.objects) {
      last_error_ = Status::InvalidArgument("bad session-open response");
      return false;
    }
    // A re-open after the first success is what the session-replay counter
    // counts: the lost session was re-established on a live replica.
    if (opened_once_) corpus_->session_replays()->Add();
    opened_once_ = true;
    session_ = id;
    replica_ = r;
    shape_.groups = groups;
    shape_.columns = columns;
    return true;
  }

  const RemoteCorpus* corpus_;
  size_t shard_;
  mutable std::mutex mu_;
  std::string open_body_;
  size_t replica_ = 0;
  uint64_t session_ = 0;
  bool opened_once_ = false;
  QuestionShape shape_;
  Status last_error_ = Status::Unavailable("never opened");
};

/// One remote shard: its ReplicaSet behind the OracleShard interface.
class RemoteOracleShard final : public OracleShard {
 public:
  RemoteOracleShard(const RemoteCorpus& corpus, size_t shard)
      : corpus_(&corpus), shard_(shard) {}

  size_t size() const override { return corpus_->meta(shard_).object_count; }

  /// From the R-tree root MBR that travelled in the shard's meta.
  double RootDistance(const Point& loc) const override {
    const shardrpc::ShardMeta& meta = corpus_->meta(shard_);
    return meta.tree_empty ? std::numeric_limits<double>::infinity()
                           : meta.root_mbr.MinDistance(loc);
  }

  /// One /shard/topk call.
  Result<TopKResult> TopK(const Query& query, double prune_below,
                          TopKStats* stats) const override {
    // The shard holds no more rows than its objects, and refuses a k above
    // both kMaxK and that count.
    Query capped = query;
    capped.k = static_cast<uint32_t>(std::min<uint64_t>(query.k, size()));
    BufWriter req;
    shardrpc::PutQuery(&req, capped);
    req.PutF64(prune_below);
    const char* path = shardrpc::kTopKPath;
    Result<std::string> raw =
        corpus_->replicas(shard_).Call("POST", path, req.data());
    if (!raw.ok()) return raw.status();
    BufReader in(raw->data(), raw->size());
    TopKResult rows = shardrpc::GetScoredRows(&in);
    const uint64_t popped = in.GetU64();
    const uint64_t scored = in.GetU64();
    if (Status s = FullyRead(in, path); !s.ok()) return s;
    if (Status s = shardrpc::CheckScoredRows(rows, capped.k, corpus_->size());
        !s.ok()) {
      return s;
    }
    stats->nodes_popped += popped;
    stats->objects_scored += scored;
    return rows;
  }

  Result<std::unique_ptr<OracleShardQuestion>> OpenQuestion(
      const Query& query, const KeywordSet& universe) const override {
    BufWriter req;
    shardrpc::PutQuery(&req, query);
    req.PutDeltaIds(universe.ids());
    auto question = std::make_unique<ShardSessionChannel>(*corpus_, shard_);
    if (!question->Open(req.data(),
                        KeywordSet::Union(query.doc, universe).size())) {
      return question->last_error();
    }
    return std::unique_ptr<OracleShardQuestion>(std::move(question));
  }

 private:
  const RemoteCorpus* corpus_;
  size_t shard_;
};

std::vector<std::unique_ptr<const OracleShard>> ShardsOf(
    const RemoteCorpus& corpus) {
  std::vector<std::unique_ptr<const OracleShard>> shards;
  shards.reserve(corpus.num_shards());
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    shards.push_back(std::make_unique<RemoteOracleShard>(corpus, s));
  }
  return shards;
}

}  // namespace

RemoteShardOracle::RemoteShardOracle(const RemoteCorpus& corpus)
    : FanOutWhyNotOracle(
          ShardsOf(corpus), corpus.dist_norm(), corpus.pool(),
          [&corpus](const Status& status) { corpus.RecordError(status); }),
      corpus_(&corpus) {}

}  // namespace yask
