#include "src/corpus/remote_whynot_oracle.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/server/shard_protocol.h"

namespace yask {

namespace {

/// Encodes one /shard/count (with a method byte per spec) or
/// /shard/probe/rank (without) request for the given specs. Target scores
/// are resolved coordinator-side — a spec's target need not live on the
/// shard being asked.
std::string EncodeCountRequest(const std::vector<OracleTargetSpec>& specs,
                               const std::vector<double>& target_scores,
                               std::optional<shardrpc::CountMethod> method) {
  BufWriter req;
  req.PutVarU64(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    shardrpc::PutQuery(&req, *specs[i].query);
    req.PutU32(specs[i].target);
    req.PutF64(target_scores[i]);
    if (method.has_value()) req.PutU8(static_cast<uint8_t>(*method));
  }
  return req.data();
}

// --- Session failover channel ------------------------------------------------

/// One shard's server-side Eqn. (3) plane session with mid-request failover.
/// The session is replica-sticky: it lives on ONE replica of the shard's
/// ReplicaSet. When a session call fails on the wire — or the replica
/// restarted and answers 404 for an id it no longer knows — the channel
/// re-opens the session on a live replica (possibly the restarted one) and
/// re-issues the failed call. Session calls never change the session, and
/// every replica boots from the same snapshot, so the re-opened session is
/// byte-identical to the lost one, and the caller never sees the kill.
///
/// Every session request body leads with an 8-byte session-id slot the
/// channel stamps per attempt. Not thread-safe (one logical why-not question
/// drives one channel at a time, matching the shard server's own per-session
/// serialisation).
class ShardSessionChannel {
 public:
  ShardSessionChannel(const RemoteCorpus& corpus, size_t shard,
                      const char* open_path, const char* close_path)
      : corpus_(&corpus),
        shard_(shard),
        open_path_(open_path),
        close_path_(close_path) {}

  ~ShardSessionChannel() { Close(); }

  /// First open, trying every replica. On success open_response() holds the
  /// raw response (leading U64 session id included — parse and skip it).
  bool Open(std::string open_body) {
    open_body_ = std::move(open_body);
    std::vector<bool> tried(set().num_replicas(), false);
    return Reopen(&tried);
  }

  bool live() const { return session_ != 0; }
  const std::string& open_response() const { return open_resp_; }
  const Status& last_error() const { return last_error_; }

  /// One session call; `body` leads with 8 bytes the channel overwrites with
  /// the session id. Errors only when no replica can serve the session.
  Result<std::string> Call(const char* path, std::string body) {
    if (!live()) {
      return Status::Unavailable("shard " + set().description() +
                                 ": no live session");
    }
    std::vector<bool> tried(set().num_replicas(), false);
    // A restarted replica is healthy but sessionless: it answers 404, we
    // re-open (maybe on it) and retry. Bound those loops — a server that
    // keeps losing fresh sessions is broken, not restarting.
    size_t lost_sessions = 0;
    bool failed_over = false;
    for (;;) {
      StampSession(&body, session_);
      Result<std::string> raw = set().CallOn(replica_, "POST", path, body);
      if (raw.ok()) {
        if (failed_over) set().NoteFailover();
        return raw;
      }
      const StatusCode code = raw.status().code();
      if (code == StatusCode::kUnavailable) {
        tried[replica_] = true;  // This replica failed on the wire.
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
      session_ = 0;
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
    if (!live()) return;
    BufWriter req;
    req.PutU64(session_);
    (void)set().CallOn(replica_, "POST", close_path_, req.data());
    session_ = 0;
  }

 private:
  ReplicaSet& set() const { return corpus_->replicas(shard_); }

  static void StampSession(std::string* body, uint64_t session) {
    std::memcpy(body->data(), &session, sizeof(session));
  }

  /// Opens on some not-yet-tried replica.
  bool Reopen(std::vector<bool>* tried) {
    session_ = 0;
    for (;;) {
      const std::optional<size_t> r = set().PickReplica(tried);
      if (!r.has_value()) return false;
      if (OpenOn(*r)) return true;
      (*tried)[*r] = true;
    }
  }

  bool OpenOn(size_t r) {
    Result<std::string> raw =
        set().CallOn(r, "POST", open_path_, open_body_);
    if (!raw.ok()) {
      last_error_ = raw.status();
      return false;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t id = in.GetU64();
    if (!in.ok() || id == 0) {
      last_error_ = Status::InvalidArgument("bad session-open response");
      return false;
    }
    // A re-open after the first success is what the session-replay counter
    // counts: the lost session was re-established on a live replica.
    if (opened_once_) corpus_->session_replays()->Add();
    opened_once_ = true;
    session_ = id;
    replica_ = r;
    open_resp_ = *std::move(raw);
    return true;
  }

  const RemoteCorpus* corpus_;
  size_t shard_;
  const char* open_path_;
  const char* close_path_;
  std::string open_body_;
  size_t replica_ = 0;
  uint64_t session_ = 0;
  bool opened_once_ = false;
  std::string open_resp_;
  Status last_error_ = Status::Unavailable("never opened");
};

}  // namespace

std::vector<size_t> RemoteShardOracle::CountFanout(
    const std::vector<OracleTargetSpec>& specs, const char* path,
    std::optional<shardrpc::CountMethod> method) const {
  std::vector<double> target_scores;
  target_scores.reserve(specs.size());
  for (const OracleTargetSpec& spec : specs) {
    target_scores.push_back(
        ScorePartsOf(*spec.query, corpus_->dist_norm(), Object(spec.target))
            .score);
  }
  const std::string body = EncodeCountRequest(specs, target_scores, method);

  const size_t n = corpus_->num_shards();
  std::vector<std::vector<size_t>> counts(n);
  corpus_->ForEachShard([&](size_t s) {
    Result<std::string> raw = corpus_->replicas(s).Call("POST", path, body);
    if (!raw.ok()) {
      corpus_->RecordError(raw.status());
      return;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t count = in.GetVarU64();
    if (count != specs.size()) {
      corpus_->RecordError(Status::InvalidArgument(
          std::string("bad ") + path + " response"));
      return;
    }
    counts[s].reserve(count);
    for (uint64_t i = 0; i < count; ++i) counts[s].push_back(in.GetU64());
    if (!in.ok() || !in.AtEnd()) {
      corpus_->RecordError(in.ok() ? Status::InvalidArgument(
                                         std::string("trailing bytes in ") +
                                         path + " response")
                                   : in.status());
      counts[s].clear();
    }
  });

  std::vector<size_t> total(specs.size(), 0);
  for (size_t s = 0; s < n; ++s) {
    if (counts[s].empty()) continue;  // Failed shard: epoch already bumped.
    for (size_t i = 0; i < specs.size(); ++i) total[i] += counts[s][i];
  }
  return total;
}

size_t RemoteShardOracle::Rank(const Query& query, ObjectId global_id) const {
  const std::vector<OracleTargetSpec> specs{{&query, global_id}};
  return CountFanout(specs, shardrpc::kCountPath,
                     shardrpc::CountMethod::kSetR)[0] +
         1;
}

std::vector<size_t> RemoteShardOracle::OutscoringCountBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += corpus_->size() * specs.size();
  return CountFanout(specs, shardrpc::kCountPath,
                     shardrpc::CountMethod::kScan);
}

// --- Score-plane sessions ----------------------------------------------------

namespace {

class RemoteScorePlaneSession : public ScorePlaneSession {
 public:
  RemoteScorePlaneSession(const RemoteCorpus* corpus,
                          const WhyNotOracle* oracle, const Query* query,
                          PrefAdjustMode mode)
      : corpus_(corpus),
        oracle_(oracle),
        query_(query),
        optimized_(mode == PrefAdjustMode::kOptimized) {
    BufWriter req;
    shardrpc::PutQuery(&req, *query);
    req.PutU8(optimized_ ? 1 : 0);
    const std::string body = req.data();
    const size_t n = corpus->num_shards();
    channels_.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      channels_.push_back(std::make_unique<ShardSessionChannel>(
          *corpus, s, shardrpc::kPlaneOpenPath, shardrpc::kPlaneClosePath));
    }
    corpus_->ForEachShard([&](size_t s) {
      if (!channels_[s]->Open(body)) {
        corpus_->RecordError(channels_[s]->last_error());
      }
    });
  }

  PlanePoint Anchor(ObjectId global_id) const override {
    const ObjectScoreParts parts = ScorePartsOf(*query_, corpus_->dist_norm(),
                                                oracle_->Object(global_id));
    return PlanePoint{1.0 - parts.sdist, parts.tsim, global_id};
  }

  std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<PlanePoint>& anchors,
      PreferenceAdjustStats* stats) const override {
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped by the channel.
    req.PutVarU64(weights.size());
    for (const double w : weights) req.PutF64(w);
    req.PutVarU64(anchors.size());
    for (const PlanePoint& anchor : anchors) {
      shardrpc::PutPlanePoint(&req, anchor);
    }
    const std::string body = req.data();
    const size_t pairs = weights.size() * anchors.size();
    const size_t n = channels_.size();
    std::vector<std::vector<size_t>> counts(n);
    std::vector<size_t> nodes(n, 0);
    corpus_->ForEachShard([&](size_t s) {
      if (!channels_[s]->live()) return;  // Open failed; epoch already bumped.
      Result<std::string> raw =
          channels_[s]->Call(shardrpc::kPlaneCountBatchPath, body);
      if (!raw.ok()) {
        corpus_->RecordError(raw.status());
        return;
      }
      BufReader in(raw->data(), raw->size());
      const uint64_t count = in.GetVarU64();
      if (count != pairs) {
        corpus_->RecordError(
            Status::InvalidArgument("bad /shard/plane/count_batch response"));
        return;
      }
      counts[s].reserve(pairs);
      for (uint64_t i = 0; i < pairs; ++i) counts[s].push_back(in.GetU64());
      nodes[s] = in.GetU64();
      if (!in.ok()) {
        corpus_->RecordError(in.status());
        counts[s].clear();
      }
    });
    std::vector<size_t> total(pairs, 0);
    for (size_t s = 0; s < n; ++s) {
      if (counts[s].empty()) continue;  // Failed shard: epoch already bumped.
      for (size_t i = 0; i < pairs; ++i) total[i] += counts[s][i];
      stats->index_nodes_visited += nodes[s];
    }
    if (!optimized_) stats->full_rescans += pairs;
    return total;
  }

  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        PreferenceAdjustStats* stats) const override {
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped by the channel.
    shardrpc::PutPlanePoint(&req, anchor);
    req.PutF64(wlo);
    req.PutF64(whi);
    const std::string body = req.data();
    const size_t n = channels_.size();
    std::vector<std::vector<double>> parts(n);
    std::vector<size_t> nodes(n, 0);
    corpus_->ForEachShard([&](size_t s) {
      if (!channels_[s]->live()) return;  // Open failed; epoch already bumped.
      Result<std::string> raw =
          channels_[s]->Call(shardrpc::kPlaneCrossingsPath, body);
      if (!raw.ok()) {
        corpus_->RecordError(raw.status());
        return;
      }
      BufReader in(raw->data(), raw->size());
      const uint64_t count = in.GetVarU64();
      if (!in.CheckCount(count, sizeof(double))) {
        corpus_->RecordError(
            Status::InvalidArgument("bad /shard/plane/crossings response"));
        return;
      }
      parts[s].reserve(count);
      for (uint64_t i = 0; i < count; ++i) parts[s].push_back(in.GetF64());
      nodes[s] = in.GetU64();
      if (!in.ok()) corpus_->RecordError(in.status());
    });
    // Union in shard order; the caller sorts + deduplicates the merged set.
    for (size_t s = 0; s < n; ++s) {
      events->insert(events->end(), parts[s].begin(), parts[s].end());
      stats->index_nodes_visited += nodes[s];
    }
  }

 private:
  const RemoteCorpus* corpus_;
  const WhyNotOracle* oracle_;
  const Query* query_;
  bool optimized_;
  // mutable: channels fail over (re-open + re-pin) inside const sweeps.
  mutable std::vector<std::unique_ptr<ShardSessionChannel>> channels_;
};

}  // namespace

std::unique_ptr<ScorePlaneSession> RemoteShardOracle::PrepareScorePlane(
    const Query& query, PrefAdjustMode mode) const {
  return std::make_unique<RemoteScorePlaneSession>(corpus_, this, &query,
                                                   mode);
}

std::unique_ptr<RankProbeBatch> RemoteShardOracle::ProbeRankBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += corpus_->size();
  std::vector<size_t> ranks =
      CountFanout(specs, shardrpc::kProbeRankPath, std::nullopt);
  for (size_t& rank : ranks) ++rank;
  return std::make_unique<ExactRankBatch>(std::move(ranks));
}

}  // namespace yask
