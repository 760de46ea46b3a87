#include "src/corpus/remote_whynot_oracle.h"

#include <algorithm>
#include <cstring>

#include "src/server/shard_protocol.h"

namespace yask {

namespace {

/// Encodes one /shard/count request for the given specs (target scores are
/// resolved coordinator-side — a spec's target need not live on the shard
/// being asked).
std::string EncodeCountRequest(const std::vector<OracleTargetSpec>& specs,
                               const std::vector<double>& target_scores,
                               uint8_t method) {
  BufWriter req;
  req.PutVarU64(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    shardrpc::PutQuery(&req, *specs[i].query);
    req.PutU32(specs[i].target);
    req.PutF64(target_scores[i]);
    req.PutU8(method);
  }
  return req.data();
}

// --- Session failover channel ------------------------------------------------

/// One shard's server-side session (Eqn. (3) plane or Eqn. (4) probe batch)
/// with mid-request failover. The session is replica-sticky: it lives on ONE
/// replica of the shard's ReplicaSet. When a session call fails on the wire —
/// or the replica restarted and answers 404 for an id it no longer knows —
/// the channel re-opens the session on a live replica (possibly the restarted
/// one), REPLAYS the state-mutating calls already applied so the fresh
/// session reaches the same refinement level, and re-issues the failed call.
/// Because every replica boots from the same snapshot, the replayed session
/// is byte-identical to the lost one, and the caller never sees the kill.
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
  /// the session id. `mutates` records the body for replay after failover
  /// (probe refines advance server-side frontiers; plane calls are pure).
  /// Errors only when no replica can serve the session.
  Result<std::string> Call(const char* path, std::string body, bool mutates) {
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
        if (mutates) replay_.push_back({path, body});
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

  /// Opens on some not-yet-tried replica and replays the mutation history.
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
    // Replay, in order, what the lost session had already applied. The
    // responses repeat bounds the coordinator has already merged (replicas
    // are deterministic twins), so they are dropped — and NOT re-counted in
    // any stats: the logical work happened once.
    for (const ReplayEntry& entry : replay_) {
      std::string body = entry.body;
      StampSession(&body, id);
      Result<std::string> replayed =
          set().CallOn(r, "POST", entry.path, body);
      if (!replayed.ok()) {
        last_error_ = replayed.status();
        BufWriter close;
        close.PutU64(id);
        (void)set().CallOn(r, "POST", close_path_, close.data());
        return false;
      }
    }
    // A re-open after the first success IS a session replay: the lost
    // session was re-established (history re-applied) on a live replica.
    if (opened_once_) corpus_->session_replays()->Add();
    opened_once_ = true;
    session_ = id;
    replica_ = r;
    open_resp_ = *std::move(raw);
    return true;
  }

  struct ReplayEntry {
    const char* path;
    std::string body;  // Session slot re-stamped at replay time.
  };

  const RemoteCorpus* corpus_;
  size_t shard_;
  const char* open_path_;
  const char* close_path_;
  std::string open_body_;
  std::vector<ReplayEntry> replay_;
  size_t replica_ = 0;
  uint64_t session_ = 0;
  bool opened_once_ = false;
  std::string open_resp_;
  Status last_error_ = Status::Unavailable("never opened");
};

}  // namespace

std::vector<size_t> RemoteShardOracle::CountFanout(
    const std::vector<OracleTargetSpec>& specs, uint8_t method) const {
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
    Result<std::string> raw =
        corpus_->replicas(s).Call("POST", shardrpc::kCountPath, body);
    if (!raw.ok()) {
      corpus_->RecordError(raw.status());
      return;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t count = in.GetVarU64();
    if (count != specs.size()) {
      corpus_->RecordError(
          Status::InvalidArgument("bad /shard/count response"));
      return;
    }
    counts[s].reserve(count);
    for (uint64_t i = 0; i < count; ++i) counts[s].push_back(in.GetU64());
    if (!in.ok()) {
      corpus_->RecordError(in.status());
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
  return CountFanout(specs,
                     static_cast<uint8_t>(shardrpc::CountMethod::kSetR))[0] +
         1;
}

std::vector<size_t> RemoteShardOracle::OutscoringCountBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += corpus_->size() * specs.size();
  return CountFanout(specs,
                     static_cast<uint8_t>(shardrpc::CountMethod::kScan));
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
          channels_[s]->Call(shardrpc::kPlaneCountBatchPath, body,
                             /*mutates=*/false);
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

  size_t PreferredSweepBatch() const override {
    // The fleet's slowest shard gates every fan-out, so IT sets how much a
    // saved round-trip is worth.
    size_t batch = 1;
    for (size_t s = 0; s < corpus_->num_shards(); ++s) {
      batch = std::max(batch, corpus_->replicas(s).adaptive_sweep_batch());
    }
    return batch;
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
          channels_[s]->Call(shardrpc::kPlaneCrossingsPath, body,
                             /*mutates=*/false);
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

// --- Rank-probe batches ------------------------------------------------------

class RemoteRankProbeBatch : public RankProbeBatch {
 public:
  RemoteRankProbeBatch(const RemoteCorpus* corpus, const WhyNotOracle* oracle,
                       const std::vector<OracleTargetSpec>& specs,
                       KeywordAdaptStats* stats)
      : corpus_(corpus), stats_(stats), members_(specs.size()) {
    // Target scores resolve coordinator-side, then ONE open per shard
    // creates every member's refiner there.
    BufWriter req;
    req.PutVarU64(specs.size());
    for (const OracleTargetSpec& spec : specs) {
      const double target_score =
          ScorePartsOf(*spec.query, corpus_->dist_norm(),
                       oracle->Object(spec.target))
              .score;
      shardrpc::PutQuery(&req, *spec.query);
      req.PutU32(spec.target);
      req.PutF64(target_score);
    }
    const std::string body = req.data();

    const size_t n = corpus_->num_shards();
    shards_.resize(n);
    channels_.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      shards_[s].members.resize(specs.size());
      channels_.push_back(std::make_unique<ShardSessionChannel>(
          *corpus, s, shardrpc::kProbeOpenPath, shardrpc::kProbeClosePath));
    }
    corpus_->ForEachShard([&](size_t s) {
      if (!channels_[s]->Open(body)) {
        corpus_->RecordError(channels_[s]->last_error());
        return;
      }
      const std::string& resp = channels_[s]->open_response();
      BufReader in(resp.data(), resp.size());
      in.GetU64();  // Session id — the channel's concern.
      for (MemberBounds& member : shards_[s].members) {
        member.lower = in.GetU64();
        member.upper = in.GetU64();
        member.resolved = in.GetU8() != 0;
      }
      if (!in.ok()) {
        corpus_->RecordError(in.status());
        // Back to the pinned-zero defaults: a half-parsed member with
        // resolved=false would make the refinement loop spin forever on a
        // shard that can no longer answer (the request 503s via the epoch).
        channels_[s]->Close();
        shards_[s].members.assign(shards_[s].members.size(), MemberBounds{});
      }
    });
  }

  size_t size() const override { return members_; }

  size_t lower(size_t i) const override {
    size_t sum = 0;
    for (const ShardState& shard : shards_) sum += shard.members[i].lower;
    return sum + 1;
  }
  size_t upper(size_t i) const override {
    size_t sum = 0;
    for (const ShardState& shard : shards_) sum += shard.members[i].upper;
    return sum + 1;
  }
  bool resolved(size_t i) const override {
    for (const ShardState& shard : shards_) {
      if (!shard.members[i].resolved) return false;
    }
    return true;
  }

  void RefineLevel(const std::vector<size_t>& members) override {
    const size_t n = shards_.size();
    std::vector<uint64_t> kcr_deltas(n, 0);
    std::vector<uint64_t> scored_deltas(n, 0);
    corpus_->ForEachShard([&](size_t s) {
      ShardState& shard = shards_[s];
      if (!channels_[s]->live()) return;  // Open failed; epoch already bumped.
      // Only the members with an open frontier on THIS shard are sent.
      std::vector<size_t> wanted;
      for (size_t m : members) {
        if (!shard.members[m].resolved) wanted.push_back(m);
      }
      if (wanted.empty()) return;
      BufWriter req;
      req.PutU64(0);  // Session slot, stamped by the channel.
      req.PutVarU64(wanted.size());
      for (size_t m : wanted) req.PutVarU32(static_cast<uint32_t>(m));
      // mutates=true: a refine advances the server-side frontiers, so it
      // joins the channel's replay log — a later failover re-runs the whole
      // history on the fresh replica before anything new is asked of it.
      Result<std::string> raw =
          channels_[s]->Call(shardrpc::kProbeRefinePath, req.data(),
                             /*mutates=*/true);
      // Any failure (every replica down) pins the asked members on this
      // shard: bounds stop narrowing but resolved() becomes true, so the
      // caller's refinement loop TERMINATES and the request surfaces the
      // bumped epoch as a 503 — instead of re-issuing a doomed RPC (or
      // spinning) forever.
      auto pin_wanted = [&] {
        for (size_t m : wanted) shard.members[m].resolved = true;
      };
      if (!raw.ok()) {
        corpus_->RecordError(raw.status());
        pin_wanted();
        return;
      }
      BufReader in(raw->data(), raw->size());
      const uint64_t count = in.GetVarU64();
      if (count != wanted.size()) {
        corpus_->RecordError(
            Status::InvalidArgument("bad /shard/probe/refine response"));
        pin_wanted();
        return;
      }
      for (size_t m : wanted) {
        shard.members[m].lower = in.GetU64();
        shard.members[m].upper = in.GetU64();
        shard.members[m].resolved = in.GetU8() != 0;
      }
      kcr_deltas[s] = in.GetU64();
      scored_deltas[s] = in.GetU64();
      if (!in.ok()) {
        corpus_->RecordError(in.status());
        pin_wanted();
      }
    });
    for (size_t s = 0; s < n; ++s) {
      stats_->kcr_nodes_expanded += kcr_deltas[s];
      stats_->objects_scored += scored_deltas[s];
    }
  }

 private:
  struct MemberBounds {
    uint64_t lower = 0;
    uint64_t upper = 0;
    bool resolved = true;  // A failed shard contributes a pinned zero.
  };
  struct ShardState {
    std::vector<MemberBounds> members;
  };

  const RemoteCorpus* corpus_;
  KeywordAdaptStats* stats_;
  size_t members_;
  std::vector<ShardState> shards_;
  std::vector<std::unique_ptr<ShardSessionChannel>> channels_;
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
  return std::make_unique<RemoteRankProbeBatch>(corpus_, this, specs, stats);
}

}  // namespace yask
