// In-memory spans and a tracing WhyNotOracle decorator for the serving
// benchmark.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the library's public functions: the HTTP client call, the JsonValue calls,
// WhyNotEngine::TopK, each why-not stage, and every primitive of the oracle
// seam. They stay in memory (SpanLog) and are summarised when the run ends.
//
// TracingOracle forwards EVERY virtual of WhyNotOracle, ScorePlaneSession,
// RankProbe and RankProbeBatch to the wrapped object. A virtual it failed to
// forward would silently fall back to the base-class loop (e.g. a per-call
// CountAbove loop instead of one batched fan-out), and the trace would then
// measure a different program from the one the service runs.

#ifndef SERVEBENCH_TRACING_H_
#define SERVEBENCH_TRACING_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/whynot/whynot_oracle.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One finished span. Times are milliseconds since the log's origin.
struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root.
  uint64_t request = 0;  // Spans of one request share this id.
};

/// Thread-safe in-memory span sink.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  double Now() const { return MsBetween(origin_, Clock::now()); }
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The calling thread's trace position: which log, which request, which
/// span encloses the current call. A null log disables every span.
struct TraceContext {
  SpanLog* log = nullptr;
  uint64_t request = 0;
  uint64_t parent = 0;
};

inline thread_local TraceContext tls_trace;

/// Installs a context on this thread for its lifetime (hands the enclosing
/// span to a helper thread, or starts a request).
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& ctx) : saved_(tls_trace) {
    tls_trace = ctx;
  }
  ~TraceScope() { tls_trace = saved_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext saved_;
};

/// Records [construction, destruction) as a child of the enclosing span.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) : saved_parent_(tls_trace.parent) {
    if (tls_trace.log == nullptr) return;
    span_.name = name;
    span_.id = tls_trace.log->NextId();
    span_.parent = tls_trace.parent;
    span_.request = tls_trace.request;
    span_.start_ms = tls_trace.log->Now();
    tls_trace.parent = span_.id;
  }
  ~BenchSpan() {
    if (span_.id == 0) return;
    span_.end_ms = tls_trace.log->Now();
    tls_trace.parent = saved_parent_;
    tls_trace.log->Add(span_);
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  Span span_;
  uint64_t saved_parent_;
};

/// The oracle primitives the decorator counts and spans.
enum Primitive : size_t {
  kTopK,
  kRank,
  kOutscoringCount,
  kOutscoringCountBatch,
  kPlaneOpen,
  kPlaneAnchor,
  kCountAbove,
  kCountAboveBatch,
  kCollectCrossings,
  kPlaneClose,
  kProbeOpen,
  kProbeBatchOpen,
  kProbeRefine,
  kNumPrimitives,
};

inline const char* PrimitiveName(size_t p) {
  static constexpr std::array<const char*, kNumPrimitives> kNames = {
      "oracle/topk",           "oracle/rank",
      "oracle/outscoring",     "oracle/outscoring_batch",
      "oracle/plane_open",     "oracle/plane_anchor",
      "oracle/count_above",    "oracle/count_above_batch",
      "oracle/crossings",      "oracle/plane_close",
      "oracle/probe_open",     "oracle/probe_batch_open",
      "oracle/probe_refine"};
  return kNames[p];
}

/// Per-primitive call counts plus the (weight, anchor) pairs counted.
struct OracleCounts {
  std::array<std::atomic<uint64_t>, kNumPrimitives> calls{};
  std::atomic<uint64_t> count_above_pairs{0};

  void Reset() {
    for (auto& c : calls) c.store(0);
    count_above_pairs.store(0);
  }
  uint64_t total_calls() const {
    uint64_t sum = 0;
    for (const auto& c : calls) sum += c.load();
    return sum;
  }
};

/// Spans one primitive call and counts it.
class PrimitiveCall {
 public:
  PrimitiveCall(OracleCounts* counts, Primitive p) : span_(PrimitiveName(p)) {
    counts->calls[p].fetch_add(1);
  }

 private:
  BenchSpan span_;
};

class TracingProbe final : public yask::RankProbe {
 public:
  TracingProbe(std::unique_ptr<yask::RankProbe> inner, OracleCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}
  size_t lower() const override { return inner_->lower(); }
  size_t upper() const override { return inner_->upper(); }
  bool resolved() const override { return inner_->resolved(); }
  void RefineLevel() override {
    PrimitiveCall call(counts_, kProbeRefine);
    inner_->RefineLevel();
  }

 private:
  std::unique_ptr<yask::RankProbe> inner_;
  OracleCounts* counts_;
};

class TracingProbeBatch final : public yask::RankProbeBatch {
 public:
  TracingProbeBatch(std::unique_ptr<yask::RankProbeBatch> inner,
                    OracleCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}
  size_t size() const override { return inner_->size(); }
  size_t lower(size_t i) const override { return inner_->lower(i); }
  size_t upper(size_t i) const override { return inner_->upper(i); }
  bool resolved(size_t i) const override { return inner_->resolved(i); }
  void RefineLevel(const std::vector<size_t>& members) override {
    PrimitiveCall call(counts_, kProbeRefine);
    inner_->RefineLevel(members);
  }

 private:
  std::unique_ptr<yask::RankProbeBatch> inner_;
  OracleCounts* counts_;
};

class TracingSession final : public yask::ScorePlaneSession {
 public:
  TracingSession(std::unique_ptr<yask::ScorePlaneSession> inner,
                 OracleCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}
  ~TracingSession() override {
    // A remote session closes its shard-side state here.
    PrimitiveCall call(counts_, kPlaneClose);
    inner_.reset();
  }

  yask::PlanePoint Anchor(yask::ObjectId global_id) const override {
    PrimitiveCall call(counts_, kPlaneAnchor);
    return inner_->Anchor(global_id);
  }
  size_t CountAbove(double w, const yask::PlanePoint& anchor,
                    yask::PreferenceAdjustStats* stats) const override {
    PrimitiveCall call(counts_, kCountAbove);
    counts_->count_above_pairs.fetch_add(1);
    return inner_->CountAbove(w, anchor, stats);
  }
  void CollectCrossings(const yask::PlanePoint& anchor, double wlo,
                        double whi, std::vector<double>* events,
                        yask::PreferenceAdjustStats* stats) const override {
    PrimitiveCall call(counts_, kCollectCrossings);
    inner_->CollectCrossings(anchor, wlo, whi, events, stats);
  }
  std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<yask::PlanePoint>& anchors,
      yask::PreferenceAdjustStats* stats) const override {
    PrimitiveCall call(counts_, kCountAboveBatch);
    counts_->count_above_pairs.fetch_add(weights.size() * anchors.size());
    return inner_->CountAboveBatch(weights, anchors, stats);
  }
  size_t PreferredSweepBatch() const override {
    return inner_->PreferredSweepBatch();
  }

 private:
  std::unique_ptr<yask::ScorePlaneSession> inner_;
  OracleCounts* counts_;
};

/// The decorator. `inner` and `counts` must outlive it and everything it
/// returns.
class TracingOracle final : public yask::WhyNotOracle {
 public:
  TracingOracle(const yask::WhyNotOracle& inner, OracleCounts* counts)
      : inner_(&inner), counts_(counts) {}

  size_t size() const override { return inner_->size(); }
  double dist_norm() const override { return inner_->dist_norm(); }
  const yask::SpatialObject& Object(yask::ObjectId global_id) const override {
    return inner_->Object(global_id);
  }
  yask::TopKResult TopK(const yask::Query& query,
                        yask::TopKStats* stats) const override {
    PrimitiveCall call(counts_, kTopK);
    return inner_->TopK(query, stats);
  }
  size_t Rank(const yask::Query& query,
              yask::ObjectId global_id) const override {
    PrimitiveCall call(counts_, kRank);
    return inner_->Rank(query, global_id);
  }
  size_t OutscoringCount(const yask::Query& query, yask::ObjectId global_id,
                         yask::KeywordAdaptStats* stats) const override {
    PrimitiveCall call(counts_, kOutscoringCount);
    return inner_->OutscoringCount(query, global_id, stats);
  }
  std::unique_ptr<yask::ScorePlaneSession> PrepareScorePlane(
      const yask::Query& query, yask::PrefAdjustMode mode) const override {
    PrimitiveCall call(counts_, kPlaneOpen);
    return std::make_unique<TracingSession>(
        inner_->PrepareScorePlane(query, mode), counts_);
  }
  std::unique_ptr<yask::RankProbe> ProbeRank(
      const yask::Query& candidate, yask::ObjectId global_id,
      yask::KeywordAdaptStats* stats) const override {
    PrimitiveCall call(counts_, kProbeOpen);
    return std::make_unique<TracingProbe>(
        inner_->ProbeRank(candidate, global_id, stats), counts_);
  }
  std::vector<size_t> OutscoringCountBatch(
      const std::vector<yask::OracleTargetSpec>& specs,
      yask::KeywordAdaptStats* stats) const override {
    PrimitiveCall call(counts_, kOutscoringCountBatch);
    return inner_->OutscoringCountBatch(specs, stats);
  }
  std::unique_ptr<yask::RankProbeBatch> ProbeRankBatch(
      const std::vector<yask::OracleTargetSpec>& specs,
      yask::KeywordAdaptStats* stats) const override {
    PrimitiveCall call(counts_, kProbeBatchOpen);
    return std::make_unique<TracingProbeBatch>(
        inner_->ProbeRankBatch(specs, stats), counts_);
  }

 private:
  const yask::WhyNotOracle* inner_;
  OracleCounts* counts_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACING_H_
