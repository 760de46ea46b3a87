#include "src/whynot/preference_adjustment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/query/scoring.h"
#include "src/whynot/shard_primitives.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

namespace {

// Weights must stay strictly inside (0, 1) (§2.1).
constexpr double kMinW = 1e-9;
constexpr double kMaxW = 1.0 - 1e-9;

// Offset used to sample just past a crossing, on its far side from w0. The
// rank change tied to a crossing materialises (in evaluated floating-point
// scores) within a small jitter zone around the algebraic crossing weight —
// displaced by roughly eval-error / |slope difference| — so a fixed offset
// beyond that zone is used rather than one ulp. The returned refinement is
// therefore optimal up to this ∆w resolution (penalty slack < 2e-7).
constexpr double kStepPastCrossing = 1e-7;

/// Running best candidate with deterministic tie-breaking: lower penalty,
/// then smaller |w - w0|, then smaller w.
class BestCandidate {
 public:
  BestCandidate(double w0, double w, size_t rank, PenaltyBreakdown penalty)
      : w0_(w0), w_(w), rank_(rank), penalty_(penalty) {}

  void Offer(double w, size_t rank, const PenaltyBreakdown& penalty) {
    const bool better =
        penalty.value < penalty_.value ||
        (penalty.value == penalty_.value &&
         (std::abs(w - w0_) < std::abs(w_ - w0_) ||
          (std::abs(w - w0_) == std::abs(w_ - w0_) && w < w_)));
    if (better) {
      w_ = w;
      rank_ = rank;
      penalty_ = penalty;
    }
  }

  double w() const { return w_; }
  size_t rank() const { return rank_; }
  const PenaltyBreakdown& penalty() const { return penalty_; }

 private:
  double w0_;
  double w_;
  size_t rank_;
  PenaltyBreakdown penalty_;
};

}  // namespace

Result<RefinedPreferenceQuery> AdjustPreference(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing,
    const PreferenceAdjustOptions& options) {
  if (Status s = query.Validate(); !s.ok()) return s;
  if (missing.empty()) {
    return Status::InvalidArgument("missing object set must be non-empty");
  }
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    return Status::InvalidArgument("lambda must lie in [0, 1]");
  }
  std::vector<ObjectId> m_ids = missing;
  std::sort(m_ids.begin(), m_ids.end());
  m_ids.erase(std::unique(m_ids.begin(), m_ids.end()), m_ids.end());
  // One sweep event's grid (up to 3 weights × |M| anchors) must fit in one
  // count fan-out.
  if (3 * m_ids.size() > kMaxCountBatchPairs) {
    return Status::InvalidArgument(
        "missing object set too large: " + std::to_string(m_ids.size()) +
        " distinct ids, at most " + std::to_string(kMaxCountBatchPairs / 3));
  }
  for (ObjectId id : m_ids) {
    if (id >= oracle.size()) {
      return Status::NotFound("missing object id " + std::to_string(id) +
                              " is not in the database");
    }
  }

  RefinedPreferenceQuery out;
  out.refined = query;
  PreferenceAdjustStats& stats = out.stats;

  const double lambda = options.lambda;
  const double w0 = query.w.ws;

  // Step 0: the per-query score-plane state — every object's (1 − SDist,
  // TSim) point in TSim columns. Behind the oracle this is per-shard state
  // built in parallel (the question's columns, when the engine opened a
  // question on this query); the counts and crossings it serves are exact
  // partition-sums/unions, so everything downstream is layout-independent.
  const std::unique_ptr<ScorePlaneSession> session =
      oracle.PrepareScorePlane(query, options.mode);
  std::vector<PlanePoint> anchors;
  anchors.reserve(m_ids.size());
  for (ObjectId id : m_ids) anchors.push_back(session->Anchor(id));

  // Tie-aware rank-minus-one of every anchor at every weight of `ws`, in ONE
  // oracle fan-out (one round-trip per shard behind a remote oracle) — the
  // meter sweep_fanouts counts. Counts are indexed [wi * anchors.size() + a].
  auto count_batch = [&](const std::vector<double>& ws) -> std::vector<size_t> {
    ++stats.sweep_fanouts;
    return session->CountAboveBatch(ws, anchors, &stats);
  };

  // --- Step 1: R(M, q) under the original weights; one fan-out covers every
  // anchor. ---
  size_t r0 = 0;
  for (const size_t c : count_batch({w0})) r0 = std::max(r0, c + 1);
  out.original_rank = r0;
  if (r0 <= query.k) {
    out.refined_rank = r0;
    out.already_in_result = true;
    return out;  // Nothing is missing; penalty 0, query unchanged.
  }

  // --- Step 2: seed with the pure-k refinement (cost exactly λ when
  // r0 > k) and derive the static feasible weight interval. ---
  BestCandidate best(w0, w0, r0,
                     PreferencePenalty(lambda, query, query.w, r0, r0));

  // ∆w floor of a candidate at weight w: an admissible penalty lower bound.
  const double norm_w = query.w.PenaltyNormalizer();
  auto floor_of = [&](double w) {
    return (1.0 - lambda) * std::sqrt(2.0) * std::abs(w - w0) / norm_w;
  };

  double delta_max;  // Static bound on |w - w0| from the λ seed.
  if (lambda >= 1.0) {
    delta_max = 1.0;  // The ∆w term has weight 0: no interval pruning.
  } else {
    delta_max = best.penalty().value * norm_w / ((1.0 - lambda) * std::sqrt(2.0));
  }
  const double wlo = std::max(kMinW, w0 - delta_max);
  const double whi = std::min(kMaxW, w0 + delta_max);

  // --- Step 3: collect crossing weights of missing objects' lines with all
  // other lines inside [wlo, whi] ("the two range queries" of ref [5]). The
  // merged event set is the union over shards; sorting + deduplicating makes
  // the sequence identical in every layout (each crossing weight is computed
  // from the same two doubles wherever it is found). ---
  std::vector<double> events;
  for (const PlanePoint& anchor : anchors) {
    session->CollectCrossings(anchor, wlo, whi, &events, &stats);
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  stats.crossings_found = events.size();

  // --- Step 4: evaluate candidates nearest-to-w0 first; stop when the ∆w
  // floor alone exceeds the best penalty (DESIGN.md D2/D3). Ranks are
  // computed exactly (index-accelerated in optimized mode), so both modes
  // return identical refinements. Each crossing also spawns a candidate just
  // past it on the far side from w0 (see kStepPastCrossing), where rank
  // drops whose tie resolves against a missing object materialise.
  std::sort(events.begin(), events.end(), [&](double a, double b) {
    const double da = std::abs(a - w0);
    const double db = std::abs(b - w0);
    if (da != db) return da < db;
    return a < b;
  });

  // The sweep speculatively fetches the counts of the next SEGMENT of
  // nearest-to-w0 events in one CountAboveBatch fan-out, then consumes them
  // in event order. The segment size never changes the answer:
  //   * each count is the same partition-sum in every layout (the seam's
  //     contract), offered to `best` in event order with the same penalty
  //     arithmetic, so `best` evolves identically;
  //   * the ∆w floor is monotone in the nearest-first event order, and it
  //     is RE-CHECKED per event while consuming — counts fetched past the
  //     cut are discarded deterministically, never offered;
  //   * candidates outside (kMinW, kMaxW) are dropped when the segment is
  //     built, so candidates_evaluated counts the same evaluations.
  // The schedule is the same in every layout. Optimized mode doubles the
  // segment from the session's first size (8, 16, 32, …): E consumed
  // events cost ⌈log2(E/8 + 1)⌉ fan-outs, and the over-fetch past the cut
  // is at most E + 8 events. Basic mode keeps one event per segment: there
  // every over-fetched pair is a full O(n) rescan. Every segment's
  // weights × anchors stay within kMaxCountBatchPairs (≥ 1 event, checked
  // on entry).
  const size_t num_anchors = anchors.size();
  const size_t max_segment = kMaxCountBatchPairs / (3 * num_anchors);
  const bool doubling = options.mode == PrefAdjustMode::kOptimized;
  size_t segment = doubling ? session->PreferredSweepBatch() : 1;
  segment = std::clamp<size_t>(segment, 1, max_segment);

  auto offer = [&](double w, const std::vector<size_t>& counts, size_t base) {
    size_t rank = 0;
    for (size_t a = 0; a < num_anchors; ++a) {
      rank = std::max(rank, counts[base + a] + 1);
    }
    ++stats.candidates_evaluated;
    best.Offer(w, rank, PreferencePenalty(lambda, query, Weights::FromWs(w),
                                          r0, rank));
  };

  size_t next = 0;
  std::vector<double> weights;       // Segment candidates, in event order.
  std::vector<size_t> event_starts;  // Candidate span of each event.
  while (next < events.size()) {
    if (floor_of(events[next]) >= best.penalty().value) break;
    const size_t seg_end = std::min(events.size(), next + segment);
    if (doubling) segment = std::min(2 * segment, max_segment);

    weights.clear();
    event_starts.assign(seg_end - next + 1, 0);
    for (size_t e = next; e < seg_end; ++e) {
      const double we = events[e];
      event_starts[e - next] = weights.size();
      auto push = [&](double w) {
        if (w >= kMinW && w <= kMaxW) weights.push_back(w);
      };
      push(we);
      if (we <= w0) push(we - kStepPastCrossing);
      if (we >= w0) push(we + kStepPastCrossing);
    }
    event_starts[seg_end - next] = weights.size();

    std::vector<size_t> counts;
    if (!weights.empty()) counts = count_batch(weights);

    bool cut = false;
    for (size_t e = next; e < seg_end; ++e) {
      if (floor_of(events[e]) >= best.penalty().value) {
        cut = true;  // Over-fetched counts past the cut: discarded.
        break;
      }
      for (size_t ci = event_starts[e - next];
           ci < event_starts[e - next + 1]; ++ci) {
        offer(weights[ci], counts, ci * num_anchors);
      }
    }
    if (cut) break;
    next = seg_end;
  }

  // --- Step 5: materialise the best refinement. ---
  out.refined.w = Weights::FromWs(best.w());
  out.refined.k = static_cast<uint32_t>(
      std::max<size_t>(query.k, best.rank()));
  out.refined_rank = best.rank();
  out.penalty = best.penalty();
  return out;
}

}  // namespace yask
