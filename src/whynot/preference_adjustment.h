// Copyright (c) 2026 The YASK reproduction authors.
// The preference-adjusted why-not module (§2.2 Definition 2, §3.3, ref [5]).
//
// Goal: given the initial query q and missing objects M, find the refined
// query q' = (loc, doc, k', w') minimising penalty Eqn. (3) whose result
// contains all of M.
//
// Method (ref [5]): with ws + wt = 1, each object o becomes the line
//   f_o(w) = w·(1 − SDist(o,q)) + (1−w)·TSim(o,q) ,  w := ws ∈ (0,1) ,
// and rank(m, w) changes only where f_m crosses another object's line. The
// optimal w' therefore lies at a crossing of a missing object's line (or at
// the original w, adjusting only k). The module:
//   1. computes R(M, q) = R0; the pure-k refinement (w unchanged,
//      k' = R0) costs exactly λ and bounds the search;
//   2. derives the feasible interval |w − w0| <= λ·‖(1,ws,wt)‖ / ((1−λ)·√2)
//      outside which the ∆w term alone exceeds the best penalty (D3);
//   3. finds all crossings of missing objects' lines inside the interval —
//      the paper's "two range queries", answered by binary searches per
//      TSim column of the question's columns;
//   4. evaluates candidate weights nearest-to-w0 first, stopping as soon as
//      the ∆w penalty floor alone exceeds the best penalty found; candidate
//      ranks are computed exactly, by one binary search per TSim column;
//   5. returns the candidate with the lowest penalty; ties prefer smaller
//      |w − w0|, then smaller w.
//
// Tie handling. Exactly at a crossing the two objects' scores can tie, and
// the top-k order resolves ties by object id (D6); in evaluated floating-
// point arithmetic the materialised rank change lands within a small jitter
// zone around the algebraic crossing. Each crossing therefore spawns a
// second candidate a fixed small offset beyond it on the far side from w0
// (1e-7; see kStepPastCrossing in the implementation). Ranks are always
// evaluated with the same floating-point score semantics the top-k engine
// uses, so the refinement's k' is guaranteed sufficient to revive M, and
// the result is optimal over all w up to that ∆w resolution.
//
// The paper's basic baseline (brute-force crossings, a full rescan per
// candidate) is not a mode of this module: it is the same search over
// another oracle layout, bench/baselines/scan_oracle.h, whose plane session
// answers every count and crossing by scanning the objects' points.

#ifndef YASK_WHYNOT_PREFERENCE_ADJUSTMENT_H_
#define YASK_WHYNOT_PREFERENCE_ADJUSTMENT_H_

#include <vector>

#include "src/common/status.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/storage/object_store.h"
#include "src/whynot/penalty.h"

namespace yask {

class WhyNotOracle;  // src/whynot/whynot_oracle.h

/// One object in the score plane of a query q:
///     P(o) = (x, y) = (1 − SDist(o, q), TSim(o, q)) ,
/// whose score at the (normalised, ws + wt = 1) weight w := ws is the line
///     f_o(w) = w·x + (1−w)·y .
struct PlanePoint {
  double x = 0.0;  // 1 - SDist(o, q)
  double y = 0.0;  // TSim(o, q)
  ObjectId id = kInvalidObject;

  /// Score at weight w (ws = w, wt = 1-w).
  double ScoreAt(double w) const { return w * x + (1.0 - w) * y; }
};

/// The plane's parameter type on WhyNotOracle::PrepareScorePlane. Nothing
/// reads it: one enumerator, kept only because servebench/tracing.h
/// overrides PrepareScorePlane with this signature (ROADMAP item 2 deletes
/// it once item 1 retires tracing.h).
enum class PrefAdjustMode { kOptimized };

struct PreferenceAdjustOptions {
  /// The λ of Eqn. (3): weight of the ∆k term versus the ∆w term.
  double lambda = 0.5;
};

/// Work counters (benchmarks E4/E5/E7).
struct PreferenceAdjustStats {
  size_t crossings_found = 0;       // Candidate events inside the interval.
  size_t candidates_evaluated = 0;  // Penalty evaluations.
  size_t index_nodes_visited = 0;   // Plane score evaluations.
  size_t sweep_fanouts = 0;         // Oracle count fan-outs in the sweep.
};

/// The outcome: a refined query plus its cost and diagnostics.
struct RefinedPreferenceQuery {
  Query refined;             // Same loc/doc; adjusted w and k.
  PenaltyBreakdown penalty;  // Eqn. (3) breakdown.
  size_t original_rank = 0;  // R(M, q).
  size_t refined_rank = 0;   // R(M, q').
  bool already_in_result = false;  // M ⊆ top-k(q): nothing to refine.
  PreferenceAdjustStats stats;
};

/// Solves Definition 2 over any corpus layout behind the oracle seam. The
/// search is layout-independent: every candidate weight's rank is an exact
/// partition-sum, so the refinement is bit-identical across layouts.
/// Errors: invalid query, empty/duplicate-only/unknown missing ids.
Result<RefinedPreferenceQuery> AdjustPreference(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing,
    const PreferenceAdjustOptions& options = {});

}  // namespace yask

#endif  // YASK_WHYNOT_PREFERENCE_ADJUSTMENT_H_
