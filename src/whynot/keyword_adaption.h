// Copyright (c) 2026 The YASK reproduction authors.
// The keyword-adapted why-not module (§2.2 Definition 3, §3.3, ref [6]).
//
// Goal: given the initial query q and missing objects M, find the refined
// keyword set doc' (and k') minimising penalty Eqn. (4) such that the top-k'
// result contains all of M.
//
// Method (ref [6]): candidate keyword sets are built from U = q.doc ∪ M.doc
// — deleting keywords of q.doc and/or inserting keywords that describe the
// missing objects. Candidates are enumerated in increasing edit distance
// ∆doc, which yields the admissible penalty floor
//     penalty(c) >= (1−λ)·∆doc(c) / |q.doc ∪ M.doc|                  (D4)
// allowing whole levels to be cut once the floor alone exceeds the best
// penalty found. Every surviving candidate gets its exact R(M, q'), and the
// pure-k refinement (doc unchanged, k' = R(M,q), penalty λ) seeds the
// search.
//
// Ranks come from the question's columns (QuestionColumns,
// docs/architecture.md "Question columns"): every candidate shares q.loc, w
// and U, so one pass groups the objects by (mask over U, |o.doc|) and sorts
// each group by 1 − SDist. Any candidate's rank is then one binary search
// per group, an exact alternative to ref [6]'s KcR-tree bounds. The paper's
// basic baseline, which scores every object per candidate, is the same
// search over another oracle layout (bench/baselines/scan_oracle.h). One
// chunk of candidates is one rank fan-out.
//
// Candidates are enumerated lazily, one chunk held at a time, and ranked in
// chunks of 128: the (candidate, missing object) specs of one chunk share
// ONE oracle call — one question per shard on a remote oracle. The chunking
// never changes the refined query: every cut is strict, so the winner does
// not depend on it.
//
// Work bounds (src/whynot/shard_primitives.h): at most
// kMaxKeywordCandidates candidates are generated; past that the search
// answers the best one generated and sets `stats.truncated`. Memory is
// bounded by one chunk. |U| <= kMaxKeywordUniverse (U travels on the wire),
// and one fan-out carries at most kMaxProbeSpecs (candidate, missing
// object) specs, so a chunk holds at most kMaxProbeSpecs / |M| candidates;
// a larger U, or more missing objects than one fan-out holds, is
// InvalidArgument.

#ifndef YASK_WHYNOT_KEYWORD_ADAPTION_H_
#define YASK_WHYNOT_KEYWORD_ADAPTION_H_

#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/query/query.h"
#include "src/storage/object_store.h"
#include "src/whynot/penalty.h"

namespace yask {

class WhyNotOracle;  // src/whynot/whynot_oracle.h

struct KeywordAdaptOptions {
  /// The λ of Eqn. (4): weight of the ∆k term versus the ∆doc term.
  double lambda = 0.5;
};

/// Work counters (benchmarks E8/E9/E10 and the remote round-trip gate).
/// Every counter is the same in every layout.
struct KeywordAdaptStats {
  size_t candidates_generated = 0;
  size_t candidates_pruned_floor = 0;   // Cut by the ∆doc floor alone.
  size_t candidates_resolved = 0;       // Evaluated to an exact penalty.
  /// Objects read per rank fan-out, summed: the dataset size per fan-out
  /// for the keyword-mask groups (the objects a fan-out's columns hold), or
  /// per (candidate, missing object) spec for an oracle that ranks by scan.
  size_t objects_scored = 0;
  /// Rank fan-outs issued (one oracle call per chunk, plus R(M, q) when it
  /// does not ride the first chunk) — at most one round-trip per shard each
  /// on a remote oracle.
  size_t probe_fanouts = 0;
  bool truncated = false;  // kMaxKeywordCandidates hit.
  /// Always 0 since the KcR-tree search was replaced; kept only because
  /// servebench/servebench.cc, their last reader, reports them.
  size_t candidates_pruned_bounds = 0;
  size_t kcr_nodes_expanded = 0;
  size_t refine_levels = 0;
};

/// The outcome: a refined query plus its cost and diagnostics.
struct RefinedKeywordQuery {
  Query refined;             // Same loc/w; adapted doc and k.
  PenaltyBreakdown penalty;  // Eqn. (4) breakdown.
  size_t original_rank = 0;  // R(M, q).
  size_t refined_rank = 0;   // R(M, q').
  bool already_in_result = false;  // M ⊆ top-k(q): nothing to refine.
  KeywordAdaptStats stats;
};

/// Solves Definition 3 over any corpus layout behind the oracle seam. The
/// search offers every candidate the floor does not cut to the running
/// best with its exact rank (the floor cut is strict), so the refined query
/// — including the deterministic tie order: smaller ∆doc, then
/// lexicographically smaller keyword ids — is bit-identical across layouts.
Result<RefinedKeywordQuery> AdaptKeywords(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing,
    const KeywordAdaptOptions& options = {});

/// Visits every non-empty candidate keyword set at edit distance exactly
/// `distance` from `query_doc`, deleting only query keywords and inserting
/// only keywords of `insertable` (= M.doc \ q.doc): by the number of
/// deletions, then the deleted and the inserted index combinations in
/// lexicographic order. Stops when `fn` returns false. Nothing is held
/// beyond the candidate being visited.
void ForEachCandidateAtDistance(const KeywordSet& query_doc,
                                const KeywordSet& insertable, size_t distance,
                                const std::function<bool(KeywordSet)>& fn);

}  // namespace yask

#endif  // YASK_WHYNOT_KEYWORD_ADAPTION_H_
