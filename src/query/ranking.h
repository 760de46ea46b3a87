// Copyright (c) 2026 The YASK reproduction authors.
// Rank: the position a given object would take in the full ranking of D
// under a query. The why-not machinery is built on ranks: R(M, q) — "the
// lowest rank of the missing objects under q" — normalises both penalty
// functions (Eqns. (3) and (4)), and explanations report the rank of each
// missing object (§3.3).
//
// Rank convention (DESIGN.md D6), consistent with the top-k engines' result
// order: rank(o, q) = 1 + #{o' : ST(o',q) > ST(o,q) or
//                                (ST(o',q) == ST(o,q) and o'.id < o.id)} ,
// which guarantees o ∈ top-k(q) iff rank(o, q) <= k.
//
// This file holds the order itself and its full-scan reference. The served
// ranks come from the question columns behind the why-not oracle
// (src/whynot/shard_primitives.h), which count with this same predicate.

#ifndef YASK_QUERY_RANKING_H_
#define YASK_QUERY_RANKING_H_

#include <cstddef>

#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/storage/object_store.h"

namespace yask {

/// THE tie-aware "outranks the target" predicate (D6) — the single source of
/// the rank order every engine, oracle and merge rule must agree on. Ids are
/// compared as GLOBAL ids; the whole cross-layout bit-identity argument of
/// the sharded why-not stack rests on every site using this one rule.
inline bool OutranksTarget(double score, ObjectId id, double target_score,
                           ObjectId target_id) {
  return score > target_score || (score == target_score && id < target_id);
}

/// Exact rank by full scan; the reference implementation.
size_t ComputeRankScan(const ObjectStore& store, const Query& query,
                       ObjectId target);

}  // namespace yask

#endif  // YASK_QUERY_RANKING_H_
