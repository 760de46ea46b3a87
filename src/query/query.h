// Copyright (c) 2026 The YASK reproduction authors.
// Query types for spatial keyword top-k queries (§2.1, Definition 1).

#ifndef YASK_QUERY_QUERY_H_
#define YASK_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/geometry.h"
#include "src/common/keyword_set.h"
#include "src/common/status.h"
#include "src/storage/object.h"

namespace yask {

/// The preference vector w = <ws, wt> between spatial proximity and textual
/// similarity (Eqn. (1)); the paper requires 0 < ws, wt < 1 and ws + wt = 1.
struct Weights {
  double ws = 0.5;
  double wt = 0.5;

  /// Weights from the spatial component only (wt = 1 - ws).
  static Weights FromWs(double ws) { return Weights{ws, 1.0 - ws}; }

  /// L2 distance between weight vectors; the ∆w of penalty Eqn. (3).
  double DistanceTo(const Weights& other) const;

  /// The ∆w normaliser of Eqn. (3): sqrt(1 + ws^2 + wt^2).
  double PenaltyNormalizer() const;

  bool operator==(const Weights& other) const = default;
};

/// Largest k a client may ask for. POST /query answers 400 above it (a
/// /whynot asks about a query /query accepted), and so do the shard top-k
/// routes unless k is also within the shard's object count. A refined k′
/// the why-not engine computes is not held to it: the coordinator sends a
/// shard at most its object count, and a shard allocates min(k, its size)
/// rows. 10,000 rows are about 1.5 MB of /query JSON.
inline constexpr uint32_t kMaxK = 10000;

/// Most entries a /whynot `missing` list may hold (ids or names, duplicates
/// counted); /whynot answers 400 above it before looking any name up. It is
/// the most distinct ids the Eqn. (3) sweep already takes — one sweep
/// event's grid of 3 weights × |M| must fit in kMaxCountBatchPairs (2^16)
/// pairs — so no list the engine answers is refused.
inline constexpr size_t kMaxMissing = (size_t{1} << 16) / 3;

/// A spatial keyword top-k query q = (q.loc, q.doc, k, w).
struct Query {
  Point loc;
  KeywordSet doc;
  uint32_t k = 10;
  Weights w;

  /// Validates the paper's constraints: finite location, k >= 1,
  /// 0 < ws,wt < 1, ws + wt = 1 (within fp tolerance), non-empty keyword set.
  Status Validate() const;

  std::string ToString(const Vocabulary& vocab) const;
};

/// One result row: an object and its score under the issuing query.
struct ScoredObject {
  ObjectId id = kInvalidObject;
  double score = 0.0;

  /// Result order: score descending, id ascending (deterministic ties, D6).
  friend bool operator<(const ScoredObject& a, const ScoredObject& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
  bool operator==(const ScoredObject& other) const = default;
};

/// A top-k result: at most k objects in result order.
using TopKResult = std::vector<ScoredObject>;

}  // namespace yask

#endif  // YASK_QUERY_QUERY_H_
