#include "src/whynot/keyword_adaption.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "src/whynot/shard_primitives.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

namespace {

/// Candidates per rank fan-out (before the kMaxProbeSpecs / |M| cap).
constexpr size_t kCandidatesPerChunk = 128;

/// Visits all size-`r` index combinations of {0..n-1} in lexicographic
/// order, invoking `fn(indices)` until it returns false. Returns false when
/// `fn` stopped the visit.
template <typename Fn>
bool ForEachCombination(size_t n, size_t r, Fn fn) {
  if (r > n) return true;
  if (r == 0) return fn(std::vector<size_t>());
  std::vector<size_t> idx(r);
  for (size_t i = 0; i < r; ++i) idx[i] = i;
  while (true) {
    if (!fn(idx)) return false;
    // Advance to the next combination.
    size_t i = r;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - r) break;
      if (i == 0) return true;
    }
    if (idx[i] == i + n - r) return true;
    ++idx[i];
    for (size_t k = i + 1; k < r; ++k) idx[k] = idx[k - 1] + 1;
  }
}

}  // namespace

void ForEachCandidateAtDistance(
    const KeywordSet& query_doc, const KeywordSet& insertable,
    size_t distance, const std::function<bool(KeywordSet)>& fn) {
  const std::vector<TermId>& del_pool = query_doc.ids();
  const std::vector<TermId>& ins_pool = insertable.ids();
  for (size_t d = 0; d <= std::min(distance, del_pool.size()); ++d) {
    const size_t ins = distance - d;
    if (ins > ins_pool.size()) continue;
    const bool go_on = ForEachCombination(
        del_pool.size(), d, [&](const std::vector<size_t>& di) {
          KeywordSet base = query_doc;
          for (size_t i : di) base.Erase(del_pool[i]);
          return ForEachCombination(
              ins_pool.size(), ins, [&](const std::vector<size_t>& ii) {
                KeywordSet cand = base;
                for (size_t i : ii) cand.Insert(ins_pool[i]);
                return cand.empty() || fn(std::move(cand));
              });
        });
    if (!go_on) return;
  }
}

Result<RefinedKeywordQuery> AdaptKeywords(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing,
    const KeywordAdaptOptions& options) {
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
  for (ObjectId id : m_ids) {
    if (id >= oracle.size()) {
      return Status::NotFound("missing object id " + std::to_string(id) +
                              " is not in the database");
    }
  }
  const size_t m = m_ids.size();
  const bool columns = options.mode == KwAdaptMode::kOptimized;
  // The work bounds are the columns'; the basic scan has none.
  if (columns && m > kMaxProbeSpecs) {
    return Status::InvalidArgument(
        "keyword adaption ranks at most " + std::to_string(kMaxProbeSpecs) +
        " missing objects, got " + std::to_string(m));
  }

  RefinedKeywordQuery out;
  out.refined = query;
  KeywordAdaptStats& stats = out.stats;
  const double lambda = options.lambda;

  // M.doc = union of the missing objects' documents; the normaliser of ∆doc.
  KeywordSet m_doc;
  for (ObjectId id : m_ids) {
    m_doc = KeywordSet::Union(m_doc, oracle.Object(id).doc);
  }
  const KeywordSet universe = KeywordSet::Union(query.doc, m_doc);
  const KeywordSet insertable = KeywordSet::Difference(m_doc, query.doc);
  const size_t doc_norm = universe.size();
  if (columns && doc_norm > kMaxKeywordUniverse) {
    return Status::InvalidArgument(
        "q.doc and the missing objects' documents hold " +
        std::to_string(doc_norm) + " distinct keywords; keyword adaption "
        "allows at most " + std::to_string(kMaxKeywordUniverse));
  }
  // Candidates per rank fan-out. Every spec's query is `query` with another
  // doc: one location, so one question answers the whole batch.
  const size_t chunk_size =
      columns ? std::min(kCandidatesPerChunk, kMaxProbeSpecs / m)
              : kCandidatesPerChunk;

  // R(M, q') of each keyword set: the exact tie-aware rank of the worst
  // missing object, for every (set, missing object) pair in ONE fan-out.
  auto ranks_of = [&](const std::vector<KeywordSet>& docs) {
    std::vector<Query> queries(docs.size(), query);
    std::vector<OracleTargetSpec> specs;
    specs.reserve(docs.size() * m);
    for (size_t c = 0; c < docs.size(); ++c) {
      queries[c].doc = docs[c];
      for (ObjectId id : m_ids) {
        specs.push_back(OracleTargetSpec{&queries[c], id});
      }
    }
    std::vector<size_t> ranks(docs.size(), 0);
    ++stats.probe_fanouts;
    if (columns) {
      const std::unique_ptr<RankProbeBatch> batch =
          oracle.ProbeRankBatch(specs, &stats);
      for (size_t i = 0; i < specs.size(); ++i) {
        ranks[i / m] = std::max(ranks[i / m], batch->lower(i));
      }
    } else {
      const std::vector<size_t> counts =
          oracle.OutscoringCountBatch(specs, &stats);
      for (size_t i = 0; i < specs.size(); ++i) {
        ranks[i / m] = std::max(ranks[i / m], counts[i] + 1);
      }
    }
    return ranks;
  };

  const size_t e_cap = query.doc.size() + insertable.size();
  auto floor_of = [&](size_t delta_doc) {
    return doc_norm == 0
               ? 0.0
               : (1.0 - lambda) * static_cast<double>(delta_doc) / doc_norm;
  };

  // --- R(M, q) under the original query. With the columns, it rides the
  // fan-out of the first ∆doc = 1 chunk whenever that chunk is expected to
  // be evaluated: the level-1 cut compares (1−λ)/|U| with the seed penalty
  // λ, which does not depend on R(M, q). The ranks are kept and used only if
  // the search later asks for exactly that chunk, so the guess never changes
  // the answer. ---
  std::vector<KeywordSet> prefetched;
  std::vector<size_t> prefetched_ranks;
  size_t r0 = 0;
  if (columns && e_cap >= 1 && floor_of(1) < lambda &&
      (chunk_size + 1) * m <= kMaxProbeSpecs) {
    std::vector<KeywordSet> first = {query.doc};
    ForEachCandidateAtDistance(query.doc, insertable, 1, [&](KeywordSet cand) {
      first.push_back(std::move(cand));
      return first.size() <= chunk_size;
    });
    prefetched_ranks = ranks_of(first);
    r0 = prefetched_ranks.front();
    prefetched_ranks.erase(prefetched_ranks.begin());
    prefetched.assign(first.begin() + 1, first.end());
  } else {
    r0 = ranks_of({query.doc}).front();
  }
  out.original_rank = r0;
  if (r0 <= query.k) {
    out.refined_rank = r0;
    out.already_in_result = true;
    return out;
  }

  // --- Seed: the pure-k refinement (doc unchanged, k' = r0, cost λ). ---
  struct Best {
    KeywordSet doc;
    size_t rank;
    PenaltyBreakdown penalty;
    size_t delta_doc;
  };
  Best best{query.doc, r0, KeywordPenalty(lambda, query, 0, doc_norm, r0, r0),
            0};

  // Deterministic preference among equal penalties: smaller ∆doc, then
  // lexicographically smaller keyword id vector.
  auto offer_best = [&](const KeywordSet& doc, size_t rank, size_t delta_doc) {
    const PenaltyBreakdown pen =
        KeywordPenalty(lambda, query, delta_doc, doc_norm, r0, rank);
    const bool better =
        pen.value < best.penalty.value ||
        (pen.value == best.penalty.value &&
         (delta_doc < best.delta_doc ||
          (delta_doc == best.delta_doc && doc.ids() < best.doc.ids())));
    if (better) best = Best{doc, rank, pen, delta_doc};
  };

  // --- One chunk: one rank fan-out for all its candidates, each offered to
  // the running best with its exact rank. ---
  auto evaluate_chunk = [&](const std::vector<KeywordSet>& chunk, size_t e) {
    std::vector<size_t> ranks;
    if (!prefetched.empty() && chunk == prefetched) {
      ranks = std::move(prefetched_ranks);
    } else {
      ranks = ranks_of(chunk);
    }
    prefetched.clear();
    for (size_t c = 0; c < chunk.size(); ++c) {
      ++stats.candidates_resolved;
      offer_best(chunk[c], ranks[c], e);
    }
  };

  // --- Enumerate candidates by increasing ∆doc, one chunk held at a
  // time. ---
  std::vector<KeywordSet> chunk;
  for (size_t e = 1; e <= e_cap && !stats.truncated; ++e) {
    // Whole-level cut. >= is safe HERE (unlike the per-candidate floor cut
    // below): at a level's start `best` came from a smaller ∆doc, so a
    // level-e candidate tying it loses the ∆doc tie-break anyway.
    if (floor_of(e) >= best.penalty.value) break;
    chunk.clear();
    ForEachCandidateAtDistance(query.doc, insertable, e, [&](KeywordSet cand) {
      if (stats.candidates_generated >= kMaxKeywordCandidates) {
        stats.truncated = true;
        return false;
      }
      ++stats.candidates_generated;
      // STRICT, like every other cut: a candidate whose floor merely TIES
      // the best may still win offer_best's deterministic tie order
      // (smaller ∆doc, then smaller keyword ids), so it must be evaluated.
      // A >= cut here would let evaluation order decide exact ties — two
      // chunk sizes would return different (equally optimal) refinements.
      if (floor_of(e) > best.penalty.value) {
        ++stats.candidates_pruned_floor;
        return true;
      }
      chunk.push_back(std::move(cand));
      if (chunk.size() >= chunk_size) {
        evaluate_chunk(chunk, e);
        chunk.clear();
      }
      return true;
    });
    if (!chunk.empty()) evaluate_chunk(chunk, e);
  }

  out.refined.doc = best.doc;
  out.refined.k =
      static_cast<uint32_t>(std::max<size_t>(query.k, best.rank));
  out.refined_rank = best.rank;
  out.penalty = best.penalty;
  return out;
}

}  // namespace yask
