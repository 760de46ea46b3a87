// An index-free brute-force reference for the two why-not refinement models,
// for tests only. It shares no code with src/whynot/shard_primitives, the
// SetR/KcR trees, the score-plane index or the rank oracle: every rank is a
// full scan with Scorer::Score, ties broken by (global) object id, so a bug
// in the shared per-shard kernels cannot hide behind a parity suite that
// compares the engine with itself.
//
//   * TopK — the first k rows by full scan (D6 tie order).
//   * OutrankingCount / Rank / RankOfSet — rank by full scan (D6 tie
//     order), OutrankingCount also over one shard's store.
//   * SolveKeywords — Eqn. (4) by enumerating EVERY non-empty subset of
//     q.doc ∪ M.doc; the winner under the module's documented order (lower
//     penalty, then smaller ∆doc, then lexicographically smaller ids).
//   * AuditPreference — Eqn. (3) by evaluating w0, every crossing weight in
//     (0, 1) of a missing object's score line with another object's line,
//     and the point kStepPastCrossing beyond each crossing on its far side
//     from w0 (the module's documented candidate set).
//
// The Expect* helpers check an engine answer against the reference and are
// what the property suites call for every layout and mode.

#ifndef YASK_TESTS_REFERENCE_WHYNOT_REFERENCE_H_
#define YASK_TESTS_REFERENCE_WHYNOT_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/storage/object_store.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/penalty.h"
#include "src/whynot/preference_adjustment.h"

namespace yask {
namespace reference {

/// The Eqn. (3) module's documented ∆w resolution: crossings are sampled a
/// fixed 1e-7 past their algebraic weight, so the returned penalty is
/// optimal up to a slack below 2e-7.
inline constexpr double kStepPastCrossing = 1e-7;
inline constexpr double kPreferenceSlack = 2e-7;

/// The objects of `store` outranking a target of global id `target` that
/// scores `target_score` under `query` (scores normalised by `dist_norm`):
/// those scoring strictly higher, or equal with a smaller global id. The
/// target itself never counts. `to_global` maps the store's ids to global
/// ids (null: they are global already), so `store` may be one shard and the
/// target absent from it.
inline size_t OutrankingCount(const ObjectStore& store,
                              const std::vector<ObjectId>* to_global,
                              double dist_norm, const Query& query,
                              ObjectId target, double target_score) {
  const Scorer scorer(store, query, dist_norm);
  size_t above = 0;
  for (const SpatialObject& o : store.objects()) {
    const ObjectId gid = to_global != nullptr ? (*to_global)[o.id] : o.id;
    if (gid == target) continue;
    const double s = scorer.Score(o);
    if (s > target_score || (s == target_score && gid < target)) ++above;
  }
  return above;
}

/// Rank of `target` under `query`: 1 + the objects scoring strictly higher,
/// or equal with a smaller id. `store` is the whole (unsharded) dataset, so
/// its ids are the global ids every layout reports.
inline size_t Rank(const ObjectStore& store, const Query& query,
                   ObjectId target) {
  const double dist_norm = store.BoundsDiagonal();
  return 1 + OutrankingCount(store, nullptr, dist_norm, query, target,
                             Scorer(store, query, dist_norm).Score(target));
}

/// The first min(k, |D|) objects under `query`: score descending, ties by
/// ascending id (D6), every score from Scorer::Score. Any weights ≥ 0.
inline TopKResult TopK(const ObjectStore& store, const Query& query) {
  const Scorer scorer(store, query);
  TopKResult rows;
  for (const SpatialObject& o : store.objects()) {
    rows.push_back(ScoredObject{o.id, scorer.Score(o)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const ScoredObject& a, const ScoredObject& b) {
              return a.score != b.score ? a.score > b.score : a.id < b.id;
            });
  rows.resize(std::min<size_t>(query.k, rows.size()));
  return rows;
}

/// R(M, q): the worst rank among the missing objects.
inline size_t RankOfSet(const ObjectStore& store, const Query& query,
                        const std::vector<ObjectId>& missing) {
  size_t rank = 0;
  for (const ObjectId id : missing) {
    rank = std::max(rank, Rank(store, query, id));
  }
  return rank;
}

/// The reference Eqn. (4) answer.
struct KeywordAnswer {
  size_t original_rank = 0;
  bool already_in_result = false;
  KeywordSet doc;
  size_t rank = 0;  // R(M, q') of the winner.
  size_t k = 0;     // max(q.k, rank): the refined k.
  PenaltyBreakdown penalty;
};

/// Solves Definition 3 by enumeration.
inline KeywordAnswer SolveKeywords(const ObjectStore& store,
                                   const Query& query,
                                   const std::vector<ObjectId>& missing,
                                   double lambda) {
  KeywordAnswer out;
  out.original_rank = RankOfSet(store, query, missing);
  out.already_in_result = out.original_rank <= query.k;
  out.doc = query.doc;
  out.rank = out.original_rank;
  if (out.already_in_result) return out;

  KeywordSet universe = query.doc;
  for (const ObjectId id : missing) {
    for (const TermId t : store.Get(id).doc.ids()) universe.Insert(t);
  }
  const std::vector<TermId>& words = universe.ids();
  if (words.size() >= 20) {
    ADD_FAILURE() << "universe of " << words.size()
                  << " keywords is too large to enumerate";
    return out;
  }

  bool have_best = false;
  size_t best_delta = 0;
  for (uint64_t mask = 1; mask < (uint64_t{1} << words.size()); ++mask) {
    KeywordSet doc;
    size_t delta = 0;
    for (size_t i = 0; i < words.size(); ++i) {
      const bool in_candidate = (mask >> i) & 1;
      if (in_candidate) doc.Insert(words[i]);
      if (in_candidate != query.doc.Contains(words[i])) ++delta;
    }
    Query candidate = query;
    candidate.doc = doc;
    const size_t rank = RankOfSet(store, candidate, missing);
    const PenaltyBreakdown penalty = KeywordPenalty(
        lambda, query, delta, words.size(), out.original_rank, rank);
    const bool better =
        !have_best || penalty.value < out.penalty.value ||
        (penalty.value == out.penalty.value &&
         (delta < best_delta ||
          (delta == best_delta && doc.ids() < out.doc.ids())));
    if (better) {
      have_best = true;
      best_delta = delta;
      out.doc = doc;
      out.rank = rank;
      out.penalty = penalty;
    }
  }
  out.k = std::max<size_t>(query.k, out.rank);
  return out;
}

/// Checks an engine Eqn. (4) answer against the reference: the same
/// refined keywords, k, ranks and penalty, bit for bit.
inline void ExpectKeywordAnswer(const RefinedKeywordQuery& got,
                                const KeywordAnswer& want,
                                const std::string& label) {
  EXPECT_EQ(got.already_in_result, want.already_in_result) << label;
  EXPECT_EQ(got.original_rank, want.original_rank) << label;
  if (want.already_in_result) return;
  EXPECT_EQ(got.refined.doc.ids(), want.doc.ids()) << label;
  EXPECT_EQ(got.refined.k, want.k) << label;
  EXPECT_EQ(got.refined_rank, want.rank) << label;
  EXPECT_EQ(got.penalty.value, want.penalty.value) << label;
  EXPECT_EQ(got.penalty.k_term, want.penalty.k_term) << label;
  EXPECT_EQ(got.penalty.mod_term, want.penalty.mod_term) << label;
  EXPECT_EQ(got.penalty.delta_k, want.penalty.delta_k) << label;
  EXPECT_EQ(got.penalty.delta_doc, want.penalty.delta_doc) << label;
}

/// The reference Eqn. (3) optimum over the documented candidate set.
struct PreferenceAudit {
  size_t original_rank = 0;
  bool already_in_result = false;
  double best_penalty = 0.0;
  double best_w = 0.0;
  size_t candidates = 0;  // Weights evaluated.
};

inline PreferenceAudit AuditPreference(const ObjectStore& store,
                                       const Query& query,
                                       const std::vector<ObjectId>& missing,
                                       double lambda) {
  PreferenceAudit out;
  out.original_rank = RankOfSet(store, query, missing);
  out.already_in_result = out.original_rank <= query.k;
  if (out.already_in_result) return out;

  const double w0 = query.w.ws;
  auto evaluate = [&](double w) {
    if (!(w > 0.0 && w < 1.0)) return;
    Query at_w = query;
    at_w.w = Weights::FromWs(w);
    const size_t rank = RankOfSet(store, at_w, missing);
    const double penalty = PreferencePenalty(lambda, query, at_w.w,
                                             out.original_rank, rank)
                               .value;
    ++out.candidates;
    if (penalty < out.best_penalty) {
      out.best_penalty = penalty;
      out.best_w = w;
    }
  };
  out.best_penalty = PreferencePenalty(lambda, query, query.w,
                                       out.original_rank, out.original_rank)
                         .value;
  out.best_w = w0;
  evaluate(w0);

  // Each object's score is the line f(w) = y + w·(x − y) with x = 1 − SDist
  // and y = TSim; a missing object's rank can change only where its line
  // crosses another one.
  const Scorer scorer(store, query);
  std::vector<double> weights;
  for (const ObjectId m : missing) {
    const SpatialObject& mo = store.Get(m);
    const double xm = 1.0 - scorer.SDist(mo.loc);
    const double ym = scorer.TSim(mo.doc);
    for (const SpatialObject& o : store.objects()) {
      if (o.id == m) continue;
      const double xo = 1.0 - scorer.SDist(o.loc);
      const double yo = scorer.TSim(o.doc);
      // Lines with the same x (objects equally far from q) meet at w = 1
      // exactly, outside (0, 1); the gap below can round that weight to
      // 1 − 4e-16, so such pairs are skipped before it is computed.
      if (xm == xo) continue;
      const double slope_gap = (xm - ym) - (xo - yo);
      if (slope_gap == 0.0) continue;  // Parallel (or identical) lines.
      const double w = (yo - ym) / slope_gap;
      if (w > 0.0 && w < 1.0) weights.push_back(w);
    }
  }
  std::sort(weights.begin(), weights.end());
  weights.erase(std::unique(weights.begin(), weights.end()), weights.end());
  for (const double w : weights) {
    evaluate(w);
    evaluate(w <= w0 ? w - kStepPastCrossing : w + kStepPastCrossing);
  }
  return out;
}

/// Checks an engine Eqn. (3) answer against the reference audit: a full
/// scan confirms the returned (w', k'), the reported penalty is Eqn. (3)
/// recomputed from that rank, and no reference candidate beats it by more
/// than the documented slack.
inline void ExpectPreferenceAnswer(const ObjectStore& store,
                                   const Query& query,
                                   const std::vector<ObjectId>& missing,
                                   double lambda,
                                   const RefinedPreferenceQuery& got,
                                   const PreferenceAudit& audit,
                                   const std::string& label) {
  EXPECT_EQ(got.already_in_result, audit.already_in_result) << label;
  EXPECT_EQ(got.original_rank, audit.original_rank) << label;
  if (audit.already_in_result) return;

  const size_t rank = RankOfSet(store, got.refined, missing);
  EXPECT_EQ(got.refined_rank, rank) << label;
  EXPECT_EQ(got.refined.k, std::max<size_t>(query.k, rank)) << label;
  EXPECT_EQ(got.refined.doc.ids(), query.doc.ids()) << label;

  const PenaltyBreakdown recomputed = PreferencePenalty(
      lambda, query, got.refined.w, audit.original_rank, rank);
  EXPECT_EQ(got.penalty.value, recomputed.value) << label;
  EXPECT_EQ(got.penalty.k_term, recomputed.k_term) << label;
  EXPECT_EQ(got.penalty.mod_term, recomputed.mod_term) << label;
  EXPECT_EQ(got.penalty.delta_k, recomputed.delta_k) << label;
  EXPECT_EQ(got.penalty.delta_w, recomputed.delta_w) << label;

  EXPECT_LE(got.penalty.value, audit.best_penalty + kPreferenceSlack)
      << label << ": the reference reaches penalty " << audit.best_penalty
      << " at w=" << audit.best_w << ", the engine returned "
      << got.penalty.value << " at w=" << got.refined.w.ws;
}

}  // namespace reference
}  // namespace yask

#endif  // YASK_TESTS_REFERENCE_WHYNOT_REFERENCE_H_
