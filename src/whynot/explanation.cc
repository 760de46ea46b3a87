#include "src/whynot/explanation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/query/ranking.h"
#include "src/query/scoring.h"
#include "src/query/topk_engine.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

const char* MissingReasonToString(MissingReason reason) {
  switch (reason) {
    case MissingReason::kInResult:
      return "in-result";
    case MissingReason::kTooFar:
      return "too-far";
    case MissingReason::kKeywordMismatch:
      return "keyword-mismatch";
    case MissingReason::kBoth:
      return "too-far-and-keyword-mismatch";
    case MissingReason::kNarrowlyOutranked:
      return "narrowly-outranked";
  }
  return "unknown";
}

const char* RefinementRecommendationToString(RefinementRecommendation r) {
  switch (r) {
    case RefinementRecommendation::kNone:
      return "none";
    case RefinementRecommendation::kPreferenceAdjustment:
      return "preference-adjustment";
    case RefinementRecommendation::kKeywordAdaption:
      return "keyword-adaption";
    case RefinementRecommendation::kEither:
      return "either";
  }
  return "unknown";
}

namespace {

std::string DescribeObject(const WhyNotOracle& oracle, ObjectId global_id) {
  const SpatialObject& o = oracle.Object(global_id);
  if (!o.name.empty()) return o.name;
  return "object #" + std::to_string(global_id);
}

std::string BuildText(const WhyNotOracle& oracle,
                      const MissingObjectExplanation& e, uint32_t k) {
  char buf[512];
  const std::string who = DescribeObject(oracle, e.id);
  switch (e.reason) {
    case MissingReason::kInResult:
      std::snprintf(buf, sizeof(buf),
                    "%s is already in the top-%u result (rank %zu).",
                    who.c_str(), k, e.rank);
      break;
    case MissingReason::kTooFar:
      std::snprintf(
          buf, sizeof(buf),
          "%s ranks %zu: it matches the keywords well (similarity %.2f vs "
          "%.2f for the k-th result) but is too far from the query point "
          "(normalised distance %.3f vs %.3f). Lowering the spatial weight "
          "or enlarging k can revive it.",
          who.c_str(), e.rank, e.tsim, e.kth_tsim, e.sdist, e.kth_sdist);
      break;
    case MissingReason::kKeywordMismatch:
      std::snprintf(
          buf, sizeof(buf),
          "%s ranks %zu: it is close to the query point (normalised distance "
          "%.3f vs %.3f for the k-th result) but matches the query keywords "
          "poorly (similarity %.2f vs %.2f). Adapting the query keywords can "
          "revive it.",
          who.c_str(), e.rank, e.sdist, e.kth_sdist, e.tsim, e.kth_tsim);
      break;
    case MissingReason::kBoth:
      std::snprintf(
          buf, sizeof(buf),
          "%s ranks %zu: it is both farther (%.3f vs %.3f) and a weaker "
          "keyword match (%.2f vs %.2f) than the k-th result. Keyword "
          "adaption combined with a larger k is the most promising fix.",
          who.c_str(), e.rank, e.sdist, e.kth_sdist, e.tsim, e.kth_tsim);
      break;
    case MissingReason::kNarrowlyOutranked:
      std::snprintf(
          buf, sizeof(buf),
          "%s ranks %zu, just outside the top-%u: its score %.4f trails the "
          "k-th result's %.4f only narrowly. A small preference adjustment "
          "or enlarging k suffices.",
          who.c_str(), e.rank, k, e.score, e.kth_score);
      break;
  }
  return buf;
}

}  // namespace

Result<std::vector<MissingObjectExplanation>> ExplainMissing(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing) {
  if (Status s = query.Validate(); !s.ok()) return s;
  if (missing.empty()) {
    return Status::InvalidArgument("missing object set must be non-empty");
  }
  for (ObjectId id : missing) {
    if (id >= oracle.size()) {
      return Status::NotFound("missing object id " + std::to_string(id) +
                              " is not in the database");
    }
  }

  // R(o, q) of every missing object from one rank fan-out.
  std::vector<OracleTargetSpec> specs;
  for (const ObjectId id : missing) specs.push_back({&query, id});
  KeywordAdaptStats unused;
  const std::unique_ptr<RankProbeBatch> batch =
      oracle.ProbeRankBatch(specs, &unused);

  const double dist_norm = oracle.dist_norm();
  const TopKResult topk = oracle.TopK(query);
  // The current k-th result frames the comparison. Validate() requires
  // k >= 1 and the missing ids exist, so only shards that failed to answer
  // leave the result empty.
  if (topk.empty()) return Status::Unavailable("no shard answered the top-k");
  const ScoredObject kth = topk.back();
  const ObjectScoreParts kth_parts =
      ScorePartsOf(query, dist_norm, oracle.Object(kth.id));
  const double kth_sdist = kth_parts.sdist;
  const double kth_tsim = kth_parts.tsim;

  std::vector<MissingObjectExplanation> out;
  out.reserve(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    const ObjectId id = missing[i];
    MissingObjectExplanation e;
    e.id = id;
    const ObjectScoreParts parts =
        ScorePartsOf(query, dist_norm, oracle.Object(id));
    e.score = parts.score;
    e.sdist = parts.sdist;
    e.tsim = parts.tsim;
    e.kth_score = kth.score;
    e.kth_sdist = kth_sdist;
    e.kth_tsim = kth_tsim;
    e.rank = batch->lower(i);

    const bool spatial_deficit = e.sdist > kth_sdist;
    const bool textual_deficit = e.tsim < kth_tsim;
    if (e.rank <= query.k) {
      e.reason = MissingReason::kInResult;
      e.recommendation = RefinementRecommendation::kNone;
    } else if (e.rank <= static_cast<size_t>(query.k) * 2 &&
               !(spatial_deficit && textual_deficit)) {
      e.reason = MissingReason::kNarrowlyOutranked;
      e.recommendation = RefinementRecommendation::kEither;
    } else if (spatial_deficit && textual_deficit) {
      e.reason = MissingReason::kBoth;
      e.recommendation = RefinementRecommendation::kKeywordAdaption;
    } else if (spatial_deficit) {
      e.reason = MissingReason::kTooFar;
      e.recommendation = RefinementRecommendation::kPreferenceAdjustment;
    } else {
      e.reason = MissingReason::kKeywordMismatch;
      e.recommendation = RefinementRecommendation::kKeywordAdaption;
    }
    e.text = BuildText(oracle, e, query.k);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace yask
