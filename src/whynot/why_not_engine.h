// Copyright (c) 2026 The YASK reproduction authors.
// The why-not question answering engine (§3.1, Fig. 1): the facade that the
// server (and library users) talk to. It owns nothing but an oracle; it runs
// over a WhyNotOracle — rank-of-object, outscoring counts, Eqn. (3) sample
// points and Eqn. (4) candidate bounds over whatever corpus layout serves
// them — and orchestrates the three modules:
//   * explanation generator,
//   * preference-adjusted refinement,
//   * keyword-adapted refinement,
// returning the explanations, both refined queries, and — as the demo lets
// users "apply the two refinement functions simultaneously to find better
// solutions" — a recommendation of the cheaper model.
//
// Construct it over a Corpus (one unsharded replica) or a ShardedCorpus (the
// scale-out layout: every oracle call fans out over the shard pool and
// merges exactly, so answers are bit-identical to the unsharded engine's —
// see docs/architecture.md, "Distributed why-not").

#ifndef YASK_WHYNOT_WHY_NOT_ENGINE_H_
#define YASK_WHYNOT_WHY_NOT_ENGINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/corpus/corpus.h"
#include "src/query/query.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"
#include "src/whynot/explanation.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

class ShardedCorpus;  // src/corpus/sharded_corpus.h

/// Which refinement models to run. The engine always runs their optimized
/// modes; the paper's basic baselines stay reachable through
/// AdjustPreference and AdaptKeywords.
struct WhyNotOptions {
  double lambda = 0.5;
  bool run_preference_adjustment = true;
  bool run_keyword_adaption = true;
};

/// Which model the engine recommends after comparing penalties.
enum class RefinementModel {
  kNone,        // Objects were not missing.
  kPreference,  // Eqn. (3) refinement is cheaper.
  kKeyword,     // Eqn. (4) refinement is cheaper.
};

/// Everything the why-not engine returns for one question.
struct WhyNotAnswer {
  std::vector<MissingObjectExplanation> explanations;
  std::optional<RefinedPreferenceQuery> preference;
  std::optional<RefinedKeywordQuery> keyword;
  RefinementModel recommended = RefinementModel::kNone;
  /// Result of the recommended refined query (what the demo map displays).
  TopKResult refined_result;
};

/// A two-step refinement applying both models in sequence (§3.2: "Users can
/// apply the two refinement functions simultaneously to find better
/// solutions"). Each step's penalty is measured against that step's input
/// query, per the respective Eqn.; `total_penalty` is their sum.
struct CombinedRefinement {
  Query refined;  // Final query: possibly new w, doc and k.
  PenaltyBreakdown preference_penalty;
  PenaltyBreakdown keyword_penalty;
  double total_penalty = 0.0;
  bool preference_first = true;  // Which order won.
  size_t original_rank = 0;      // R(M, q) under the initial query.
  size_t refined_rank = 0;       // R(M, final refined query).
  /// Result of `refined`, answered by the open question.
  TopKResult refined_result;
};

/// The engine facade. The corpus behind the oracle must outlive the engine.
class WhyNotEngine {
 public:
  /// Full-featured engine over one unsharded corpus replica.
  explicit WhyNotEngine(const Corpus& corpus);
  /// Distributed engine: oracle calls fan out over the shard pool; answers
  /// are bit-identical to the unsharded engine over the same objects.
  explicit WhyNotEngine(const ShardedCorpus& corpus);
  /// Over any oracle implementation (tests, custom layouts).
  explicit WhyNotEngine(std::unique_ptr<const WhyNotOracle> oracle);

  /// Runs the initial top-k query (the demo's query mode, Fig. 3).
  TopKResult TopK(const Query& query, TopKStats* stats = nullptr) const {
    return oracle_->TopK(query, stats);
  }

  /// Answers a why-not question for the given missing objects (Fig. 4/5).
  Result<WhyNotAnswer> Answer(const Query& query,
                              const std::vector<ObjectId>& missing,
                              const WhyNotOptions& options = {}) const;

  /// Applies both refinement models in sequence, trying both orders
  /// (preference→keyword and keyword→preference) and returning the order
  /// with the lower total penalty. The final query revives all of M (the
  /// last step guarantees it for its input query, whose result already
  /// contains what the first step revived or better).
  Result<CombinedRefinement> CombineRefinements(
      const Query& query, const std::vector<ObjectId>& missing,
      const WhyNotOptions& options = {}) const;

  const WhyNotOracle& oracle() const { return *oracle_; }

 private:
  std::unique_ptr<const WhyNotOracle> oracle_;
};

}  // namespace yask

#endif  // YASK_WHYNOT_WHY_NOT_ENGINE_H_
