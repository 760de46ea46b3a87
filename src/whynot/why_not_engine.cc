#include "src/whynot/why_not_engine.h"

#include <string>
#include <thread>

#include "src/common/trace.h"
#include "src/corpus/sharded_corpus.h"

namespace yask {
namespace {

// Stage-span details: the work a stage did, so a slow trace explains itself.
// Formatted only when the span records.
void DescribeStage(ScopedSpan* span, const Result<RefinedPreferenceQuery>& r) {
  if (!span->active() || !r.ok()) return;
  const PreferenceAdjustStats& s = r->stats;
  span->set_detail("crossings=" + std::to_string(s.crossings_found) +
                   " candidates=" + std::to_string(s.candidates_evaluated) +
                   " sweep_fanouts=" + std::to_string(s.sweep_fanouts) +
                   " plane_evals=" + std::to_string(s.index_nodes_visited));
}

void DescribeStage(ScopedSpan* span, const Result<RefinedKeywordQuery>& r) {
  if (!span->active() || !r.ok()) return;
  const KeywordAdaptStats& s = r->stats;
  span->set_detail("generated=" + std::to_string(s.candidates_generated) +
                   " pruned=" + std::to_string(s.candidates_pruned_floor) +
                   " resolved=" + std::to_string(s.candidates_resolved) +
                   " rank_fanouts=" + std::to_string(s.probe_fanouts) +
                   " objects_scored=" + std::to_string(s.objects_scored));
}

}  // namespace

WhyNotEngine::WhyNotEngine(const Corpus& corpus)
    : oracle_(std::make_unique<LocalWhyNotOracle>(corpus)) {}

WhyNotEngine::WhyNotEngine(const ShardedCorpus& corpus)
    : oracle_(std::make_unique<LocalWhyNotOracle>(corpus)) {}

WhyNotEngine::WhyNotEngine(std::unique_ptr<const WhyNotOracle> oracle)
    : oracle_(std::move(oracle)) {}

Result<WhyNotAnswer> WhyNotEngine::Answer(
    const Query& query, const std::vector<ObjectId>& missing,
    const WhyNotOptions& options) const {
  WhyNotAnswer answer;
  // One question for every stage: each shard builds its columns once.
  const std::unique_ptr<const WhyNotOracle> question =
      oracle_->OpenQuestion(query, missing);
  const WhyNotOracle& oracle = question != nullptr ? *question : *oracle_;

  // Stage spans are recorded in EVERY corpus layout (local, sharded,
  // remote), so a trace's skeleton is layout-independent; remote layouts
  // additionally hang per-replica rpc spans beneath them.
  {
    ScopedSpan span("whynot/explain");
    auto explanations = ExplainMissing(oracle, query, missing);
    if (!explanations.ok()) return explanations.status();
    answer.explanations = std::move(explanations).value();
  }

  PreferenceAdjustOptions po;
  po.lambda = options.lambda;
  KeywordAdaptOptions ko;
  ko.lambda = options.lambda;

  if (options.run_preference_adjustment && options.run_keyword_adaption) {
    // Overlap the Eqn. (3) weight sweep with the Eqn. (4) probe fan-outs.
    // The two refinements share only the question, whose per-shard states
    // take overlapping calls (a remote oracle's session channels, health and
    // meters are thread-safe), and both searches are internally
    // level-synchronous, so the keyword search runs on a helper thread while
    // the preference sweep runs here —
    // a why-not question costs max(pref, kw) instead of pref + kw of wire
    // waiting, with the same result bytes. Both finish before anything is
    // read; errors surface preference-first like the one-model path.
    std::optional<Result<RefinedKeywordQuery>> kw;
    const TraceContext trace_ctx = CurrentTraceContext();
    std::thread kw_thread([&] {
      TraceContextScope scope(trace_ctx);
      ScopedSpan span("whynot/keyword");
      kw.emplace(AdaptKeywords(oracle, query, missing, ko));
      DescribeStage(&span, *kw);
    });
    Result<RefinedPreferenceQuery> pref = [&] {
      ScopedSpan span("whynot/preference");
      auto refined = AdjustPreference(oracle, query, missing, po);
      DescribeStage(&span, refined);
      return refined;
    }();
    kw_thread.join();
    if (!pref.ok()) return pref.status();
    answer.preference = std::move(pref).value();
    if (!kw->ok()) return kw->status();
    answer.keyword = std::move(*kw).value();
  } else if (options.run_preference_adjustment) {
    ScopedSpan span("whynot/preference");
    auto refined = AdjustPreference(oracle, query, missing, po);
    DescribeStage(&span, refined);
    if (!refined.ok()) return refined.status();
    answer.preference = std::move(refined).value();
  } else if (options.run_keyword_adaption) {
    ScopedSpan span("whynot/keyword");
    auto refined = AdaptKeywords(oracle, query, missing, ko);
    DescribeStage(&span, refined);
    if (!refined.ok()) return refined.status();
    answer.keyword = std::move(refined).value();
  }

  // Recommend the cheaper model; ties prefer preference adjustment (it does
  // not alter what the user asked for, only how it is weighted).
  const bool have_pref = answer.preference.has_value();
  const bool have_kw = answer.keyword.has_value();
  if (have_pref && answer.preference->already_in_result) {
    answer.recommended = RefinementModel::kNone;
  } else if (have_kw && answer.keyword->already_in_result) {
    answer.recommended = RefinementModel::kNone;
  } else if (have_pref && have_kw) {
    answer.recommended =
        answer.preference->penalty.value <= answer.keyword->penalty.value
            ? RefinementModel::kPreference
            : RefinementModel::kKeyword;
  } else if (have_pref) {
    answer.recommended = RefinementModel::kPreference;
  } else if (have_kw) {
    answer.recommended = RefinementModel::kKeyword;
  }

  ScopedSpan span("whynot/refined_topk");
  switch (answer.recommended) {
    case RefinementModel::kPreference:
      answer.refined_result = oracle.TopK(answer.preference->refined);
      break;
    case RefinementModel::kKeyword:
      answer.refined_result = oracle.TopK(answer.keyword->refined);
      break;
    case RefinementModel::kNone:
      answer.refined_result = oracle.TopK(query);
      break;
  }
  return answer;
}

Result<CombinedRefinement> WhyNotEngine::CombineRefinements(
    const Query& query, const std::vector<ObjectId>& missing,
    const WhyNotOptions& options) const {
  PreferenceAdjustOptions po;
  po.lambda = options.lambda;
  KeywordAdaptOptions ko;
  ko.lambda = options.lambda;
  // One question for both orders. Its ranks cover the keyword step at any
  // weights; the preference step after keyword adaption sweeps another
  // doc's plane, which opens its own.
  const std::unique_ptr<const WhyNotOracle> question =
      oracle_->OpenQuestion(query, missing);
  const WhyNotOracle& oracle = question != nullptr ? *question : *oracle_;

  // Order A: preference first, keyword adaption on the adjusted query.
  auto run_pref_first = [&]() -> Result<CombinedRefinement> {
    auto pref = [&] {
      ScopedSpan span("whynot/preference", "order=pref-first");
      return AdjustPreference(oracle, query, missing, po);
    }();
    if (!pref.ok()) return pref.status();
    auto kw = [&] {
      ScopedSpan span("whynot/keyword", "order=pref-first");
      return AdaptKeywords(oracle, pref->refined, missing, ko);
    }();
    if (!kw.ok()) return kw.status();
    CombinedRefinement out;
    out.refined = kw->refined;
    out.preference_penalty = pref->penalty;
    out.keyword_penalty = kw->penalty;
    out.total_penalty = pref->penalty.value + kw->penalty.value;
    out.preference_first = true;
    out.original_rank = pref->original_rank;
    out.refined_rank = kw->refined_rank;
    return out;
  };
  // Order B: keyword adaption first, preference adjustment after.
  auto run_kw_first = [&]() -> Result<CombinedRefinement> {
    auto kw = [&] {
      ScopedSpan span("whynot/keyword", "order=kw-first");
      return AdaptKeywords(oracle, query, missing, ko);
    }();
    if (!kw.ok()) return kw.status();
    auto pref = [&] {
      ScopedSpan span("whynot/preference", "order=kw-first");
      return AdjustPreference(oracle, kw->refined, missing, po);
    }();
    if (!pref.ok()) return pref.status();
    CombinedRefinement out;
    out.refined = pref->refined;
    out.preference_penalty = pref->penalty;
    out.keyword_penalty = kw->penalty;
    out.total_penalty = pref->penalty.value + kw->penalty.value;
    out.preference_first = false;
    out.original_rank = kw->original_rank;
    out.refined_rank = pref->refined_rank;
    return out;
  };

  auto a = run_pref_first();
  if (!a.ok()) return a.status();
  auto b = run_kw_first();
  if (!b.ok()) return b.status();
  // Lower total penalty wins; ties prefer the preference-first order (it
  // alters the user's stated keywords later, i.e. only if it pays).
  CombinedRefinement& best = b->total_penalty < a->total_penalty ? *b : *a;
  // The refined doc lies within q.doc ∪ M.doc, so the question covers it.
  ScopedSpan span("whynot/refined_topk");
  best.refined_result = oracle.TopK(best.refined);
  return std::move(best);
}

}  // namespace yask
