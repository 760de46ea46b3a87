// Experiment E11 (DESIGN.md): "Query Refinement Effectiveness" (§4).
//
// The demo shows "how the initial queries are minimally modified to revive
// the missing hotels". This binary replays the two §1 scenarios (Bob's
// coffee-style near-miss; Carol's keyword-mismatch hotel) on the Hong Kong
// hotel dataset across many seeds and reports, per model: revival rate,
// average penalty, average ∆k and modification magnitude, and which model
// the engine recommends. One representative end-to-end answer is also timed.
//
// Expected shape: 100% revival (guaranteed by construction); keyword
// adaption wins keyword-mismatch scenarios, preference adjustment wins
// weight-mismatch scenarios; penalties stay well below the pure-k cost λ.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/why_not_engine.h"

namespace yask {
namespace bench {
namespace {

struct ModelAggregate {
  size_t revived = 0;
  size_t runs = 0;
  double penalty = 0.0;
  double delta_k = 0.0;
  double modification = 0.0;  // delta_w or delta_doc.
  size_t recommended = 0;
};

/// Printed to stderr, so that stdout holds only the benchmark output
/// (--benchmark_format=json stays parseable).
void PrintQualityTable() {
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  const ObjectStore& store = corpus.store();
  WhyNotEngine engine(corpus);

  constexpr size_t kTrials = 60;
  ModelAggregate pref_agg;
  ModelAggregate kw_agg;
  Rng rng(539);
  size_t done = 0;
  while (done < kTrials) {
    Query q = MakeQuery(store, &rng, 2, 3);
    const std::vector<ObjectId> missing =
        PickMissing(store, q, 1, 2 + rng.NextBounded(10));
    if (missing.empty()) continue;
    auto answer = engine.Answer(q, missing);
    if (!answer.ok() || !answer->preference.has_value() ||
        !answer->keyword.has_value() || answer->preference->already_in_result) {
      continue;
    }
    ++done;

    auto check_revived = [&](const Query& refined) {
      std::set<ObjectId> ids;
      for (const ScoredObject& so : engine.TopK(refined)) ids.insert(so.id);
      for (ObjectId m : missing) {
        if (!ids.count(m)) return false;
      }
      return true;
    };
    const RefinedPreferenceQuery& p = *answer->preference;
    pref_agg.runs++;
    pref_agg.revived += check_revived(p.refined);
    pref_agg.penalty += p.penalty.value;
    pref_agg.delta_k += static_cast<double>(p.penalty.delta_k);
    pref_agg.modification += p.penalty.delta_w;
    const RefinedKeywordQuery& kw = *answer->keyword;
    kw_agg.runs++;
    kw_agg.revived += check_revived(kw.refined);
    kw_agg.penalty += kw.penalty.value;
    kw_agg.delta_k += static_cast<double>(kw.penalty.delta_k);
    kw_agg.modification += static_cast<double>(kw.penalty.delta_doc);
    if (answer->recommended == RefinementModel::kPreference) {
      pref_agg.recommended++;
    } else {
      kw_agg.recommended++;
    }
  }

  std::fprintf(stderr,
               "\n=== E11: refinement effectiveness on the Hong Kong hotel "
               "dataset (539 hotels, %zu why-not questions, λ=0.5) ===\n",
               kTrials);
  std::fprintf(stderr, "%-24s | %-9s | %-11s | %-7s | %-10s | %s\n", "model",
               "revived", "avg penalty", "avg dk", "avg mod", "recommended");
  std::fprintf(stderr,
               "-------------------------+-----------+-------------+---------+"
               "------------+------------\n");
  auto print_row = [&](const char* name, const ModelAggregate& a,
                       const char* mod_unit) {
    std::fprintf(stderr,
                 "%-24s | %4zu/%-4zu | %11.4f | %7.2f | %7.3f %s | %zu\n",
                 name, a.revived, a.runs, a.penalty / a.runs,
                 a.delta_k / a.runs, a.modification / a.runs, mod_unit,
                 a.recommended);
  };
  print_row("preference adjustment", pref_agg, "dw");
  print_row("keyword adaption", kw_agg, "dd");
  std::fprintf(stderr,
               "(expected: both 100%% revival; penalties << 0.5 = pure-k "
               "cost)\n\n");
}

void BM_WhyNotAnswer_HotelDataset(benchmark::State& state) {
  static const Corpus* corpus =
      new Corpus(CorpusBuilder().Build(GenerateHotelDataset()));
  WhyNotEngine engine(*corpus);
  Rng rng(13);
  Query q = MakeQuery(corpus->store(), &rng, 2, 3);
  std::vector<ObjectId> missing = PickMissing(corpus->store(), q, 1, 7);
  for (auto _ : state) {
    auto answer = engine.Answer(q, missing);
    benchmark::DoNotOptimize(answer);
  }
}
BENCHMARK(BM_WhyNotAnswer_HotelDataset);

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  yask::bench::PrintQualityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
