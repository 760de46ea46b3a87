// Experiments E8, E9 (runtime legs), E10 (DESIGN.md): the keyword-adapted
// why-not module.
//
// Regenerates the ICDE'16-style sweeps behind §3.3's keyword-adaption module:
// the basic baseline (AdaptKeywords over ScanOracle,
// bench/baselines/scan_oracle.h: every object scored once per candidate,
// and exact rank by a full scan of those scores per (candidate, missing
// object) pair) against the optimized search (exact rank
// by binary search per (mask, |doc|) group of one rank fan-out's question
// columns, docs/architecture.md), swept over k (E8), |q.doc| and |M| (E9),
// and dataset size N (E10). Every row runs both on the same questions; both
// return the same refined queries.
//
// Expected shape: basic grows as N × candidates × |M|; the optimized
// search builds the columns once per rank fan-out (O(N)) and then spends
// O(groups · log N) per candidate, so it wins at every N by a margin that
// widens with the candidate space. `objects_scored/query` counts the
// objects each reads. Every counter is taken over one untimed pass of the
// row's eight questions. The basic rows in bench/results/pr24 and pr25 timed
// a different baseline (rank counts over keyword-mask groups of the
// question columns, one multiply per object and one text term per group);
// these rows score every object with a Jaccard per candidate, so they are
// not comparable with those.
//
//   bench_kw_adapt --benchmark_filter='N:100000/k:10/M:2'
//   bench_kw_adapt --benchmark_format=json --benchmark_min_time=0.05

#include <benchmark/benchmark.h>

#include "bench/baselines/scan_oracle.h"
#include "bench/bench_util.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

/// One row over `oracle`, which serves SharedDataset(state.range(0)).
void RunAdapt(benchmark::State& state, const WhyNotOracle& oracle) {
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const size_t m_count = static_cast<size_t>(state.range(2));
  const size_t query_keywords = static_cast<size_t>(state.range(3));
  const ObjectStore& store = SharedDataset(state.range(0));

  Rng rng(11);
  std::vector<std::pair<Query, std::vector<ObjectId>>> workload;
  while (workload.size() < 8) {
    Query q = MakeQuery(store, &rng, query_keywords, k);
    std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() == m_count) {
      workload.emplace_back(std::move(q), std::move(missing));
    }
  }

  KeywordAdaptOptions options;
  options.lambda = 0.5;

  size_t i = 0;
  for (auto _ : state) {
    const auto& [q, missing] = workload[i++ % workload.size()];
    auto result = AdaptKeywords(oracle, q, missing, options);
    benchmark::DoNotOptimize(result);
  }
  // Every counter over exactly one pass of the workload, so identical
  // answers give identical counters whatever the iteration count.
  double penalty_sum = 0.0;
  size_t generated = 0;
  size_t pruned = 0;
  size_t resolved = 0;
  size_t scored = 0;
  size_t runs = 0;
  for (const auto& [q, missing] : workload) {
    auto result = AdaptKeywords(oracle, q, missing, options);
    if (!result.ok()) continue;
    penalty_sum += result->penalty.value;
    generated += result->stats.candidates_generated;
    pruned += result->stats.candidates_pruned_floor;
    resolved += result->stats.candidates_resolved;
    scored += result->stats.objects_scored;
    ++runs;
  }
  if (runs > 0) {
    state.counters["avg_penalty"] = benchmark::Counter(penalty_sum / runs);
    state.counters["candidates/query"] =
        benchmark::Counter(static_cast<double>(generated) / runs);
    state.counters["pruned_pct"] = benchmark::Counter(
        generated == 0 ? 0.0 : 100.0 * static_cast<double>(pruned) / generated);
    state.counters["resolved/query"] =
        benchmark::Counter(static_cast<double>(resolved) / runs);
    state.counters["objects_scored/query"] =
        benchmark::Counter(static_cast<double>(scored) / runs);
  }
}

void BM_KwAdapt_Basic(benchmark::State& state) {
  RunAdapt(state, ScanOracle(SharedDataset(state.range(0))));
}
void BM_KwAdapt_MaskColumns(benchmark::State& state) {
  RunAdapt(state, LocalWhyNotOracle(SharedCorpus(state.range(0))));
}

/// The sweep, run by both.
void Rows(benchmark::internal::Benchmark* b) {
  b->ArgNames({"N", "k", "M", "qkw"});
  // E8: vary k at N = 100k.
  for (const int64_t k : {1, 5, 10, 20}) b->Args({100000, k, 1, 3});
  // E9 (runtime legs): vary |q.doc| and |M| at N = 100k, k = 10.
  for (const int64_t qkw : {1, 2, 4, 5}) b->Args({100000, 10, 1, qkw});
  for (const int64_t m : {2, 3}) b->Args({100000, 10, m, 3});
  // E10: scalability in N.
  for (const int64_t n : {10000, 20000, 50000, 200000}) {
    b->Args({n, 10, 1, 3});
  }
}

BENCHMARK(BM_KwAdapt_Basic)->Apply(Rows);
BENCHMARK(BM_KwAdapt_MaskColumns)->Apply(Rows);

}  // namespace
}  // namespace bench
}  // namespace yask

BENCHMARK_MAIN();
