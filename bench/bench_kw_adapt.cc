// Experiments E8, E9 (runtime legs), E10 (DESIGN.md): the keyword-adapted
// why-not module.
//
// Regenerates the ICDE'16-style sweeps behind §3.3's keyword-adaption module:
// the basic baseline (exact rank by full scan per candidate, over basic
// question columns) against the optimized mode (exact rank by binary search
// per (mask, |doc|) group of the same columns, docs/architecture.md), swept
// over k (E8), |q.doc| and |M| (E9), and dataset size N (E10). Every row
// runs both modes on the same questions; both return the same refined
// queries.
//
// Expected shape: both build the columns once per rank fan-out (O(N));
// basic then grows as N × candidates × |M|, the optimized mode as
// O(groups · log N) per candidate, so it wins at every N by a margin that
// widens with the candidate space. `objects_scored/query` counts the
// objects each mode reads.
//
//   bench_kw_adapt --benchmark_filter='N:100000/k:10/M:2'
//   bench_kw_adapt --benchmark_format=json --benchmark_min_time=0.05

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

void RunAdapt(benchmark::State& state, KwAdaptMode mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const size_t m_count = static_cast<size_t>(state.range(2));
  const size_t query_keywords = static_cast<size_t>(state.range(3));
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(SharedCorpus(n));

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
  options.mode = mode;

  size_t i = 0;
  double penalty_sum = 0.0;
  size_t generated = 0;
  size_t pruned = 0;
  size_t resolved = 0;
  size_t scored = 0;
  size_t runs = 0;
  for (auto _ : state) {
    const auto& [q, missing] = workload[i++ % workload.size()];
    auto result = AdaptKeywords(oracle, q, missing, options);
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      penalty_sum += result->penalty.value;
      generated += result->stats.candidates_generated;
      pruned += result->stats.candidates_pruned_floor;
      resolved += result->stats.candidates_resolved;
      scored += result->stats.objects_scored;
      ++runs;
    }
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
  RunAdapt(state, KwAdaptMode::kBasic);
}
void BM_KwAdapt_MaskColumns(benchmark::State& state) {
  RunAdapt(state, KwAdaptMode::kOptimized);
}

/// The sweep, run by both modes.
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
