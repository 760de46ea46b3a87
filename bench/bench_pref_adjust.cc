// Experiments E4, E5, E7 (DESIGN.md): the preference-adjusted why-not module.
//
// Regenerates the ICDE'15-style sweeps behind §3.3's preference-adjustment
// module: optimized (AdjustPreference over the question columns' TSim
// column searches) versus the basic baseline (the same search over
// ScanOracle, bench/baselines/scan_oracle.h: crossing enumeration + a full
// rescan per (weight, missing object) pair), swept over k (E4), the number
// of missing objects |M| (E5) and the dataset size N (E7). Both run the
// same doubling sweep schedule and return the same refinement.
//
// Expected shape (paper): optimized beats basic by 1-3 orders of magnitude
// and the gap widens with N; runtimes grow mildly with k and |M|. Each
// PrefAdjust row reports its counters over one pass of its eight
// questions: avg_penalty, crossings/query, rescans/query (plane score
// evaluations in units of N: for the basic row one full rescan per counted
// (weight, anchor) pair, for the columns the evaluations of their binary
// searches and crossing ranges) and fanouts/query (count fan-outs).
//
// The kernel row times the question columns (TSim
// columns, binary search per column) alone: BM_QuestionColumns_CountAbove
// answers one tie-aware count per iteration, so its time is ns per
// (weight, anchor) pair, over the weights the sweep evaluates for MakeQuery
// queries. The columns' build is bench_explanation's BM_QuestionBuild.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/baselines/scan_oracle.h"
#include "bench/bench_util.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

/// One row over `oracle`, which serves SharedDataset(state.range(0)).
void RunAdjust(benchmark::State& state, const WhyNotOracle& oracle) {
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const size_t m_count = static_cast<size_t>(state.range(2));
  const ObjectStore& store = SharedDataset(state.range(0));

  // Pre-generate a deterministic workload of (query, missing) pairs.
  Rng rng(7);
  std::vector<std::pair<Query, std::vector<ObjectId>>> workload;
  while (workload.size() < 8) {
    Query q = MakeQuery(store, &rng, 3, k);
    std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() == m_count) {
      workload.emplace_back(std::move(q), std::move(missing));
    }
  }

  PreferenceAdjustOptions options;
  options.lambda = 0.5;

  size_t i = 0;
  for (auto _ : state) {
    const auto& [q, missing] = workload[i++ % workload.size()];
    auto result = AdjustPreference(oracle, q, missing, options);
    benchmark::DoNotOptimize(result);
  }
  // Every counter over exactly one pass of the workload, so identical
  // answers give identical counters whatever the iteration count.
  double penalty_sum = 0.0;
  size_t crossings = 0;
  size_t runs = 0;
  size_t evaluations = 0;
  size_t fanouts = 0;
  for (const auto& [q, missing] : workload) {
    auto result = AdjustPreference(oracle, q, missing, options);
    if (!result.ok()) continue;
    penalty_sum += result->penalty.value;
    crossings += result->stats.crossings_found;
    ++runs;
    evaluations += result->stats.index_nodes_visited;
    fanouts += result->stats.sweep_fanouts;
  }
  if (runs > 0) {
    state.counters["avg_penalty"] = benchmark::Counter(penalty_sum / runs);
    state.counters["crossings/query"] =
        benchmark::Counter(static_cast<double>(crossings) / runs);
  }
  state.counters["rescans/query"] = benchmark::Counter(
      static_cast<double>(evaluations) / store.size() / workload.size());
  state.counters["fanouts/query"] =
      benchmark::Counter(static_cast<double>(fanouts) / workload.size());
}

void BM_PrefAdjust_Optimized(benchmark::State& state) {
  RunAdjust(state, LocalWhyNotOracle(SharedDataset(state.range(0)),
                                     /*rtree=*/nullptr));
}
void BM_PrefAdjust_Basic(benchmark::State& state) {
  RunAdjust(state, ScanOracle(SharedDataset(state.range(0))));
}

/// 8 MakeQuery queries (3 keywords, k = 10), each query's first missing
/// object (PickMissing) and its keyword universe q.doc ∪ m.doc.
struct PlaneWorkload {
  const ObjectStore* store = nullptr;
  std::vector<Query> queries;
  std::vector<ObjectId> missing;
  std::vector<KeywordSet> universes;
};

PlaneWorkload MakePlaneWorkload(size_t n) {
  PlaneWorkload out;
  out.store = &SharedDataset(n);
  Rng rng(7);
  while (out.queries.size() < 8) {
    Query q = MakeQuery(*out.store, &rng, 3, 10);
    const std::vector<ObjectId> missing = PickMissing(*out.store, q, 1);
    if (missing.empty()) continue;
    out.universes.push_back(
        KeywordSet::Union(q.doc, out.store->Get(missing.front()).doc));
    out.queries.push_back(std::move(q));
    out.missing.push_back(missing.front());
  }
  return out;
}

PlanePoint PointOf(const ObjectStore& store, const Query& q, ObjectId id) {
  const ObjectScoreParts parts =
      ScorePartsOf(q, store.BoundsDiagonal(), store.Get(id));
  return PlanePoint{1.0 - parts.sdist, parts.tsim, id};
}

void BM_QuestionColumns_CountAbove(benchmark::State& state) {
  const PlaneWorkload workload =
      MakePlaneWorkload(static_cast<size_t>(state.range(0)));
  const ObjectStore& store = *workload.store;
  const OracleShardView view{&store, nullptr};
  const KeywordPostings postings(store);
  // Sweep-shaped pairs: per query, the missing object's anchor at w0 and at
  // the 64 crossings of its line nearest to w0, each with the 1e-7 step
  // past it on the far side from w0.
  struct Pair {
    size_t plane;
    std::vector<double> w;  // One weight and one anchor: a batch of one.
    std::vector<PlanePoint> anchor;
  };
  std::vector<std::unique_ptr<QuestionColumns>> planes;
  std::vector<Pair> pairs;
  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    const Query& q = workload.queries[qi];
    planes.push_back(std::make_unique<QuestionColumns>(
        view, postings, store.BoundsDiagonal(), q, workload.universes[qi]));
    const PlanePoint anchor = PointOf(store, q, workload.missing[qi]);
    const double w0 = q.w.ws;
    std::vector<double> crossings;
    for (ObjectId id = 0; id < store.size(); ++id) {
      const PlanePoint p = PointOf(store, q, id);
      const double slope = (p.x - anchor.x) - (p.y - anchor.y);
      if (p.id == anchor.id || slope == 0.0) continue;
      const double wx = (anchor.y - p.y) / slope;
      if (wx > 1e-7 && wx < 1.0 - 1e-7) crossings.push_back(wx);
    }
    std::sort(crossings.begin(), crossings.end(), [&](double a, double b) {
      return std::abs(a - w0) < std::abs(b - w0);
    });
    crossings.resize(std::min<size_t>(crossings.size(), 64));
    pairs.push_back(Pair{qi, {w0}, {anchor}});
    for (double wx : crossings) {
      pairs.push_back(Pair{qi, {wx}, {anchor}});
      pairs.push_back(Pair{qi, {wx <= w0 ? wx - 1e-7 : wx + 1e-7}, {anchor}});
    }
  }
  size_t i = 0;
  std::vector<size_t> count(1);
  size_t evals = 0;
  for (auto _ : state) {
    const Pair& pair = pairs[i++ % pairs.size()];
    (void)planes[pair.plane]->CountAboveBatch(pair.w, pair.anchor, &count,
                                              &evals);
    benchmark::DoNotOptimize(count[0]);
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}

BENCHMARK(BM_QuestionColumns_CountAbove)->ArgName("N")->Arg(50000);

// E4: vary k at N = 100k (optimized) / 20k (basic: quadratic, kept small).
BENCHMARK(BM_PrefAdjust_Optimized)
    ->ArgNames({"N", "k", "M"})
    ->Args({100000, 1, 1})
    ->Args({100000, 5, 1})
    ->Args({100000, 10, 1})
    ->Args({100000, 20, 1})
    ->Args({100000, 50, 1});
BENCHMARK(BM_PrefAdjust_Basic)
    ->ArgNames({"N", "k", "M"})
    ->Args({20000, 1, 1})
    ->Args({20000, 10, 1})
    ->Args({20000, 50, 1});

// E5: vary |M| at N = 100k, k = 10.
BENCHMARK(BM_PrefAdjust_Optimized)
    ->ArgNames({"N", "k", "M"})
    ->Args({100000, 10, 2})
    ->Args({100000, 10, 3})
    ->Args({100000, 10, 4});

// E7: vary N at k = 10, |M| = 1 (head-to-head at equal N where feasible).
BENCHMARK(BM_PrefAdjust_Optimized)
    ->ArgNames({"N", "k", "M"})
    ->Args({10000, 10, 1})
    ->Args({20000, 10, 1})
    ->Args({50000, 10, 1})
    ->Args({200000, 10, 1});
BENCHMARK(BM_PrefAdjust_Basic)
    ->ArgNames({"N", "k", "M"})
    ->Args({10000, 10, 1});

}  // namespace
}  // namespace bench
}  // namespace yask

BENCHMARK_MAIN();
