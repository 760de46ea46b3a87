// Experiment E2 (DESIGN.md): the spatial keyword top-k engine.
//
// Regenerates the engine comparison underlying §3.3 / ref [4]: the SetR-tree
// best-first engine versus the inverted-index + R-tree hybrid baseline versus
// a full linear scan, swept over dataset size N and result size k, next to
// the served kernel (BM_TopK_Served: keyword postings plus a spatial k-NN
// over the plain R-tree). The baselines (the SetR-tree, the hybrid, the
// IR-tree) live in bench/baselines/.
//
// Expected shape (paper): the index engines beat the scan by orders of
// magnitude at large N; the SetR-tree engine touches a small fraction of the
// corpus (see the objects_scored counter).
//
// The work counters come from one untimed pass over the first 32 queries of
// the seeded stream, so they repeat whatever the timed iteration count; the
// pass also gates each engine's rows against TopKScan (non-zero exit on a
// difference).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>

#include "bench/baselines/inverted_index.h"
#include "bench/baselines/ir_tree.h"
#include "bench/baselines/setr_tree.h"
#include "bench/bench_util.h"
#include "src/whynot/shard_primitives.h"

namespace yask {
namespace bench {
namespace {

constexpr size_t kQueryKeywords = 3;

const InvertedIndex& SharedInverted(size_t n) {
  static std::map<size_t, std::unique_ptr<InvertedIndex>>* cache =
      new std::map<size_t, std::unique_ptr<InvertedIndex>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, std::make_unique<InvertedIndex>(SharedDataset(n)))
             .first;
  }
  return *it->second;
}

/// One untimed pass over the stream's first queries: `run(q, &stats)` must
/// answer TopKScan's rows bit for bit, or the run exits non-zero, and the
/// per-query counters are this pass's work. `run` returns TopKResult.
template <typename Run>
void CountOneFixedPass(benchmark::State& state, const char* name,
                       const ObjectStore& store, uint32_t k, Run run) {
  constexpr int kChecked = 32;
  Rng rng(1);
  TopKStats stats;
  for (int i = 0; i < kChecked; ++i) {
    const Query q = MakeQuery(store, &rng, kQueryKeywords, k);
    if (run(q, &stats) != TopKScan(store, q)) {
      std::fprintf(stderr, "%s: query %d at N=%zu k=%u differs from "
                   "TopKScan\n", name, i, store.size(), k);
      std::exit(1);
    }
  }
  state.counters["objects_scored/query"] =
      benchmark::Counter(static_cast<double>(stats.objects_scored) / kChecked);
  state.counters["nodes_popped/query"] =
      benchmark::Counter(static_cast<double>(stats.nodes_popped) / kChecked);
}

void BM_TopK_SetRTree(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const ObjectStore& store = SharedDataset(n);
  const SetRTopKEngine engine(store, SharedBaselineTree<SetRTree>(n));
  CountOneFixedPass(state, "BM_TopK_SetRTree", store, k,
                    [&](const Query& q, TopKStats* stats) {
                      return engine.Query(q, stats);
                    });
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    const Query q = MakeQuery(store, &rng, kQueryKeywords, k);
    state.ResumeTiming();
    TopKResult r = engine.Query(q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TopK_SetRTree)
    ->ArgNames({"N", "k"})
    ->Args({10000, 10})
    ->Args({50000, 10})
    ->Args({100000, 10})
    ->Args({200000, 10})
    ->Args({100000, 1})
    ->Args({100000, 20})
    ->Args({100000, 50});

/// The served /query kernel over one whole dataset as a single shard,
/// built once per N.
const LocalOracleShard& SharedServedShard(size_t n) {
  static std::map<size_t, std::unique_ptr<LocalOracleShard>>* cache =
      new std::map<size_t, std::unique_ptr<LocalOracleShard>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    const ObjectStore& store = SharedDataset(n);
    it = cache
             ->emplace(n, std::make_unique<LocalOracleShard>(
                              OracleShardView{&store, nullptr, &SharedRTree(n)},
                              store.BoundsDiagonal()))
             .first;
  }
  return *it->second;
}

void BM_TopK_Served(benchmark::State& state) {
  // What a /query runs on each shard: holders of a query term scored from
  // the shard's keyword postings, the rest found by a k-NN over the
  // R-tree's MBRs (LocalOracleShard::TopK). The holder pass is linear in the
  // holders, so objects_scored grows with N.
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const ObjectStore& store = SharedDataset(n);
  const LocalOracleShard& shard = SharedServedShard(n);
  constexpr double kKeepAll = -std::numeric_limits<double>::infinity();
  CountOneFixedPass(state, "BM_TopK_Served", store, k,
                    [&](const Query& q, TopKStats* stats) {
                      Result<TopKResult> rows = shard.TopK(q, kKeepAll, stats);
                      return rows.ok() ? std::move(rows).value() : TopKResult();
                    });
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    const Query q = MakeQuery(store, &rng, kQueryKeywords, k);
    state.ResumeTiming();
    Result<TopKResult> r = shard.TopK(q, kKeepAll, nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TopK_Served)
    ->ArgNames({"N", "k"})
    ->Args({10000, 10})
    ->Args({50000, 10})
    ->Args({100000, 10})
    ->Args({200000, 10})
    ->Args({100000, 1})
    ->Args({100000, 20})
    ->Args({100000, 50});

void BM_TopK_InvertedHybrid(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const ObjectStore& store = SharedDataset(n);
  const InvertedIndex& inverted = SharedInverted(n);
  const RTree& rtree = SharedRTree(n);
  InvertedTopKEngine engine(store, inverted, rtree);
  CountOneFixedPass(state, "BM_TopK_InvertedHybrid", store, k,
                    [&](const Query& q, TopKStats* stats) {
                      return engine.Query(q, stats);
                    });
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    const Query q = MakeQuery(store, &rng, kQueryKeywords, k);
    state.ResumeTiming();
    TopKResult r = engine.Query(q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TopK_InvertedHybrid)
    ->ArgNames({"N", "k"})
    ->Args({10000, 10})
    ->Args({50000, 10})
    ->Args({100000, 10})
    ->Args({200000, 10});

void BM_TopK_IrTreeCosine(benchmark::State& state) {
  // The ref [4] index family under the cosine text model (see ir_tree.h):
  // not directly comparable to the Jaccard engines' scores, but it shows the
  // pruning power the IR-tree regains once its per-term bound applies.
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const ObjectStore& store = SharedDataset(n);
  static std::map<size_t, std::unique_ptr<IdfTable>>* idf_cache =
      new std::map<size_t, std::unique_ptr<IdfTable>>();
  static std::map<size_t, std::unique_ptr<IrTree>>* tree_cache =
      new std::map<size_t, std::unique_ptr<IrTree>>();
  if (!idf_cache->count(n)) {
    idf_cache->emplace(n, std::make_unique<IdfTable>(store));
    auto tree = std::make_unique<IrTree>(
        &store, RTreeOptions{}, IrSummary::WithIdf(idf_cache->at(n).get()));
    tree->BulkLoad();
    tree_cache->emplace(n, std::move(tree));
  }
  IrTopKEngine engine(store, *idf_cache->at(n), *tree_cache->at(n));
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    const Query q = MakeQuery(store, &rng, kQueryKeywords, k);
    state.ResumeTiming();
    TopKResult r = engine.Query(q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TopK_IrTreeCosine)
    ->ArgNames({"N", "k"})
    ->Args({10000, 10})
    ->Args({100000, 10});

void BM_TopK_Scan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const ObjectStore& store = SharedDataset(n);
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    const Query q = MakeQuery(store, &rng, kQueryKeywords, k);
    state.ResumeTiming();
    TopKResult r = TopKScan(store, q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TopK_Scan)
    ->ArgNames({"N", "k"})
    ->Args({10000, 10})
    ->Args({50000, 10})
    ->Args({100000, 10})
    ->Args({200000, 10});

}  // namespace
}  // namespace bench
}  // namespace yask

BENCHMARK_MAIN();
