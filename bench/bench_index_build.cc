// Experiment E3 (DESIGN.md): index construction cost and footprint.
//
// Regenerates the index substrate comparison: STR bulk load of the plain
// R-tree and the SetR-tree (the only way either is built), with the
// per-index memory footprint as counters.
//
// Expected shape: the SetR-tree costs more memory (keyword sets at every
// node) than the plain R-tree.

#include <benchmark/benchmark.h>

#include "bench/baselines/inverted_index.h"
#include "bench/bench_util.h"

namespace yask {
namespace bench {
namespace {

template <typename Tree>
void BuildBulk(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  size_t mem = 0;
  for (auto _ : state) {
    Tree tree(&store);
    tree.BulkLoad();
    benchmark::DoNotOptimize(tree.root());
    mem = tree.MemoryUsageBytes();
  }
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(mem));
  state.counters["bytes/object"] =
      benchmark::Counter(static_cast<double>(mem) / n);
}

void BM_Build_RTree_Bulk(benchmark::State& state) { BuildBulk<RTree>(state); }
void BM_Build_SetR_Bulk(benchmark::State& state) { BuildBulk<SetRTree>(state); }

BENCHMARK(BM_Build_RTree_Bulk)->ArgName("N")->Arg(10000)->Arg(100000);
BENCHMARK(BM_Build_SetR_Bulk)->ArgName("N")->Arg(10000)->Arg(100000);

void BM_Build_InvertedIndex(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  size_t mem = 0;
  for (auto _ : state) {
    InvertedIndex index(store);
    benchmark::DoNotOptimize(index.Postings(0).data());
    mem = index.MemoryUsageBytes();
  }
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(mem));
}
BENCHMARK(BM_Build_InvertedIndex)->ArgName("N")->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace bench
}  // namespace yask

BENCHMARK_MAIN();
