// Ablation benchmarks for the design decisions DESIGN.md §4 calls out.
//
// D1 — SetR-tree bound tightening. The paper's SetR-tree node summary holds
// only the keyword union and intersection sets; this reproduction also
// tracks min/max document lengths (8 bytes/node) to tighten the Jaccard
// denominator when the intersection set is empty. The ablation runs the
// top-k engine and the rank computation with both bound flavours and prints
// the node-level tightness difference.
//
// Expected shape: the length-tightened bound strictly dominates; its win is
// largest high in the tree (where intersections are empty) and for popular
// query keywords.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace yask {
namespace bench {
namespace {

constexpr size_t kN = 100000;

void PrintBoundTightnessTable() {
  const ObjectStore& store = SharedDataset(kN);
  const SetRTree& tree = SharedSetR(kN);
  Rng rng(61);

  double sum_sets_only = 0.0;
  double sum_tightened = 0.0;
  size_t nodes = 0;
  size_t strictly_tighter = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Query q = MakeQuery(store, &rng, 3, 10);
    Scorer scorer(store, q);
    std::vector<SetRTree::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const auto& node = tree.node(stack.back());
      stack.pop_back();
      const double loose =
          UpperBoundTSim(node.summary, q.doc, SetRBoundVariant::kSetsOnly);
      const double tight = UpperBoundTSim(node.summary, q.doc,
                                          SetRBoundVariant::kLengthTightened);
      sum_sets_only += loose;
      sum_tightened += tight;
      if (tight < loose) ++strictly_tighter;
      ++nodes;
      if (!node.is_leaf) {
        for (const auto& e : node.entries) stack.push_back(e.id);
      }
    }
  }
  std::printf("\n=== D1 ablation: SetR-tree TSim upper bound (N=%zu, 10 "
              "queries x all nodes) ===\n", kN);
  std::printf("  mean ub, sets-only (paper)      : %.4f\n",
              sum_sets_only / nodes);
  std::printf("  mean ub, length-tightened (ours): %.4f\n",
              sum_tightened / nodes);
  std::printf("  nodes strictly tightened        : %zu / %zu (%.1f%%)\n\n",
              strictly_tighter, nodes, 100.0 * strictly_tighter / nodes);
}

void BM_TopK_Ablation(benchmark::State& state, SetRBoundVariant variant) {
  const ObjectStore& store = SharedDataset(kN);
  const SetRTree& tree = SharedSetR(kN);
  SetRTopKEngine engine(store, tree);
  engine.set_bound_variant(variant);
  Rng rng(67);
  TopKStats stats;
  size_t queries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Query q = MakeQuery(store, &rng, 3, 10);
    state.ResumeTiming();
    TopKResult r = engine.Query(q, &stats);
    benchmark::DoNotOptimize(r);
    ++queries;
  }
  state.counters["objects_scored/query"] =
      benchmark::Counter(static_cast<double>(stats.objects_scored) / queries);
  state.counters["nodes_popped/query"] =
      benchmark::Counter(static_cast<double>(stats.nodes_popped) / queries);
}
void BM_TopK_SetsOnlyBound(benchmark::State& state) {
  BM_TopK_Ablation(state, SetRBoundVariant::kSetsOnly);
}
void BM_TopK_LengthTightenedBound(benchmark::State& state) {
  BM_TopK_Ablation(state, SetRBoundVariant::kLengthTightened);
}
BENCHMARK(BM_TopK_SetsOnlyBound);
BENCHMARK(BM_TopK_LengthTightenedBound);

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  yask::bench::PrintBoundTightnessTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
