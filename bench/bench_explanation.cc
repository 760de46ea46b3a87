// Experiment E12 (DESIGN.md): the explanation generator (§3.3).
//
// Measures the per-missing-object explanation cost and prints the
// distribution of verdicts over random missing objects — the demo's
// explanation panel content at scale. Outside an open question, explain
// ranks M through a one-call question (one pass over the store builds its
// columns) and runs one top-k for the k-th result.
//
// Expected shape: explanation cost is one oracle Rank (the same one-call
// question, BM_RankComputation_Question) plus one top-k; far/rare objects
// are classified too-far / keyword-mismatch, near-misses as
// narrowly-outranked.
//
// BM_QuestionBuild times the layer under all of it: one shard's
// QuestionColumns build for servebench-shaped questions (3 keywords, one
// missing object just past the top-10, universe q.doc ∪ M.doc), reporting
// objects placed per second and the keyword postings' bytes per object.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench/baselines/scan_oracle.h"
#include "bench/bench_util.h"
#include "src/whynot/explanation.h"
#include "src/whynot/shard_primitives.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

/// Printed to stderr, so that stdout holds only the benchmark output
/// (--benchmark_format=json stays parseable).
void PrintVerdictDistribution() {
  const size_t n = 100000;
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(store, &SharedSetR(n));
  Rng rng(41);
  std::map<MissingReason, size_t> verdicts;
  size_t trials = 0;
  while (trials < 200) {
    const Query q = MakeQuery(store, &rng, 3, 10);
    const ObjectId target =
        static_cast<ObjectId>(rng.NextBounded(store.size()));
    auto result = ExplainMissing(oracle, q, {target});
    if (!result.ok()) continue;
    ++verdicts[result->at(0).reason];
    ++trials;
  }
  std::fprintf(
      stderr,
      "\n=== E12: explanation verdicts over %zu random (query, object) pairs "
      "(N=%zu, k=10) ===\n",
      trials, n);
  for (const auto& [reason, count] : verdicts) {
    std::fprintf(stderr, "  %-28s %5zu  (%.1f%%)\n",
                 MissingReasonToString(reason), count, 100.0 * count / trials);
  }
  std::fprintf(stderr, "\n");
}

void BM_ExplainMissing(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(store, &SharedSetR(n));
  Rng rng(43);
  const Query q = MakeQuery(store, &rng, 3, 10);
  const std::vector<ObjectId> missing = PickMissing(store, q, 1, 10);
  for (auto _ : state) {
    auto result = ExplainMissing(oracle, q, missing);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExplainMissing)->ArgName("N")->Arg(10000)->Arg(100000);

void BM_RankComputation_Question(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(store, &SharedSetR(n));
  Rng rng(47);
  const Query q = MakeQuery(store, &rng, 3, 10);
  const ObjectId target = PickMissing(store, q, 1, 10)[0];
  for (auto _ : state) {
    size_t rank = oracle.Rank(q, target);
    benchmark::DoNotOptimize(rank);
  }
}
BENCHMARK(BM_RankComputation_Question)->ArgName("N")->Arg(10000)->Arg(100000);

void BM_QuestionBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  const OracleShardView view{&store, nullptr};
  const KeywordPostings postings(store);
  struct Question {
    Query query;
    KeywordSet universe;
  };
  std::vector<Question> questions;
  Rng rng(53);
  while (questions.size() < 64) {
    const Query q = MakeQuery(store, &rng, 3, 10);
    const std::vector<ObjectId> missing = PickMissing(store, q, 1, 4);
    if (missing.empty()) continue;
    questions.push_back(
        Question{q, KeywordSet::Union(q.doc, store.Get(missing[0]).doc)});
  }
  size_t i = 0;
  for (auto _ : state) {
    const Question& question = questions[i++ % questions.size()];
    const QuestionColumns columns(view, postings, store.BoundsDiagonal(),
                                  question.query, question.universe);
    benchmark::DoNotOptimize(columns.shape().groups);
  }
  state.counters["objects_per_s"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["postings_bytes_per_object"] =
      static_cast<double>(postings.bytes()) / static_cast<double>(n);
}
BENCHMARK(BM_QuestionBuild)->ArgName("N")->Arg(50000)->Arg(100000);

void BM_RankComputation_Scan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  Rng rng(47);
  const Query q = MakeQuery(store, &rng, 3, 10);
  const ObjectId target = PickMissing(store, q, 1, 10)[0];
  for (auto _ : state) {
    size_t rank = ComputeRankScan(store, q, target);
    benchmark::DoNotOptimize(rank);
  }
}
BENCHMARK(BM_RankComputation_Scan)->ArgName("N")->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  yask::bench::PrintVerdictDistribution();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
