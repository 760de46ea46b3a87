// Experiment E12: distributed why-not over the rank-oracle seam.
//
// Partitions the shared benchmark dataset into 1/2/4 spatial-grid shards
// and answers the same
// randomized why-not workload through WhyNotEngine over each ShardedCorpus.
// Every sharded answer is cross-checked field-by-field against the
// unsharded WhyNotEngine — explanations, both refined queries, the
// recommendation and the refined result order must be bit-identical, so a
// fast-but-wrong merge fails the run (non-zero exit) rather than entering
// the perf trajectory.
//
// Each configuration is timed as wall time of WhyNotEngine::Answer on this
// host as-is (parallel over the corpus pool when the host has cores, inline
// when not); speedup_4_shards_vs_1 is the 1-shard over the 4-shard wall.
//
//   $ ./bench_whynot_sharded [--n=100000] [--questions=16]
//                            [--json=BENCH_whynot_sharded.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/whynot/why_not_engine.h"

namespace yask {
namespace bench {
namespace {

constexpr int kReps = 2;  // Best-of for each timed workload pass.

struct Question {
  Query query;
  std::vector<ObjectId> missing;
};

struct ShardRun {
  size_t shards = 0;
  double wall_ms = 0.0;  // Best-of-kReps wall for the whole workload.
  bool results_match = true;
};

std::vector<Question> MakeWorkload(const ObjectStore& store, size_t count) {
  Rng rng(kDatasetSeed + 2);
  std::vector<Question> questions;
  while (questions.size() < count) {
    Question q;
    q.query = MakeQuery(store, &rng, /*num_keywords=*/3, /*k=*/10);
    q.missing = PickMissing(store, q.query, 1 + questions.size() % 2,
                            /*offset=*/4);
    if (q.missing.empty()) continue;
    questions.push_back(std::move(q));
  }
  return questions;
}

bool SamePenalty(const PenaltyBreakdown& a, const PenaltyBreakdown& b) {
  return a.value == b.value && a.k_term == b.k_term &&
         a.mod_term == b.mod_term && a.delta_k == b.delta_k &&
         a.delta_w == b.delta_w && a.delta_doc == b.delta_doc;
}

/// Strict equality of everything /whynot exposes: any divergence is a merge
/// bug, not noise.
bool AnswersEqual(const WhyNotAnswer& a, const WhyNotAnswer& b) {
  if (a.explanations.size() != b.explanations.size()) return false;
  for (size_t i = 0; i < a.explanations.size(); ++i) {
    const MissingObjectExplanation& x = a.explanations[i];
    const MissingObjectExplanation& y = b.explanations[i];
    if (x.id != y.id || x.rank != y.rank || x.score != y.score ||
        x.sdist != y.sdist || x.tsim != y.tsim || x.kth_score != y.kth_score ||
        x.reason != y.reason || x.recommendation != y.recommendation ||
        x.text != y.text) {
      return false;
    }
  }
  if (a.preference.has_value() != b.preference.has_value()) return false;
  if (a.preference.has_value()) {
    const RefinedPreferenceQuery& x = *a.preference;
    const RefinedPreferenceQuery& y = *b.preference;
    if (x.refined.w.ws != y.refined.w.ws || x.refined.k != y.refined.k ||
        x.original_rank != y.original_rank ||
        x.refined_rank != y.refined_rank ||
        x.already_in_result != y.already_in_result ||
        !SamePenalty(x.penalty, y.penalty)) {
      return false;
    }
  }
  if (a.keyword.has_value() != b.keyword.has_value()) return false;
  if (a.keyword.has_value()) {
    const RefinedKeywordQuery& x = *a.keyword;
    const RefinedKeywordQuery& y = *b.keyword;
    if (x.refined.doc.ids() != y.refined.doc.ids() ||
        x.refined.k != y.refined.k || x.original_rank != y.original_rank ||
        x.refined_rank != y.refined_rank ||
        x.already_in_result != y.already_in_result ||
        !SamePenalty(x.penalty, y.penalty)) {
      return false;
    }
  }
  if (a.recommended != b.recommended) return false;
  if (a.refined_result.size() != b.refined_result.size()) return false;
  for (size_t i = 0; i < a.refined_result.size(); ++i) {
    if (!(a.refined_result[i] == b.refined_result[i])) return false;
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  using namespace yask;
  using namespace yask::bench;

  size_t n = 100000;
  size_t num_questions = 16;
  std::string json_path = "BENCH_whynot_sharded.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<size_t>(std::strtoull(arg.c_str() + 4, nullptr, 10));
    } else if (arg.rfind("--questions=", 0) == 0) {
      num_questions =
          static_cast<size_t>(std::strtoull(arg.c_str() + 12, nullptr, 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n=N] [--questions=Q] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // The unsharded baseline engine and the reference answers.
  Timer setup_timer;
  const Corpus baseline =
      CorpusBuilder().Build(GenerateDataset(SharedDatasetSpec(n)));
  const ObjectStore& store = baseline.store();
  const WhyNotEngine reference(baseline);
  const std::vector<Question> workload = MakeWorkload(store, num_questions);
  std::printf("built unsharded corpus (n=%zu) in %.0f ms\n", n,
              setup_timer.ElapsedMillis());

  std::vector<WhyNotAnswer> expected;
  expected.reserve(workload.size());
  double baseline_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    expected.clear();
    Timer timer;
    for (const Question& q : workload) {
      auto answer = reference.Answer(q.query, q.missing);
      if (!answer.ok()) {
        std::fprintf(stderr, "reference why-not failed: %s\n",
                     answer.status().ToString().c_str());
        return 1;
      }
      expected.push_back(std::move(answer).value());
    }
    baseline_ms = std::min(baseline_ms, timer.ElapsedMillis());
  }

  std::printf(
      "n=%zu objects, %zu why-not questions (k=10, 3 keywords, |M|=1..2), "
      "host cores=%u\n",
      n, workload.size(), std::thread::hardware_concurrency());
  std::printf("%-16s %11s %9s  %s\n", "engine", "wall ms/q", "wall q/s",
              "exact");
  std::printf("%-16s %11.2f %9.1f  %s\n", "unsharded",
              baseline_ms / workload.size(),
              1000.0 * workload.size() / baseline_ms, "ref");

  std::vector<ShardRun> runs;
  for (const size_t shards : {1, 2, 4}) {
    Timer partition_timer;
    const ShardedCorpus sharded = ShardedCorpus::Partition(
        store, GridShardRouter::Fit(store, static_cast<uint32_t>(shards)));
    const double partition_ms = partition_timer.ElapsedMillis();

    const WhyNotEngine engine(sharded);

    ShardRun run;
    run.shards = shards;
    // Warm-up pass doubling as the correctness gate: every question must
    // reproduce the unsharded answer bit-for-bit.
    for (size_t i = 0; i < workload.size(); ++i) {
      auto answer = engine.Answer(workload[i].query, workload[i].missing);
      if (!answer.ok() || !AnswersEqual(*answer, expected[i])) {
        run.results_match = false;
      }
    }

    // Wall time of the fan-out engine on this host.
    run.wall_ms = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      for (const Question& q : workload) {
        auto answer = engine.Answer(q.query, q.missing);
        if (!answer.ok()) run.results_match = false;
      }
      run.wall_ms = std::min(run.wall_ms, timer.ElapsedMillis());
    }
    runs.push_back(run);

    std::printf("%-16s %11.2f %9.1f  %s  (partition %.0f ms)\n",
                ("sharded/" + std::to_string(shards)).c_str(),
                run.wall_ms / workload.size(),
                1000.0 * workload.size() / run.wall_ms,
                run.results_match ? "yes" : "NO — BUG", partition_ms);
  }

  const ShardRun* one = nullptr;
  const ShardRun* four = nullptr;
  for (const ShardRun& r : runs) {
    if (r.shards == 1) one = &r;
    if (r.shards == 4) four = &r;
  }
  const double wall_speedup =
      (one != nullptr && four != nullptr) ? one->wall_ms / four->wall_ms : 0.0;
  std::printf(
      "\n4-shard vs 1-shard refinement throughput: %.2fx wall on this "
      "%u-core host\n",
      wall_speedup, std::thread::hardware_concurrency());

  bool all_match = true;
  for (const ShardRun& r : runs) all_match = all_match && r.results_match;

  // --- Observability overhead gate: the same workload with the full
  // service-side instrumentation active (a TraceRecorder installed, every
  // span harvested into yask_stage_ms) vs. bare. Each question is timed
  // back-to-back in both arms and the per-question best-of-reps is kept:
  // min filters scheduler spikes PER QUESTION, so the two floors compare
  // the arms rather than the machine's mood. Must stay under 2%. ---
  constexpr int kOverheadReps = 5;
  constexpr double kMaxOverheadPct = 2.0;
  MetricsRegistry overhead_metrics;
  std::vector<double> best_bare(workload.size(), 1e300);
  std::vector<double> best_traced(workload.size(), 1e300);
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    for (size_t i = 0; i < workload.size(); ++i) {
      const Question& q = workload[i];
      {
        Timer timer;
        auto answer = reference.Answer(q.query, q.missing);
        if (!answer.ok()) all_match = false;
        best_bare[i] = std::min(best_bare[i], timer.ElapsedMillis());
      }
      {
        Timer timer;
        TraceRecorder recorder(MintTraceId());
        {
          TraceContextScope scope(TraceContext{&recorder, 0});
          ScopedSpan span("POST /whynot");
          auto answer = reference.Answer(q.query, q.missing);
          if (!answer.ok()) all_match = false;
        }
        for (const TraceSpan& s : recorder.TakeSpans()) {
          overhead_metrics.GetHistogram("yask_stage_ms", {{"stage", s.name}})
              ->Observe(s.duration_ms);
        }
        best_traced[i] = std::min(best_traced[i], timer.ElapsedMillis());
      }
    }
  }
  double bare_ms = 0.0;
  double traced_ms = 0.0;
  for (size_t i = 0; i < workload.size(); ++i) {
    bare_ms += best_bare[i];
    traced_ms += best_traced[i];
  }
  const double overhead_pct = (traced_ms - bare_ms) / bare_ms * 100.0;
  const bool overhead_ok = overhead_pct < kMaxOverheadPct;
  std::printf("observability overhead: bare %.2f ms/q, traced %.2f ms/q "
              "-> %+.2f%% (gate < %.0f%%)%s\n",
              bare_ms / workload.size(), traced_ms / workload.size(),
              overhead_pct, kMaxOverheadPct,
              overhead_ok ? "" : "  OVERHEAD GATE FAILED");

  JsonValue context = JsonValue::MakeObject();
  context.Set("bench", JsonValue("whynot_sharded"));
  context.Set("n", JsonValue(n));
  context.Set("questions", JsonValue(workload.size()));
  context.Set("host_hardware_concurrency",
              JsonValue(static_cast<size_t>(
                  std::thread::hardware_concurrency())));
  context.Set("speedup_4_shards_vs_1", JsonValue(wall_speedup));
  context.Set("speedup_metric",
              JsonValue("wall (best-of-2 workload pass on this host)"));
  context.Set("observability_overhead_pct", JsonValue(overhead_pct));
  context.Set("results_match", JsonValue(all_match && overhead_ok));

  JsonValue benches = JsonValue::MakeArray();
  auto bench_row = [&](const std::string& name, double ms_per_question) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("name", JsonValue(name));
    row.Set("run_type", JsonValue("iteration"));
    row.Set("iterations", JsonValue(workload.size()));
    row.Set("real_time", JsonValue(ms_per_question));
    row.Set("cpu_time", JsonValue(ms_per_question));
    row.Set("time_unit", JsonValue("ms"));
    row.Set("items_per_second", JsonValue(1000.0 / ms_per_question));
    benches.Append(std::move(row));
  };
  const std::string suffix = "/" + std::to_string(n);
  bench_row("whynot_sharded/unsharded" + suffix,
            baseline_ms / workload.size());
  for (const ShardRun& r : runs) {
    const std::string shard_tag = "/shards:" + std::to_string(r.shards);
    bench_row("whynot_sharded/wall" + shard_tag + suffix,
              r.wall_ms / workload.size());
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("context", std::move(context));
  doc.Set("benchmarks", std::move(benches));

  std::ofstream out(json_path, std::ios::trunc);
  out << doc.Dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  // The exactness gate: a fast-but-wrong distributed why-not must fail
  // loudly, exactly like bench_sharded. The overhead gate fails the same
  // way: instrumentation that costs >= 2% is a perf regression, not a
  // freebie.
  return all_match && overhead_ok ? 0 : 1;
}
