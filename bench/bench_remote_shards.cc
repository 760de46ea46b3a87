// Experiment E13: the remote shard tier over loopback.
//
// Boots 1/2/4 ShardService instances (the yask_shard_server core) over a
// partitioned benchmark dataset, connects a RemoteCorpus coordinator, and
// runs the /query + /whynot workload through the wire — measuring what the
// network hop costs and how many round-trips a why-not answer takes.
//
// Exactness gates (non-zero exit on any failure, like bench_sharded):
//   * every remote top-k result and why-not answer must be BIT-identical to
//     the unsharded reference engine (which PR 2/3 already gate against the
//     in-process sharded layout);
//   * round-trip accounting, from each shard's own per-route request
//     counts: a top-k query sends exactly one /shard/topk per shard (the
//     home shard's search, or a thresholded one); one engine /whynot opens
//     one question session per shard
//     (/shard/plane/open) and asks every rank of it — one batch for the
//     explanations, one per rank fan-out (stats.probe_fanouts) for
//     Eqn. (4) — as one /shard/plane/rank per shard, and both of its
//     top-ks (explain's and the refined result) as two /shard/plane/topk
//     per shard, with no second /shard/plane/open (a rank batch outside
//     the question would open one) and no /shard/topk
//     (no SetR-tree search), and neither does a combined
//     refinement, whose refined result is bit-identical to the unsharded
//     engine's; keyword adaption over an open
//     question sends exactly one /shard/plane/rank per shard per rank
//     fan-out; and the Eqn. (3) sweep sends exactly one
//     /shard/plane/count_batch per sweep fan-out to every shard.
//     Per-pair or per-candidate traffic breaks these counts and fails the
//     run.
//
// The headline numbers: HTTP round-trips per why-not answer for the
// Eqn. (4) rank batches and the Eqn. (3) weight sweep — the quantity that
// dominates remote why-not latency once shards leave the coordinator's
// address space.
//
//   $ ./bench_remote_shards [--n=50000] [--queries=40] [--questions=10]
//                           [--json=BENCH_remote_shards.json]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_service.h"
#include "src/whynot/why_not_engine.h"

namespace yask {
namespace bench {
namespace {

struct Question {
  Query query;
  std::vector<ObjectId> missing;
};

std::vector<Query> MakeQueryWorkload(const ObjectStore& store, size_t count) {
  Rng rng(kDatasetSeed + 7);
  std::vector<Query> queries;
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(MakeQuery(store, &rng, /*num_keywords=*/3, /*k=*/10));
  }
  return queries;
}

std::vector<Question> MakeWhyNotWorkload(const ObjectStore& store,
                                         size_t count) {
  Rng rng(kDatasetSeed + 3);
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

bool SameRefinement(const RefinedKeywordQuery& a,
                    const RefinedKeywordQuery& b) {
  return a.refined.doc.ids() == b.refined.doc.ids() &&
         a.refined.k == b.refined.k && a.penalty.value == b.penalty.value &&
         a.original_rank == b.original_rank &&
         a.refined_rank == b.refined_rank &&
         a.already_in_result == b.already_in_result;
}

bool SameAnswer(const WhyNotAnswer& a, const WhyNotAnswer& b) {
  if (a.explanations.size() != b.explanations.size()) return false;
  for (size_t i = 0; i < a.explanations.size(); ++i) {
    if (a.explanations[i].id != b.explanations[i].id ||
        a.explanations[i].rank != b.explanations[i].rank ||
        a.explanations[i].score != b.explanations[i].score ||
        a.explanations[i].text != b.explanations[i].text) {
      return false;
    }
  }
  if (a.preference.has_value() != b.preference.has_value()) return false;
  if (a.preference.has_value() &&
      (a.preference->refined.w.ws != b.preference->refined.w.ws ||
       a.preference->refined.k != b.preference->refined.k ||
       a.preference->penalty.value != b.preference->penalty.value)) {
    return false;
  }
  if (a.keyword.has_value() != b.keyword.has_value()) return false;
  if (a.keyword.has_value() && !SameRefinement(*a.keyword, *b.keyword)) {
    return false;
  }
  if (a.recommended != b.recommended) return false;
  if (a.refined_result.size() != b.refined_result.size()) return false;
  for (size_t i = 0; i < a.refined_result.size(); ++i) {
    if (!(a.refined_result[i] == b.refined_result[i])) return false;
  }
  return true;
}

struct ShardFleet {
  std::vector<std::unique_ptr<ShardService>> services;
  std::vector<std::string> endpoints;

  explicit ShardFleet(const ShardedCorpus& corpus) {
    for (size_t s = 0; s < corpus.num_shards(); ++s) {
      ShardService::Info info;
      info.shard_index = static_cast<uint32_t>(s);
      info.shard_count = static_cast<uint32_t>(corpus.num_shards());
      info.global_bounds = corpus.bounds();
      info.dist_norm = corpus.dist_norm();
      info.to_global = corpus.shard_global_ids(s);
      info.router = corpus.router_description();
      services.push_back(
          std::make_unique<ShardService>(corpus.shard(s), std::move(info)));
      if (!services.back()->Start().ok()) {
        std::fprintf(stderr, "cannot start shard service %zu\n", s);
        std::exit(1);
      }
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(services.back()->port()));
    }
  }
  ~ShardFleet() {
    for (auto& service : services) service->Stop();
  }
};

struct RemoteRun {
  size_t shards = 0;
  double topk_ms_per_query = 0.0;
  double whynot_ms_per_question = 0.0;
  double kw_rt_per_question = 0.0;     // Round-trips, keyword adaption.
  double sweep_rt_per_question = 0.0;  // Round-trips, Eqn. (3) sweep.
  bool exact = true;
  bool kw_rt_gate = true;     // Question, rank and top-k route counts match.
  bool sweep_rt_gate = true;  // Plane route counts match the counters.
};

/// Requests each shard has served so far on the shardrpc routes the why-not
/// algorithms use, read from the shard's own per-route request histogram.
struct RouteCounts {
  std::map<std::string, std::vector<uint64_t>> served;

  static RouteCounts Take(const ShardFleet& fleet) {
    RouteCounts counts;
    for (const char* route :
         {shardrpc::kPlaneOpenPath, shardrpc::kPlaneRankPath,
          shardrpc::kPlaneTopKPath, shardrpc::kTopKPath,
          shardrpc::kPlaneCountBatchPath}) {
      for (const auto& service : fleet.services) {
        counts.served[route].push_back(
            service->metrics()
                .GetHistogram("yask_shard_request_ms", {{"endpoint", route}})
                ->count());
      }
    }
    return counts;
  }

  /// Requests shard `s` served on `route` between `before` and this.
  uint64_t Since(const RouteCounts& before, const char* route,
                 size_t s) const {
    return served.at(route)[s] - before.served.at(route)[s];
  }
};

bool SamePreference(const RefinedPreferenceQuery& a,
                    const RefinedPreferenceQuery& b) {
  return a.refined.w.ws == b.refined.w.ws && a.refined.k == b.refined.k &&
         a.penalty.value == b.penalty.value &&
         a.original_rank == b.original_rank &&
         a.refined_rank == b.refined_rank &&
         a.already_in_result == b.already_in_result &&
         a.stats.crossings_found == b.stats.crossings_found &&
         a.stats.candidates_evaluated == b.stats.candidates_evaluated;
}

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  using namespace yask;
  using namespace yask::bench;

  size_t n = 50000;
  size_t num_queries = 40;
  size_t num_questions = 10;
  std::string json_path = "BENCH_remote_shards.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<size_t>(std::strtoull(arg.c_str() + 4, nullptr, 10));
    } else if (arg.rfind("--queries=", 0) == 0) {
      num_queries =
          static_cast<size_t>(std::strtoull(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--questions=", 0) == 0) {
      num_questions =
          static_cast<size_t>(std::strtoull(arg.c_str() + 12, nullptr, 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(
          stderr, "usage: %s [--n=N] [--queries=Q] [--questions=W] "
          "[--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }

  Timer setup_timer;
  const Corpus baseline =
      CorpusBuilder().Build(GenerateDataset(SharedDatasetSpec(n)));
  const ObjectStore& store = baseline.store();
  const WhyNotEngine reference(baseline);
  const std::vector<Query> queries = MakeQueryWorkload(store, num_queries);
  const std::vector<Question> questions =
      MakeWhyNotWorkload(store, num_questions);
  std::printf("built unsharded corpus (n=%zu) in %.0f ms; %zu queries, %zu "
              "why-not questions\n",
              n, setup_timer.ElapsedMillis(), queries.size(),
              questions.size());

  // Reference answers (already gated sharded==unsharded by E11/E12).
  std::vector<TopKResult> expected_topk;
  for (const Query& q : queries) expected_topk.push_back(reference.TopK(q));
  std::vector<WhyNotAnswer> expected_answers;
  std::vector<CombinedRefinement> expected_combined;
  for (const Question& q : questions) {
    auto answer = reference.Answer(q.query, q.missing);
    auto combined = reference.CombineRefinements(q.query, q.missing);
    if (!answer.ok() || !combined.ok()) {
      std::fprintf(stderr, "reference why-not failed: %s\n",
                   (answer.ok() ? combined.status() : answer.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    expected_answers.push_back(std::move(answer).value());
    expected_combined.push_back(std::move(combined).value());
  }

  std::printf("%-10s %10s %12s %14s %16s  %s\n", "shards", "topk ms/q",
              "whynot ms/q", "kw rt/question", "sweep rt/question", "gates");
  std::vector<RemoteRun> runs;
  for (const size_t shards : {1, 2, 4}) {
    const ShardedCorpus sharded = ShardedCorpus::Partition(
        store, GridShardRouter::Fit(store, static_cast<uint32_t>(shards)));
    ShardFleet fleet(sharded);
    auto connected = RemoteCorpus::Connect(fleet.endpoints);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    const RemoteCorpus remote = std::move(connected).value();
    const RemoteShardOracle oracle(remote);
    const WhyNotEngine engine(std::make_unique<RemoteShardOracle>(remote));

    RemoteRun run;
    run.shards = shards;

    // (a) Remote top-k over the wire, gated bit-identical and to one
    // /shard/topk per shard per query.
    {
      const RouteCounts before = RouteCounts::Take(fleet);
      Timer timer;
      for (size_t i = 0; i < queries.size(); ++i) {
        const TopKResult result = engine.TopK(queries[i]);
        if (result != expected_topk[i]) run.exact = false;
      }
      run.topk_ms_per_query = timer.ElapsedMillis() / queries.size();
      const RouteCounts after = RouteCounts::Take(fleet);
      for (size_t s = 0; s < shards; ++s) {
        if (after.Since(before, shardrpc::kTopKPath, s) != queries.size()) {
          run.kw_rt_gate = false;
        }
      }
    }

    // (b) Full why-not answers over the wire, gated bit-identical and to
    // one question session per shard that answers every rank and top-k.
    {
      Timer timer;
      for (size_t i = 0; i < questions.size(); ++i) {
        const RouteCounts before = RouteCounts::Take(fleet);
        auto answer = engine.Answer(questions[i].query, questions[i].missing);
        const RouteCounts after = RouteCounts::Take(fleet);
        if (!answer.ok() || !SameAnswer(*answer, expected_answers[i])) {
          run.exact = false;
          continue;
        }
        const uint64_t ranks = 1 + answer->keyword->stats.probe_fanouts;
        for (size_t s = 0; s < shards; ++s) {
          if (after.Since(before, shardrpc::kPlaneOpenPath, s) != 1 ||
              after.Since(before, shardrpc::kPlaneRankPath, s) != ranks ||
              after.Since(before, shardrpc::kPlaneTopKPath, s) != 2 ||
              after.Since(before, shardrpc::kTopKPath, s) != 0) {
            run.kw_rt_gate = false;
          }
        }
      }
      run.whynot_ms_per_question = timer.ElapsedMillis() / questions.size();
    }

    // (b') Combined refinements: the refined result comes from the open
    // question, with no /shard/topk.
    for (size_t i = 0; i < questions.size(); ++i) {
      const RouteCounts before = RouteCounts::Take(fleet);
      auto combined =
          engine.CombineRefinements(questions[i].query, questions[i].missing);
      const RouteCounts after = RouteCounts::Take(fleet);
      if (!combined.ok() ||
          combined->refined_result != expected_combined[i].refined_result ||
          combined->total_penalty != expected_combined[i].total_penalty) {
        run.exact = false;
        continue;
      }
      for (size_t s = 0; s < shards; ++s) {
        if (after.Since(before, shardrpc::kTopKPath, s) != 0) {
          run.kw_rt_gate = false;
        }
      }
    }

    // (c) The keyword-adaption round-trip meter over an open question
    // (session open and close included), gated to the unsharded refinement
    // and to the rank traffic its counters predict.
    uint64_t kw_rt = 0;
    for (const Question& q : questions) {
      const uint64_t requests = remote.total_requests();
      const RouteCounts before = RouteCounts::Take(fleet);
      auto rb = [&] {
        const auto question = oracle.OpenQuestion(q.query, q.missing);
        return AdaptKeywords(*question, q.query, q.missing);
      }();
      const RouteCounts after = RouteCounts::Take(fleet);
      kw_rt += remote.total_requests() - requests;
      if (!rb.ok()) {
        run.exact = false;
        continue;
      }
      auto local = AdaptKeywords(LocalWhyNotOracle(baseline), q.query,
                                 q.missing);
      if (!local.ok() || !SameRefinement(*rb, *local)) run.exact = false;
      // One /shard/plane/rank per shard per rank fan-out — the batching
      // contract.
      for (size_t s = 0; s < shards; ++s) {
        if (after.Since(before, shardrpc::kPlaneRankPath, s) !=
            rb->stats.probe_fanouts) {
          run.kw_rt_gate = false;
        }
      }
    }
    run.kw_rt_per_question = static_cast<double>(kw_rt) / questions.size();

    // (d) The Eqn. (3) sweep round-trip meter: the segment sweep holds one
    // plane session per shard and ships every segment as one
    // /shard/plane/count_batch — gated to the unsharded refinement and to
    // exactly the count requests its counters predict.
    uint64_t sweep_rt = 0;
    for (const Question& q : questions) {
      const uint64_t requests = remote.total_requests();
      const RouteCounts before = RouteCounts::Take(fleet);
      auto rb = AdjustPreference(oracle, q.query, q.missing);
      const RouteCounts after = RouteCounts::Take(fleet);
      sweep_rt += remote.total_requests() - requests;
      if (!rb.ok()) {
        run.exact = false;
        continue;
      }
      auto local = AdjustPreference(LocalWhyNotOracle(baseline), q.query,
                                    q.missing);
      if (!local.ok() || !SamePreference(*rb, *local)) run.exact = false;
      for (size_t s = 0; s < shards; ++s) {
        if (after.Since(before, shardrpc::kPlaneCountBatchPath, s) !=
            rb->stats.sweep_fanouts) {
          run.sweep_rt_gate = false;
        }
      }
    }
    run.sweep_rt_per_question =
        static_cast<double>(sweep_rt) / questions.size();

    std::printf("%-10zu %10.2f %12.2f %14.1f %16.1f  %s%s%s\n", shards,
                run.topk_ms_per_query, run.whynot_ms_per_question,
                run.kw_rt_per_question, run.sweep_rt_per_question,
                run.exact ? "exact" : "EXACTNESS BUG",
                run.kw_rt_gate ? "" : " KW ROUND-TRIP BUG",
                run.sweep_rt_gate ? "" : " SWEEP ROUND-TRIP BUG");
    runs.push_back(run);
  }

  bool all_ok = true;
  for (const RemoteRun& r : runs) {
    all_ok = all_ok && r.exact && r.kw_rt_gate && r.sweep_rt_gate;
  }

  JsonValue context = JsonValue::MakeObject();
  context.Set("bench", JsonValue("remote_shards"));
  context.Set("n", JsonValue(n));
  context.Set("queries", JsonValue(queries.size()));
  context.Set("questions", JsonValue(questions.size()));
  context.Set("host_hardware_concurrency",
              JsonValue(static_cast<size_t>(
                  std::thread::hardware_concurrency())));
  context.Set("transport",
              JsonValue("loopback HTTP, keep-alive, binary shard protocol"));
  context.Set("results_match", JsonValue(all_ok));
  if (!runs.empty()) {
    const RemoteRun& last = runs.back();
    context.Set("kw_roundtrips_batched_4_shards",
                JsonValue(last.kw_rt_per_question));
    context.Set("sweep_roundtrips_batched_4_shards",
                JsonValue(last.sweep_rt_per_question));
  }

  JsonValue benches = JsonValue::MakeArray();
  auto bench_row = [&](const std::string& name, double value,
                       const std::string& unit) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("name", JsonValue(name));
    row.Set("run_type", JsonValue("iteration"));
    row.Set("iterations", JsonValue(static_cast<size_t>(1)));
    row.Set("real_time", JsonValue(value));
    row.Set("cpu_time", JsonValue(value));
    row.Set("time_unit", JsonValue(unit));
    benches.Append(std::move(row));
  };
  const std::string suffix = "/" + std::to_string(n);
  for (const RemoteRun& r : runs) {
    const std::string tag = "/shards:" + std::to_string(r.shards) + suffix;
    bench_row("remote_shards/topk" + tag, r.topk_ms_per_query, "ms");
    bench_row("remote_shards/whynot" + tag, r.whynot_ms_per_question, "ms");
    bench_row("remote_shards/kw_roundtrips_batched" + tag,
              r.kw_rt_per_question, "roundtrips");
    bench_row("remote_shards/sweep_roundtrips_batched" + tag,
              r.sweep_rt_per_question, "roundtrips");
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

  // Gate hard: a remote tier that answers differently, or that quietly
  // spends round-trips its counters do not predict (per-pair or per-probe
  // traffic), must fail the run.
  return all_ok ? 0 : 1;
}
