// Observability acceptance: the /metrics and /trace surfaces across the
// three corpus layouts (in-process Corpus, in-process ShardedCorpus, remote
// coordinator over a ShardService fleet).
//   * /query and /whynot payloads stay BYTE-identical across layouts with
//     tracing always on — instrumentation must not leak into the contract;
//   * every layout records the same engine-level span skeleton (query/topk,
//     whynot/*, kw/refine_level) for the same request shape;
//   * the query/topk span's detail is WhyNotEngine::TopK's work counters
//     (k, nodes popped, objects scored) for the same query in each layout;
//   * one whynot/question span per /whynot details the question's columns,
//     with one shard/question span per shard in every layout;
//   * the whynot/preference and whynot/keyword spans carry the stage's work
//     counters as their detail, equal to WhyNotEngine::Answer's stats and,
//     but for the per-shard index-work counts, the same in every layout;
//   * the remote layout additionally shows per-replica rpc spans AND
//     shard-side child spans stitched in by the propagated trace id, with
//     each shard span's parent being a coordinator rpc span; a /whynot's
//     top-ks are /shard/plane/topk rpcs under whynot/explain and
//     whynot/refined_topk, and no /shard/topk (tree search) rpc appears;
//   * GET /metrics exposes the expected families on the coordinator and on
//     the shard server, and /log hands out the trace ids /trace serves;
//   * a slow-trace threshold of 0 pins every trace.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "src/common/text.h"
#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"
#include "src/whynot/why_not_engine.h"

namespace yask {
namespace {

constexpr char kQueryBody[] =
    "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\",\"k\":3}";
constexpr char kWhyNotBody[] =
    "{\"query_id\":1,\"missing\":[81],\"model\":\"both\"}";

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
      EXPECT_TRUE(services.back()->Start().ok());
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(services.back()->port()));
    }
  }

  ~ShardFleet() {
    for (auto& service : services) service->Stop();
  }
};

std::string Fetch(uint16_t port, const std::string& method,
                  const std::string& path, const std::string& body = "",
                  int expect_status = 200) {
  int status = 0;
  auto result = HttpFetch(port, method, path, body, &status);
  EXPECT_TRUE(result.ok()) << method << " " << path;
  EXPECT_EQ(status, expect_status) << method << " " << path << ": "
                                   << (result.ok() ? *result : "");
  return result.ok() ? *result : "";
}

/// Runs one query + one why-not and returns the why-not's trace id (from
/// GET /log) plus both payloads with the timing field stripped.
struct Driven {
  std::string query_payload;
  std::string whynot_payload;
  std::string query_trace_id;
  std::string whynot_trace_id;
};

JsonValue StripTiming(const JsonValue& v) {
  if (v.is_object()) {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [key, value] : v.object_items()) {
      if (key == "response_millis") continue;
      out.Set(key, StripTiming(value));
    }
    return out;
  }
  if (v.is_array()) {
    JsonValue out = JsonValue::MakeArray();
    for (const JsonValue& item : v.array_items()) {
      out.Append(StripTiming(item));
    }
    return out;
  }
  return v;
}

std::string Normalized(const std::string& payload) {
  auto parsed = JsonValue::Parse(payload);
  EXPECT_TRUE(parsed.ok()) << payload;
  if (!parsed.ok()) return payload;
  return StripTiming(parsed.value()).Dump();
}

Driven Drive(const YaskService& service) {
  Driven out;
  out.query_payload = Normalized(
      Fetch(service.port(), "POST", "/query", kQueryBody));
  out.whynot_payload = Normalized(
      Fetch(service.port(), "POST", "/whynot", kWhyNotBody));

  const std::string log = Fetch(service.port(), "GET", "/log");
  auto parsed = JsonValue::Parse(log);
  EXPECT_TRUE(parsed.ok());
  const JsonValue& entries = parsed->Get("entries");
  EXPECT_EQ(entries.size(), 2u);
  out.query_trace_id = entries.At(0).Get("trace_id").as_string();
  out.whynot_trace_id = entries.At(1).Get("trace_id").as_string();
  EXPECT_EQ(out.query_trace_id.size(), 16u);
  EXPECT_EQ(out.whynot_trace_id.size(), 16u);
  EXPECT_NE(out.query_trace_id, out.whynot_trace_id);
  return out;
}

JsonValue FetchTrace(const YaskService& service, const std::string& id) {
  const std::string body = Fetch(service.port(), "GET", "/trace/" + id);
  auto parsed = JsonValue::Parse(body);
  EXPECT_TRUE(parsed.ok()) << body;
  EXPECT_EQ(parsed->Get("trace_id").as_string(), id);
  return parsed.ok() ? parsed.value() : JsonValue();
}

/// The layout-independent span-name skeleton of a trace: engine-level
/// stages only (transport spans — rpc, fan-out, shard endpoints — are
/// remote-mode extras by design).
std::multiset<std::string> Skeleton(const JsonValue& trace) {
  std::multiset<std::string> names;
  for (const JsonValue& span : trace.Get("spans").array_items()) {
    const std::string& name = span.Get("name").as_string();
    if (name.rfind("whynot/", 0) == 0 || name.rfind("kw/", 0) == 0 ||
        name.rfind("query/", 0) == 0 || name.rfind("POST ", 0) == 0) {
      names.insert(name);
    }
  }
  return names;
}

/// The "key=value key=value" detail of the trace's one span named `name`,
/// parsed.
std::map<std::string, size_t> StageFields(const JsonValue& trace,
                                          const std::string& name) {
  std::map<std::string, size_t> fields;
  size_t spans = 0;
  for (const JsonValue& span : trace.Get("spans").array_items()) {
    if (span.Get("name").as_string() != name) continue;
    ++spans;
    std::istringstream detail(span.Get("detail").as_string());
    std::string field;
    while (detail >> field) {
      const size_t eq = field.find('=');
      EXPECT_NE(eq, std::string::npos) << name << ": " << field;
      if (eq == std::string::npos) continue;
      fields[field.substr(0, eq)] = std::stoull(field.substr(eq + 1));
    }
  }
  EXPECT_EQ(spans, 1u) << name;
  return fields;
}

std::map<std::string, size_t> FieldsOf(const PreferenceAdjustStats& s) {
  return {{"crossings", s.crossings_found},
          {"candidates", s.candidates_evaluated},
          {"sweep_fanouts", s.sweep_fanouts},
          {"plane_evals", s.index_nodes_visited}};
}

std::map<std::string, size_t> FieldsOf(const KeywordAdaptStats& s) {
  return {{"generated", s.candidates_generated},
          {"pruned", s.candidates_pruned_floor},
          {"resolved", s.candidates_resolved},
          {"rank_fanouts", s.probe_fanouts},
          {"objects_scored", s.objects_scored}};
}

/// `fields` without the per-layout counts: plane evaluations, which run per
/// shard over per-shard columns. Sweep fan-outs and objects scored stay:
/// every layout runs the same segment schedule and reads every object once
/// per rank fan-out.
std::map<std::string, size_t> LayoutIndependent(
    std::map<std::string, size_t> fields) {
  fields.erase("plane_evals");
  return fields;
}

TEST(ObservabilityTest, PayloadParityAndSpanSkeletonAcrossLayouts) {
  const ObjectStore store = GenerateHotelDataset();

  // Layout 1: one full corpus.
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  YaskService single(corpus);
  ASSERT_TRUE(single.Start().ok());
  const Driven single_run = Drive(single);

  // Layout 2: in-process sharded.
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  YaskService local(sharded);
  ASSERT_TRUE(local.Start().ok());
  const Driven local_run = Drive(local);

  // Layout 3: remote coordinator over a 2-shard fleet.
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  YaskService remote(remote_corpus);
  ASSERT_TRUE(remote.Start().ok());
  const Driven remote_run = Drive(remote);

  // Byte parity with tracing on: instrumentation never leaks into payloads.
  EXPECT_EQ(single_run.query_payload, local_run.query_payload);
  EXPECT_EQ(single_run.query_payload, remote_run.query_payload);
  EXPECT_EQ(single_run.whynot_payload, local_run.whynot_payload);
  EXPECT_EQ(single_run.whynot_payload, remote_run.whynot_payload);

  // Same engine-level span skeleton for the same request shape.
  const JsonValue single_trace = FetchTrace(single, single_run.whynot_trace_id);
  const JsonValue local_trace = FetchTrace(local, local_run.whynot_trace_id);
  const JsonValue remote_trace = FetchTrace(remote, remote_run.whynot_trace_id);
  const auto skeleton = Skeleton(single_trace);
  EXPECT_EQ(skeleton, Skeleton(local_trace));
  EXPECT_EQ(skeleton, Skeleton(remote_trace));
  EXPECT_EQ(skeleton.count("POST /whynot"), 1u);
  EXPECT_EQ(skeleton.count("whynot/explain"), 1u);
  EXPECT_EQ(skeleton.count("whynot/preference"), 1u);
  EXPECT_EQ(skeleton.count("whynot/keyword"), 1u);
  EXPECT_EQ(skeleton.count("whynot/refined_topk"), 1u);
  EXPECT_EQ(skeleton.count("whynot/question"), 1u);

  // Stage spans explain their own cost: the detail is the engine's stats for
  // the same question (/whynot model "both" at the default λ over the
  // /query of kQueryBody under the default system weights).
  Query question;
  question.loc = Point{114.158, 22.281};
  question.doc = LookupKeywords("clean comfortable", corpus.vocab());
  question.k = 3;
  const auto single_answer =
      WhyNotEngine(corpus).Answer(question, {81}, WhyNotOptions{});
  const auto sharded_answer =
      WhyNotEngine(sharded).Answer(question, {81}, WhyNotOptions{});
  ASSERT_TRUE(single_answer.ok() && sharded_answer.ok());
  ASSERT_TRUE(single_answer->preference && single_answer->keyword);
  ASSERT_TRUE(sharded_answer->preference && sharded_answer->keyword);
  const auto pref = StageFields(single_trace, "whynot/preference");
  const auto kw = StageFields(single_trace, "whynot/keyword");
  EXPECT_EQ(pref, FieldsOf(single_answer->preference->stats));
  EXPECT_EQ(kw, FieldsOf(single_answer->keyword->stats));
  EXPECT_GT(pref.at("plane_evals"), 0u);
  EXPECT_GT(kw.at("objects_scored"), 0u);
  EXPECT_EQ(StageFields(local_trace, "whynot/preference"),
            FieldsOf(sharded_answer->preference->stats));
  EXPECT_EQ(StageFields(local_trace, "whynot/keyword"),
            FieldsOf(sharded_answer->keyword->stats));
  for (const JsonValue* trace : {&local_trace, &remote_trace}) {
    EXPECT_EQ(LayoutIndependent(StageFields(*trace, "whynot/preference")),
              LayoutIndependent(pref));
    EXPECT_EQ(LayoutIndependent(StageFields(*trace, "whynot/keyword")),
              LayoutIndependent(kw));
  }

  // One question per /whynot: its span details the columns summed over the
  // shards, and every shard records one shard/question span (stitched in
  // from the shard servers on the remote layout).
  const KeywordSet universe =
      KeywordSet::Union(question.doc, store.Get(81).doc);
  const std::vector<std::pair<const JsonValue*, size_t>> layouts = {
      {&single_trace, 1}, {&local_trace, 2}, {&remote_trace, 2}};
  for (const auto& [trace, shards] : layouts) {
    const auto fields = StageFields(*trace, "whynot/question");
    EXPECT_EQ(fields.at("objects"), store.size());
    EXPECT_EQ(fields.at("universe"), universe.size());
    EXPECT_GT(fields.at("groups"), 0u);
    EXPECT_GT(fields.at("columns"), 0u);
    EXPECT_LE(fields.at("columns"), fields.at("groups"));
    size_t shard_questions = 0;
    for (const JsonValue& span : trace->Get("spans").array_items()) {
      if (span.Get("name").as_string() == "shard/question") ++shard_questions;
    }
    EXPECT_EQ(shard_questions, shards);
  }

  // The query trace carries the top-k stage in every layout.
  const JsonValue query_trace = FetchTrace(single, single_run.query_trace_id);
  EXPECT_EQ(Skeleton(query_trace).count("query/topk"), 1u);
  // Its detail is WhyNotEngine::TopK's work on the same query, per layout.
  auto topk_fields = [&](const WhyNotEngine& engine) {
    TopKStats stats;
    (void)engine.TopK(question, &stats);
    return std::map<std::string, size_t>{
        {"k", question.k},
        {"nodes_popped", stats.nodes_popped},
        {"objects_scored", stats.objects_scored}};
  };
  EXPECT_EQ(StageFields(query_trace, "query/topk"),
            topk_fields(WhyNotEngine(corpus)));
  EXPECT_EQ(StageFields(FetchTrace(local, local_run.query_trace_id),
                        "query/topk"),
            topk_fields(WhyNotEngine(sharded)));
  EXPECT_EQ(StageFields(FetchTrace(remote, remote_run.query_trace_id),
                        "query/topk"),
            topk_fields(WhyNotEngine(
                std::make_unique<RemoteShardOracle>(remote_corpus))));

  // Remote-only structure: rpc spans on the coordinator, shard-side child
  // spans stitched under them by the propagated trace id.
  std::set<std::string> coordinator_span_ids;
  size_t rpc_spans = 0;
  size_t shard_spans = 0;
  size_t stitched = 0;
  for (const JsonValue& span : remote_trace.Get("spans").array_items()) {
    if (span.Get("node").as_string() == "coordinator") {
      coordinator_span_ids.insert(span.Get("id").as_string());
      if (span.Get("name").as_string().rfind("rpc ", 0) == 0) ++rpc_spans;
    }
  }
  for (const JsonValue& span : remote_trace.Get("spans").array_items()) {
    if (span.Get("node").as_string().rfind("shard", 0) == 0) {
      ++shard_spans;
      if (coordinator_span_ids.count(span.Get("parent").as_string()) > 0) {
        ++stitched;
      }
    }
  }
  EXPECT_GT(rpc_spans, 0u);
  EXPECT_GT(shard_spans, 0u);
  // The question answers explain's top-k and the refined result: one
  // /shard/plane/topk per shard under each stage, and no shard top-k search
  // (/shard/topk) anywhere in the /whynot.
  std::map<std::string, std::string> name_of;
  for (const JsonValue& span : remote_trace.Get("spans").array_items()) {
    name_of[span.Get("id").as_string()] = span.Get("name").as_string();
  }
  std::multiset<std::string> topk_parents;
  for (const JsonValue& span : remote_trace.Get("spans").array_items()) {
    const std::string& name = span.Get("name").as_string();
    EXPECT_NE(name, std::string("rpc ") + shardrpc::kTopKPath);
    if (name == std::string("rpc ") + shardrpc::kPlaneTopKPath) {
      topk_parents.insert(name_of[span.Get("parent").as_string()]);
    }
  }
  EXPECT_EQ(topk_parents,
            (std::multiset<std::string>{"whynot/explain", "whynot/explain",
                                        "whynot/refined_topk",
                                        "whynot/refined_topk"}));
  // Shard-side root spans hang off coordinator rpc spans. Not every shard
  // span need stitch: past the coordinator's span cap, rpc spans are shed
  // while the header (and thus the shard-side span) still exists.
  EXPECT_GT(stitched, 0u);
  EXPECT_LE(stitched, shard_spans);

  // An unknown trace id is a clean 404.
  Fetch(remote.port(), "GET", "/trace/deadbeefdeadbeef", "", 404);

  single.Stop();
  local.Stop();
  remote.Stop();
}

TEST(ObservabilityTest, MetricsFamiliesOnCoordinatorAndShard) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok());
  const RemoteCorpus remote_corpus = std::move(connected).value();
  YaskService service(remote_corpus);
  ASSERT_TRUE(service.Start().ok());
  Drive(service);

  // Coordinator: per-endpoint HTTP metrics, stage histograms, and the
  // remote corpus's replica/shard RPC families in ONE exposition.
  const std::string metrics = Fetch(service.port(), "GET", "/metrics");
  for (const char* needle : {
           "# TYPE yask_http_requests_total counter",
           "yask_http_requests_total{code=\"200\",endpoint=\"/query\"}",
           "yask_http_requests_total{code=\"200\",endpoint=\"/whynot\"}",
           "# TYPE yask_http_request_ms histogram",
           "# TYPE yask_stage_ms histogram",
           "yask_stage_ms_bucket{stage=\"whynot/keyword\",le=\"+Inf\"}",
           "yask_stage_ms_bucket{stage=\"whynot/question\",le=\"+Inf\"}",
           "yask_stage_ms_bucket{stage=\"query/topk\",le=\"+Inf\"}",
           "# TYPE yask_replica_rpc_latency_ms histogram",
           "# TYPE yask_replica_requests_total counter",
           "# TYPE yask_shard_rpc_latency_ms histogram",
           "# TYPE yask_failovers_total counter",
           "yask_failovers_total{shard=\"0\"} 0",
           "# TYPE yask_session_replays_total counter",
           "# TYPE yask_replicas_cooling gauge",
           "# TYPE yask_cached_queries gauge",
       }) {
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle;
  }
  // Each replica appears as a label on the RPC latency family.
  for (const std::string& endpoint : fleet.endpoints) {
    EXPECT_NE(metrics.find("replica=\"" + endpoint + "\""), std::string::npos)
        << endpoint;
  }

  // Shard server: per-endpoint RPC metrics and session gauges.
  const std::string shard_metrics =
      Fetch(fleet.services[0]->port(), "GET", "/metrics");
  for (const char* needle : {
           "# TYPE yask_shard_requests_total counter",
           "yask_shard_requests_total{code=\"200\",endpoint=\"/shard/topk\"}",
           "# TYPE yask_shard_request_ms histogram",
           "# TYPE yask_shard_open_plane_sessions gauge",
           "# TYPE yask_shard_sessions_evicted_total counter",
           "yask_shard_sessions_evicted_total{kind=\"plane\",shard=\"0\"} 0",
           "yask_shard_objects{shard=\"0\"}",
       }) {
    EXPECT_NE(shard_metrics.find(needle), std::string::npos) << needle;
  }

  // The shard RPC latency histogram carries real samples once traffic has
  // flowed.
  const std::string count_needle =
      "yask_shard_rpc_latency_ms_count{shard=\"0\"} ";
  const size_t at = metrics.find(count_needle);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::strtod(metrics.c_str() + at + count_needle.size(), nullptr),
            0.0);

  // /health still reports the same numbers the registry exports (single
  // source of truth): zero failovers and per-replica request counts > 0.
  const std::string health = Fetch(service.port(), "GET", "/health");
  auto parsed = JsonValue::Parse(health);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& shards = parsed->Get("remote_shards");
  ASSERT_EQ(shards.size(), 2u);
  for (const JsonValue& row : shards.array_items()) {
    EXPECT_EQ(row.Get("failovers").as_number(), 0);
    for (const JsonValue& rep : row.Get("replicas").array_items()) {
      EXPECT_GT(rep.Get("requests").as_number(), 0);
    }
  }

  service.Stop();
}

TEST(ObservabilityTest, ShardedTopKRecordsFanoutAndMergeSpans) {
  // The in-process sharded /query runs the same threshold-broadcast fan-out
  // as the coordinator, so with a pool it records the same two stages. On a
  // single-core host the corpus has no pool, and the sequential fan-out
  // records neither.
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  const size_t pooled = sharded.pool() != nullptr ? 1 : 0;
  YaskService service(sharded);
  ASSERT_TRUE(service.Start().ok());
  const Driven run = Drive(service);

  const JsonValue trace = FetchTrace(service, run.query_trace_id);
  std::multiset<std::string> names;
  for (const JsonValue& span : trace.Get("spans").array_items()) {
    names.insert(span.Get("name").as_string());
  }
  EXPECT_EQ(names.count("query/topk"), 1u);
  EXPECT_EQ(names.count("topk/fanout"), pooled);
  EXPECT_EQ(names.count("topk/merge"), pooled);
  service.Stop();
}

TEST(ObservabilityTest, ZeroThresholdPinsEveryTrace) {
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  YaskServiceOptions options;
  options.slow_trace_threshold_ms = 0.0;
  YaskService service(corpus, options);
  ASSERT_TRUE(service.Start().ok());
  const Driven run = Drive(service);

  const JsonValue trace = FetchTrace(service, run.whynot_trace_id);
  EXPECT_TRUE(trace.Get("pinned").as_bool());
  EXPECT_EQ(service.traces().pinned_count(), 2u);  // query + whynot

  // The shard-side trace endpoint answers 404 for ids it never saw — via a
  // standalone single-shard server, checking the GET /shard/trace surface.
  ShardService shard(corpus, ShardService::StandaloneInfo(corpus));
  ASSERT_TRUE(shard.Start().ok());
  Fetch(shard.port(), "GET",
        std::string(shardrpc::kTracePath) + "?id=" + run.whynot_trace_id, "",
        404);
  Fetch(shard.port(), "GET", shardrpc::kTracePath, "", 400);
  shard.Stop();
  service.Stop();
}

}  // namespace
}  // namespace yask
