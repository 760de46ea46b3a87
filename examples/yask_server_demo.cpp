// The browser-server demo workflow (§3.1-§3.2, Figs. 3-5), scripted.
//
// Starts the YASK HTTP service on an ephemeral port, then plays the role of
// the client browser: issues Carol's initial query (query mode, Fig. 3),
// poses a follow-up why-not question against the cached initial query
// (why-not mode, Fig. 4), fetches the query log with the response times and
// penalties shown in Panel 5, and finally releases the cached query.
//
// The serving state is a Corpus (src/corpus/): with `--snapshot <path>` it
// boots from a snapshot file when one exists (the fast cold-start path: no
// re-indexing) and writes one after building otherwise, so the second run
// restores the warm state from disk.
//
// With `--shards N` the server instead serves an N-way partitioned
// ShardedCorpus: top-k queries AND why-not questions fan out across the
// shards in parallel through the why-not oracle seam (bit-identical
// answers), and `--snapshot <prefix>` persists/boots one file per shard.
// The scripted client below runs the same workflow in both modes.
//
// With `--remote-shards host:port,host:port,...` the server is instead a
// COORDINATOR over running `yask_shard_server` processes: it holds no
// objects or indexes itself — top-k and why-not fan out over the wire
// through the same oracle seam and answer byte-identically to the
// in-process layouts (docs/architecture.md, "Remote deployment"). Each
// comma-separated shard may be a '|'-joined REPLICA GROUP of servers booted
// from the same shard snapshot — e.g.
//   --remote-shards h:7001|h:7003,h:7002|h:7004
// for 2 shards x 2 replicas; the coordinator round-robins across healthy
// replicas and fails over mid-request when one dies, so a kill costs a
// retry, not a 503.
//
// With `--serve` the process skips the scripted client and keeps serving
// until killed, so real clients (curl, a browser) can talk to it.
//
//   $ ./yask_server_demo [--snapshot state.snap] [--serve] [--shards N]
//                        [--remote-shards host:port[|host:port...],...]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "src/common/string_util.h"
#include "src/common/timer.h"
#include "src/common/version.h"
#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/shard_protocol.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

using namespace yask;

namespace {

JsonValue MustParse(const Result<std::string>& body) {
  if (!body.ok()) {
    std::fprintf(stderr, "http error: %s\n", body.status().ToString().c_str());
    std::exit(1);
  }
  auto parsed = JsonValue::Parse(*body);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad json: %s\n", parsed.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(parsed).value();
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::string remote_shards;
  bool serve = false;
  bool result_cache = false;
  size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      // Machine-readable build identity: the rolling-upgrade CI job asserts
      // every process in the fleet runs the expected sha, and operators
      // check that every shard speaks a version inside this range.
      std::printf("yask_server_demo %s shardrpc=%u..%u\n", BuildGitSha(),
                  shardrpc::kMinSupportedProtocolVersion,
                  shardrpc::kProtocolVersion);
      return 0;
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--result-cache") {
      // Production read-traffic mode: repeated identical /query requests are
      // served the cached bytes (same query_id) instead of minting a fresh
      // id per request, and concurrent identical misses coalesce into one
      // fan-out. See YaskServiceOptions::enable_result_cache.
      result_cache = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (shards == 0) shards = 1;
    } else if (arg == "--remote-shards" && i + 1 < argc) {
      remote_shards = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--snapshot <path>] [--serve] [--shards N] "
                   "[--remote-shards host:port[|host:port...],...] "
                   "[--result-cache] [--version]\n",
                   argv[0]);
      return 2;
    }
  }

  // --- Server side (Fig. 1): the corpus layer owns store + indexes. ---
  // Warm state comes from the snapshot when one exists (fast cold start);
  // otherwise it is built from the dataset and persisted for the next boot.
  // With --remote-shards there is no local state at all: the coordinator
  // connects to running yask_shard_server processes.
  std::optional<Corpus> corpus;
  std::optional<ShardedCorpus> sharded;
  std::optional<RemoteCorpus> remote;
  if (!remote_shards.empty()) {
    Timer timer;
    auto connected = RemoteCorpus::Connect(Split(remote_shards, ','));
    if (!connected.ok()) {
      std::fprintf(stderr, "cannot connect remote shards: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    remote = std::move(connected).value();
    std::printf(
        "connected %zu remote shard(s), %zu objects, vocab %zu in %.0f ms\n",
        remote->num_shards(), remote->size(), remote->vocab().size(),
        timer.ElapsedMillis());
  } else if (shards > 1) {
    if (!snapshot_path.empty()) {
      Timer timer;
      auto loaded = ShardedCorpus::Load(snapshot_path);
      if (loaded.ok() && loaded->num_shards() == shards) {
        sharded = std::move(loaded).value();
        std::printf("loaded %zu shard snapshots %s.shard-*.snap "
                    "(%zu objects) in %.2f ms\n",
                    sharded->num_shards(), snapshot_path.c_str(),
                    sharded->size(), timer.ElapsedMillis());
      } else if (!loaded.ok() &&
                 loaded.status().code() != StatusCode::kNotFound) {
        std::fprintf(stderr, "ignoring unusable shard snapshots %s: %s\n",
                     snapshot_path.c_str(),
                     loaded.status().ToString().c_str());
      }
    }
    if (!sharded.has_value()) {
      Timer timer;
      const ObjectStore source = GenerateHotelDataset();
      sharded = ShardedCorpus::Partition(
          source, GridShardRouter::Fit(source, static_cast<uint32_t>(shards)));
      std::printf("partitioned %zu objects into %zu shards (%s) in %.2f ms\n",
                  sharded->size(), sharded->num_shards(),
                  sharded->router_description().c_str(),
                  timer.ElapsedMillis());
      if (!snapshot_path.empty()) {
        auto written = sharded->Save(snapshot_path);
        if (written.ok()) {
          std::printf("wrote %zu shard files under %s.shard-*.snap "
                      "(%zu bytes); next boot loads them\n",
                      sharded->num_shards(), snapshot_path.c_str(),
                      static_cast<size_t>(*written));
        } else {
          std::fprintf(stderr, "cannot write shard snapshots: %s\n",
                       written.status().ToString().c_str());
        }
      }
    }
  } else {
    if (!snapshot_path.empty()) {
      Timer timer;
      auto loaded = CorpusBuilder().FromSnapshot(snapshot_path);
      if (loaded.ok()) {
        corpus = std::move(loaded).value();
        std::printf("loaded snapshot %s (%zu objects) in %.2f ms\n",
                    snapshot_path.c_str(), corpus->size(),
                    timer.ElapsedMillis());
      } else if (loaded.status().code() != StatusCode::kNotFound) {
        std::fprintf(stderr, "ignoring unusable snapshot %s: %s\n",
                     snapshot_path.c_str(),
                     loaded.status().ToString().c_str());
      }
    }
    if (!corpus.has_value()) {
      Timer timer;
      corpus = CorpusBuilder().Build(GenerateHotelDataset());
      std::printf("built store + indexes in %.2f ms\n", timer.ElapsedMillis());
      if (!snapshot_path.empty()) {
        auto written = corpus->Save(snapshot_path);
        if (written.ok()) {
          std::printf("wrote snapshot %s (%zu bytes); next boot loads it\n",
                      snapshot_path.c_str(), static_cast<size_t>(*written));
        } else {
          std::fprintf(stderr, "cannot write snapshot: %s\n",
                       written.status().ToString().c_str());
        }
      }
    }
  }

  YaskServiceOptions service_options;
  service_options.snapshot_path = snapshot_path;
  service_options.enable_result_cache = result_cache;
  // The demo is a local admin playground; a production deployment would
  // leave the override off and snapshot only to its configured path.
  service_options.allow_snapshot_path_override = true;
  // Elastic-fleet admin plane: POST /admin/layout cuts the coordinator over
  // to a resharded fleet with zero downtime; POST /admin/replicas adds or
  // removes replicas of the current layout. Only meaningful (and only
  // answered with anything but 501) in --remote-shards mode.
  service_options.enable_fleet_admin = true;
  std::unique_ptr<YaskService> service;
  if (remote.has_value()) {
    service = std::make_unique<YaskService>(*remote, service_options);
  } else if (corpus.has_value()) {
    service = std::make_unique<YaskService>(*corpus, service_options);
  } else {
    service = std::make_unique<YaskService>(*sharded, service_options);
  }
  if (Status s = service->Start(); !s.ok()) {
    std::fprintf(stderr, "cannot start service: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("YASK service listening on 127.0.0.1:%u\n\n", service->port());
  // Scripts parse the port from redirected stdout; flush before the serve
  // loop never returns.
  std::fflush(stdout);

  if (serve) {
    // Plain server mode: no scripted client, just serve until killed.
    while (service->port() != 0) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return 0;
  }

  // --- Client: initial spatial keyword top-k query (Panel 2). ---
  JsonValue query = JsonValue::MakeObject();
  query.Set("x", JsonValue(114.158));   // Clicked on the map near Central.
  query.Set("y", JsonValue(22.281));
  query.Set("keywords", JsonValue("clean comfortable"));
  query.Set("k", JsonValue(3));
  std::printf("POST /query  %s\n", query.Dump().c_str());
  const JsonValue qresp =
      MustParse(HttpFetch(service->port(), "POST", "/query", query.Dump()));
  std::printf("  -> query_id=%zu, w=<%.2f,%.2f> (server-side parameter)\n",
              static_cast<size_t>(qresp.Get("query_id").as_number()),
              qresp.Get("ws").as_number(), qresp.Get("wt").as_number());
  for (const JsonValue& row : qresp.Get("results").array_items()) {
    std::printf("  green marker: %-24s score %.4f\n",
                row.Get("name").as_string().c_str(),
                row.Get("score").as_number());
  }

  {
    // --- Client: select a missing hotel and ask why-not (Panel 3). In
    // sharded mode the question fans out over the shards and answers
    // exactly what an unsharded replica would. ---
    // Browse a wider result to find a hotel the user knows but did not see.
    JsonValue wide = query;
    wide.Set("k", JsonValue(25));
    const JsonValue wresp =
        MustParse(HttpFetch(service->port(), "POST", "/query", wide.Dump()));
    const std::string expected_name =
        wresp.Get("results").At(18).Get("name").as_string();

    JsonValue whynot = JsonValue::MakeObject();
    whynot.Set("query_id", qresp.Get("query_id"));
    JsonValue missing = JsonValue::MakeArray();
    missing.Append(JsonValue(expected_name));
    whynot.Set("missing", std::move(missing));
    whynot.Set("model", JsonValue("both"));
    whynot.Set("lambda", JsonValue(0.5));
    std::printf("\nPOST /whynot  (black marker: \"%s\")\n",
                expected_name.c_str());
    const JsonValue aresp = MustParse(
        HttpFetch(service->port(), "POST", "/whynot", whynot.Dump()));

    // Explanation panel (Fig. 5).
    const JsonValue& expl = aresp.Get("explanations").At(0);
    std::printf("  explanation: %s\n", expl.Get("text").as_string().c_str());
    std::printf(
        "  refined (preference):  ws'=%.3f k'=%zu penalty=%.4f\n",
        aresp.Get("preference").Get("ws").as_number(),
        static_cast<size_t>(aresp.Get("preference").Get("k").as_number()),
        aresp.Get("preference").Get("penalty").Get("value").as_number());
    std::printf(
        "  refined (keyword):     doc'={%s} k'=%zu penalty=%.4f\n",
        aresp.Get("keyword").Get("keywords").as_string().c_str(),
        static_cast<size_t>(aresp.Get("keyword").Get("k").as_number()),
        aresp.Get("keyword").Get("penalty").Get("value").as_number());
    std::printf("  recommended model:     %s\n",
                aresp.Get("recommended").as_string().c_str());
    std::printf("  refined result markers:\n");
    for (const JsonValue& row : aresp.Get("refined_results").array_items()) {
      const bool is_expected = row.Get("name").as_string() == expected_name;
      std::printf("    %-24s%s\n", row.Get("name").as_string().c_str(),
                  is_expected ? "  <-- revived" : "");
    }
  }

  // --- Client: the query log (Panel 5: parameters, penalty, time). ---
  std::printf("\nGET /log\n");
  const JsonValue log =
      MustParse(HttpFetch(service->port(), "GET", "/log"));
  for (const JsonValue& e : log.Get("entries").array_items()) {
    std::printf("  [%s] %.2f ms  %s%s\n", e.Get("kind").as_string().c_str(),
                e.Get("response_millis").as_number(),
                e.Get("description").as_string().c_str(),
                e.Has("penalty")
                    ? ("  penalty=" + std::to_string(
                                          e.Get("penalty").as_number()))
                          .c_str()
                    : "");
  }

  // --- Client: the observability surface. Each /log row carries the trace
  // id of the request that produced it; /trace/<id> returns that request's
  // span tree (in remote mode with the shard servers' child spans stitched
  // in), and /metrics aggregates the same stage timings fleet-wide. ---
  std::string trace_id;
  for (const JsonValue& e : log.Get("entries").array_items()) {
    if (e.Has("trace_id")) trace_id = e.Get("trace_id").as_string();
  }
  if (!trace_id.empty()) {
    std::printf("\nGET /trace/%s\n", trace_id.c_str());
    const JsonValue trace =
        MustParse(HttpFetch(service->port(), "GET", "/trace/" + trace_id));
    const auto& spans = trace.Get("spans").array_items();
    const size_t shown = std::min<size_t>(spans.size(), 12);
    for (size_t i = 0; i < shown; ++i) {
      std::printf("  %-28s %8.3f ms  [%s]\n",
                  spans[i].Get("name").as_string().c_str(),
                  spans[i].Get("duration_ms").as_number(),
                  spans[i].Get("node").as_string().c_str());
    }
    if (spans.size() > shown) {
      std::printf("  ... %zu more spans\n", spans.size() - shown);
    }
  }
  if (auto metrics = HttpFetch(service->port(), "GET", "/metrics");
      metrics.ok()) {
    std::printf("\nGET /metrics (request counters; full catalogue in "
                "docs/observability.md)\n");
    std::istringstream lines(*metrics);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("yask_http_requests_total", 0) == 0) {
        std::printf("  %s\n", line.c_str());
      }
    }
  }

  // --- Client gives up asking why-not questions: drop the cached query. ---
  JsonValue forget = JsonValue::MakeObject();
  forget.Set("query_id", qresp.Get("query_id"));
  MustParse(HttpFetch(service->port(), "POST", "/forget", forget.Dump()));
  std::printf("\nPOST /forget -> initial query released from the cache\n");

  service->Stop();
  return 0;
}
