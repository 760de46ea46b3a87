// The YASK serving benchmark: one workload per run, every answer checked.
//
//   servebench --workload query_hot|whynot_local|whynot_remote --seed N
//              --seconds S --trace 0|1 [--source-id ID]
//
// Everything runs in this one process over loopback: the shard fleet
// (ShardService threads), the coordinator or single-replica YaskService, and
// the load generator (at most 4 client threads). The result cache is off.
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// untraced load first, then replays the workload's requests one at a time
// with spans around the client call, the JsonValue calls, WhyNotEngine::TopK,
// each why-not stage and every oracle primitive (tracing.h), and prints the
// per-layer table and metrics. servebench/README.md defines every metric.
//
// The last stdout line is the result JSON: {"correct", "attempted",
// "failed", "metrics"}. Any failed request or payload mismatch makes the
// exit code non-zero.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "servebench/tracing.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/shard_router.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/http_client.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/whynot/why_not_engine.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using yask::JsonValue;
using yask::ObjectId;
using yask::Query;

// --- Fixed workload parameters (also stated in BENCHMARK.json). -----------

constexpr size_t kObjects = 50000;  // SharedDatasetSpec(n).
constexpr int kSetupRepeats = 7;    // setup_s is the median of these.
constexpr int kTimeoutMs = 60000;

// query_hot: open-loop /query against a coordinator over 2 remote shards.
constexpr size_t kHotShards = 2;
constexpr double kHotRate = 300.0;  // req/s, all connections together.
constexpr size_t kHotConns = 4;
constexpr double kWindowSeconds = 2.0;  // query_hot measures in windows.

// whynot_local / whynot_remote: closed-loop why-not sessions.
constexpr size_t kUsers = 2;
constexpr size_t kSessions = 64;  // Questions in the session catalogue.
constexpr uint64_t kCatalogueSeed = yask::bench::kDatasetSeed + 11;
constexpr size_t kSessionKeywords = 3;
constexpr uint32_t kSessionK = 10;
constexpr size_t kMissingOffset = 4;
constexpr double kLambda = 0.5;
constexpr size_t kWarmupSessions = 8;
constexpr size_t kMinPasses = 3;  // Why-not runs measure whole passes.
// whynot_remote: 4 remote shards plus an open-loop /query side stream.
constexpr size_t kRemoteShards = 4;
constexpr double kSideRate = 100.0;
constexpr size_t kSideConns = 2;

// Traced replay of query_hot: this many requests, one at a time.
constexpr size_t kTracedQueries = 400;

enum class Workload { kQueryHot, kWhyNotLocal, kWhyNotRemote };

struct Args {
  Workload workload = Workload::kQueryHot;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
};

// --- Small helpers ----------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Starts VmHWM over from the current RSS, after returning freed heap pages.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Aggregate CPU ticks of the host from /proc/stat (steal = hypervisor).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    // Fields 8 and 9 (guest, guest_nice) are already counted in user/nice.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTicks& a, const CpuTicks& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

/// Drops the per-request fields (response_millis, query_id) and re-dumps:
/// what is left must be byte-identical to the reference answer.
JsonValue Strip(const JsonValue& v) {
  if (v.is_object()) {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [key, value] : v.object_items()) {
      if (key == "response_millis" || key == "query_id") continue;
      out.Set(key, Strip(value));
    }
    return out;
  }
  if (v.is_array()) {
    JsonValue out = JsonValue::MakeArray();
    for (const JsonValue& item : v.array_items()) out.Append(Strip(item));
    return out;
  }
  return v;
}

std::optional<std::string> Normalized(const std::string& payload) {
  auto parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) return std::nullopt;
  return Strip(parsed.value()).Dump();
}

std::string QueryBody(const Query& q, const yask::Vocabulary& vocab) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("x", JsonValue(q.loc.x));
  body.Set("y", JsonValue(q.loc.y));
  body.Set("keywords", JsonValue(q.doc.ToString(vocab)));
  body.Set("k", JsonValue(static_cast<size_t>(q.k)));
  return body.Dump();
}

std::string WhyNotBody(uint64_t query_id, const std::vector<ObjectId>& missing) {
  JsonValue ids = JsonValue::MakeArray();
  for (ObjectId id : missing) ids.Append(JsonValue(static_cast<size_t>(id)));
  JsonValue body = JsonValue::MakeObject();
  body.Set("query_id", JsonValue(static_cast<size_t>(query_id)));
  body.Set("missing", std::move(ids));
  body.Set("model", JsonValue("both"));
  body.Set("lambda", JsonValue(kLambda));
  return body.Dump();
}

/// One /query request and what its result list must be. `query` is the
/// query exactly as the server parses it from `body` (coordinates round-trip
/// through the JSON number format), so the reference top-k is computed on
/// the same input the server sees.
struct QueryCase {
  std::string body;
  Query query;
  std::vector<ObjectId> expect_ids;
};

QueryCase MakeQueryCase(const yask::ObjectStore& store, const Query& raw) {
  QueryCase c;
  c.body = QueryBody(raw, store.vocab());
  const JsonValue parsed = JsonValue::Parse(c.body).value();
  c.query = raw;
  c.query.loc = yask::Point{parsed.Get("x").as_number(),
                            parsed.Get("y").as_number()};
  c.query.w = yask::Weights{};  // The service's system weights.
  // Independent reference: a full scan that shares no index code.
  for (const yask::ScoredObject& so : yask::TopKScan(store, c.query)) {
    c.expect_ids.push_back(so.id);
  }
  return c;
}

/// The result ids of a /query payload, or nullopt if it does not parse.
std::optional<std::vector<ObjectId>> ResultIds(const std::string& payload,
                                               uint64_t* query_id = nullptr) {
  auto parsed = JsonValue::Parse(payload);
  if (!parsed.ok() || !parsed->Get("results").is_array()) return std::nullopt;
  std::vector<ObjectId> ids;
  for (const JsonValue& row : parsed->Get("results").array_items()) {
    ids.push_back(static_cast<ObjectId>(row.Get("id").as_number()));
  }
  if (query_id != nullptr) {
    *query_id = static_cast<uint64_t>(parsed->Get("query_id").as_number());
  }
  return ids;
}

/// A why-not session: the initial query, then "why not these objects?".
struct Session {
  QueryCase query;
  std::vector<ObjectId> missing;
  std::string reference;  // Normalized unsharded in-process /whynot payload.
};

/// The session catalogue: MakeQuery (3 keywords, k = 10); the missing set
/// is one object just past the top-k, two objects in every fourth session.
/// The catalogue is fixed like ProductionWorkload's shapes; --seed permutes
/// the order it is answered in (see PassOrder). Two-object questions
/// cost 0.1-1.3 s against 30-80 ms for one object, so a seed-drawn list of
/// 64 moved the per-session means by up to 70% from seed to seed.
std::vector<Session> MakeSessions(const yask::ObjectStore& store) {
  yask::Rng rng(kCatalogueSeed);
  std::vector<Session> sessions;
  while (sessions.size() < kSessions) {
    const Query raw =
        yask::bench::MakeQuery(store, &rng, kSessionKeywords, kSessionK);
    Session s;
    s.query = MakeQueryCase(store, raw);
    const size_t count = sessions.size() % 4 == 3 ? 2 : 1;
    s.missing = yask::bench::PickMissing(store, s.query.query, count,
                                         kMissingOffset);
    if (s.missing.size() != count || s.query.expect_ids.size() != kSessionK) {
      continue;  // Too few matching objects around this location.
    }
    sessions.push_back(std::move(s));
  }
  return sessions;
}

/// One HTTP exchange as the client saw it.
struct Exchange {
  bool transport_ok = false;
  int status = 0;
  Clock::time_point due;   // When the request was due to be sent.
  Clock::time_point done;  // When its response (or failure) arrived.
  double ms = 0.0;         // done - due.
  std::string body;
};

Exchange Post(yask::HttpClientConnection* conn, uint16_t port,
              const std::string& path, const std::string& body,
              Clock::time_point due) {
  Exchange ex;
  ex.due = due;
  if (!conn->connected() &&
      !conn->Connect("127.0.0.1", port, kTimeoutMs).ok()) {
    ex.done = Clock::now();
    ex.ms = MsBetween(due, ex.done);
    return ex;
  }
  auto resp = conn->Call("POST", path, body, kTimeoutMs, &ex.status);
  ex.done = Clock::now();
  ex.ms = MsBetween(due, ex.done);
  if (resp.ok()) {
    ex.transport_ok = true;
    ex.body = std::move(resp).value();
  } else {
    conn->Close();
  }
  return ex;
}

// --- Serving layouts ----------------------------------------------------------

/// One serving layout plus the service in front of it. Members are declared
/// in dependency order, so destruction stops the service first, then drops
/// the coordinator's connections, then the shard servers, then the data.
struct Fleet {
  std::optional<yask::Corpus> corpus;
  std::optional<yask::ShardedCorpus> sharded;
  std::vector<std::unique_ptr<yask::ShardService>> shards;
  std::optional<yask::RemoteCorpus> remote;
  std::unique_ptr<yask::YaskService> service;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (service) service->Stop();
    service.reset();
    remote.reset();
    for (auto& s : shards) s->Stop();
  }
  uint16_t port() const { return service->port(); }
};

/// Builds the workload's layout from the generated store, boots it, and
/// waits for its first answered /query. This is exactly what setup_s times.
std::unique_ptr<Fleet> Boot(Workload workload, const yask::ObjectStore& store,
                            const std::string& first_body, std::string* err) {
  auto fleet = std::make_unique<Fleet>();
  if (workload == Workload::kWhyNotLocal) {
    fleet->corpus.emplace(yask::CorpusBuilder().Build(store));
    fleet->service = std::make_unique<yask::YaskService>(*fleet->corpus);
  } else {
    const size_t num_shards =
        workload == Workload::kQueryHot ? kHotShards : kRemoteShards;
    fleet->sharded.emplace(yask::ShardedCorpus::Partition(
        store, yask::GridShardRouter::Fit(
                   store, static_cast<uint32_t>(num_shards))));
    const yask::ShardedCorpus& sharded = *fleet->sharded;
    std::vector<std::string> endpoints;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      yask::ShardService::Info info;
      info.shard_index = static_cast<uint32_t>(s);
      info.shard_count = static_cast<uint32_t>(sharded.num_shards());
      info.global_bounds = sharded.bounds();
      info.dist_norm = sharded.dist_norm();
      info.to_global = sharded.shard_global_ids(s);
      info.router = sharded.router_description();
      auto service =
          std::make_unique<yask::ShardService>(sharded.shard(s), info);
      if (!service->Start().ok()) {
        *err = "cannot start shard server " + std::to_string(s);
        return nullptr;
      }
      endpoints.push_back("127.0.0.1:" + std::to_string(service->port()));
      fleet->shards.push_back(std::move(service));
    }
    auto remote = yask::RemoteCorpus::Connect(endpoints);
    if (!remote.ok()) {
      *err = "coordinator connect failed: " + remote.status().ToString();
      return nullptr;
    }
    fleet->remote.emplace(std::move(remote).value());
    fleet->service = std::make_unique<yask::YaskService>(*fleet->remote);
  }
  if (!fleet->service->Start().ok()) {
    *err = "cannot start the YASK service";
    return nullptr;
  }
  yask::HttpClientConnection conn;
  const Exchange first =
      Post(&conn, fleet->port(), "/query", first_body, Clock::now());
  if (!first.transport_ok || first.status != 200) {
    *err = "first /query was not answered";
    return nullptr;
  }
  return fleet;
}

// --- Load generation --------------------------------------------------------

/// One answered request: when it was due, when it finished, its latency.
struct Timed {
  Clock::time_point due;
  Clock::time_point done;
  double ms = 0.0;
};

/// Outcome of every request of one measured phase, checked after the
/// requests were sent so that checking costs no client CPU while measuring.
struct PhaseLog {
  std::vector<Timed> query;   // /query latencies.
  std::vector<Timed> whynot;  // /whynot latencies.
  std::vector<double> late_ms;  // Open-loop send lag behind schedule.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  void Merge(const PhaseLog& other) {
    query.insert(query.end(), other.query.begin(), other.query.end());
    whynot.insert(whynot.end(), other.whynot.begin(), other.whynot.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) first_failure = other.first_failure;
  }
};

std::vector<double> Latencies(const std::vector<Timed>& requests) {
  std::vector<double> ms;
  for (const Timed& t : requests) ms.push_back(t.ms);
  return ms;
}

/// Checks one /query exchange against its case.
void CheckQuery(const Exchange& ex, const QueryCase& c, PhaseLog* log) {
  ++log->attempted;
  if (!ex.transport_ok || ex.status != 200) {
    log->Fail("/query answered status " + std::to_string(ex.status));
    return;
  }
  const auto ids = ResultIds(ex.body);
  if (!ids.has_value() || *ids != c.expect_ids) {
    log->Fail("/query result list differs from the full-scan top-k for " +
              c.body);
  }
}

void CheckWhyNot(const Exchange& ex, const Session& s, PhaseLog* log) {
  ++log->attempted;
  if (!ex.transport_ok || ex.status != 200) {
    log->Fail("/whynot answered status " + std::to_string(ex.status));
    return;
  }
  const auto norm = Normalized(ex.body);
  if (!norm.has_value() || *norm != s.reference) {
    log->Fail("/whynot payload differs from the unsharded answer for " +
              s.query.body);
  }
}

/// Open-loop /query stream: `conns` connections share `rate` req/s, each on
/// its own staggered schedule; latency runs from the due time. Stops at the
/// first due time `keep_going` rejects.
void RunOpenLoop(uint16_t port, size_t conns, double rate,
                 const std::vector<QueryCase>& shapes,
                 const yask::bench::ProductionWorkload& workload,
                 uint64_t seed, Clock::time_point start,
                 const std::function<bool(Clock::time_point)>& keep_going,
                 PhaseLog* out) {
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 * static_cast<double>(conns) / rate));
  std::vector<PhaseLog> logs(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      yask::Rng rng(seed * 7919 + c + 1);
      yask::HttpClientConnection conn;
      std::vector<std::pair<size_t, Exchange>> done;
      const auto phase = interval * static_cast<int64_t>(c) /
                         static_cast<int64_t>(conns);
      for (int64_t i = 0;; ++i) {
        const Clock::time_point due = start + phase + interval * i;
        if (!keep_going(due)) break;
        std::this_thread::sleep_until(due);
        logs[c].late_ms.push_back(MsBetween(due, Clock::now()));
        const size_t shape = workload.Draw(&rng);
        done.emplace_back(shape,
                          Post(&conn, port, "/query", shapes[shape].body, due));
      }
      for (auto& [shape, ex] : done) {
        logs[c].query.push_back(Timed{ex.due, ex.done, ex.ms});
        CheckQuery(ex, shapes[shape], &logs[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const PhaseLog& log : logs) out->Merge(log);
}

/// The order of pass `pass` over the catalogue: a seeded permutation.
std::vector<size_t> PassOrder(size_t size, uint64_t seed, size_t pass) {
  yask::Rng rng(seed * 0x9E3779B97F4A7C15ULL + pass * 7919 + 17);
  std::vector<size_t> order(size);
  for (size_t i = 0; i < size; ++i) order[i] = i;
  for (size_t i = size; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

/// One session over a keep-alive connection: POST /query, then POST /whynot
/// for the returned query_id.
std::pair<Exchange, Exchange> RunSession(yask::HttpClientConnection* conn,
                                         uint16_t port, const Session& s) {
  Exchange q = Post(conn, port, "/query", s.query.body, Clock::now());
  uint64_t query_id = 0;
  if (!q.transport_ok || q.status != 200 ||
      !ResultIds(q.body, &query_id).has_value()) {
    return {std::move(q), Exchange{}};
  }
  Exchange w = Post(conn, port, "/whynot", WhyNotBody(query_id, s.missing),
                    Clock::now());
  return {std::move(q), std::move(w)};
}

/// `kUsers` closed-loop users answering the sessions listed in `order`: each
/// takes the next unanswered one as soon as its previous session finished.
void RunUsers(uint16_t port, const std::vector<Session>& sessions,
              const std::vector<size_t>& order, PhaseLog* out) {
  std::atomic<size_t> next{0};
  std::vector<PhaseLog> logs(kUsers);
  std::vector<std::thread> users;
  for (size_t u = 0; u < kUsers; ++u) {
    users.emplace_back([&, u] {
      yask::HttpClientConnection conn;
      std::vector<std::pair<size_t, std::pair<Exchange, Exchange>>> done;
      for (size_t at = next++; at < order.size(); at = next++) {
        done.emplace_back(order[at],
                          RunSession(&conn, port, sessions[order[at]]));
      }
      for (auto& [i, exchanges] : done) {
        const Exchange& q = exchanges.first;
        const Exchange& w = exchanges.second;
        logs[u].query.push_back(Timed{q.due, q.done, q.ms});
        logs[u].whynot.push_back(Timed{w.due, w.done, w.ms});
        CheckQuery(q, sessions[i].query, &logs[u]);
        CheckWhyNot(w, sessions[i], &logs[u]);
      }
    });
  }
  for (std::thread& t : users) t.join();
  for (const PhaseLog& log : logs) out->Merge(log);
}

// --- Registries (RemoteCorpus / ShardService metrics) ------------------------

/// Shard routes whose handler time the shard servers record.
const std::vector<std::string>& ShardRoutes() {
  static const std::vector<std::string> kRoutes = {
      yask::shardrpc::kTopKPath,           yask::shardrpc::kCountPath,
      yask::shardrpc::kObjectsPath,        yask::shardrpc::kPlaneOpenPath,
      yask::shardrpc::kPlaneCountPath,     yask::shardrpc::kPlaneCountBatchPath,
      yask::shardrpc::kPlaneCrossingsPath, yask::shardrpc::kPlaneClosePath,
      yask::shardrpc::kProbeOpenPath,      yask::shardrpc::kProbeRefinePath,
      yask::shardrpc::kProbeClosePath};
  return kRoutes;
}

bool IsPlaneRoute(const std::string& route) {
  return route.rfind("/shard/plane/", 0) == 0;
}

/// A snapshot of the remote tier's counters: client-side RPC count and
/// latency sum (RemoteCorpus registry), shard-side handler time per route
/// (every ShardService registry).
struct RegistrySnapshot {
  uint64_t requests = 0;
  double rpc_count = 0.0;
  double rpc_ms = 0.0;
  std::map<std::string, double> route_ms;     // Summed over shards.
  std::map<std::string, double> route_count;  // Summed over shards.

  static RegistrySnapshot Take(const Fleet& fleet) {
    RegistrySnapshot s;
    if (!fleet.remote.has_value()) return s;
    s.requests = fleet.remote->total_requests();
    for (const auto& shard : fleet.shards) {
      const std::string replica = "127.0.0.1:" + std::to_string(shard->port());
      const yask::Histogram* h = fleet.remote->metrics().GetHistogram(
          "yask_replica_rpc_latency_ms", {{"replica", replica}});
      s.rpc_count += static_cast<double>(h->count());
      s.rpc_ms += h->sum();
      for (const std::string& route : ShardRoutes()) {
        const yask::Histogram* r = shard->metrics().GetHistogram(
            "yask_shard_request_ms", {{"endpoint", route}});
        s.route_ms[route] += r->sum();
        s.route_count[route] += static_cast<double>(r->count());
      }
    }
    return s;
  }
};

/// after − before, per field.
struct RegistryDelta {
  double requests = 0.0;
  double rpc_count = 0.0;
  double rpc_ms = 0.0;
  std::map<std::string, double> route_ms;
  std::map<std::string, double> route_count;

  RegistryDelta() = default;
  RegistryDelta(const RegistrySnapshot& a, const RegistrySnapshot& b)
      : requests(static_cast<double>(b.requests - a.requests)),
        rpc_count(b.rpc_count - a.rpc_count),
        rpc_ms(b.rpc_ms - a.rpc_ms) {
    for (const auto& [route, ms] : b.route_ms) {
      route_ms[route] = ms - a.route_ms.at(route);
      route_count[route] = b.route_count.at(route) - a.route_count.at(route);
    }
  }
  double compute_ms() const {
    double sum = 0.0;
    for (const auto& [route, ms] : route_ms) sum += ms;
    return sum;
  }
  double compute_count() const {
    double sum = 0.0;
    for (const auto& [route, n] : route_count) sum += n;
    return sum;
  }
  void Add(const RegistryDelta& d) {
    requests += d.requests;
    rpc_count += d.rpc_count;
    rpc_ms += d.rpc_ms;
    for (const auto& [route, ms] : d.route_ms) route_ms[route] += ms;
    for (const auto& [route, n] : d.route_count) route_count[route] += n;
  }
};

// --- Traced replay ------------------------------------------------------------

/// Everything the staged (traced) why-not pass measured for one question.
struct StagedAnswer {
  double explain_ms = 0.0;
  double preference_ms = 0.0;
  double keyword_ms = 0.0;
  double refined_ms = 0.0;
  std::optional<yask::RefinedPreferenceQuery> preference;
  std::optional<yask::RefinedKeywordQuery> keyword;
};

/// WhyNotEngine::Answer's stage order, run from outside over `oracle`:
/// explain, then preference ∥ keyword on two threads, then the refined
/// top-k of the recommended model (same recommendation rule as Answer).
bool RunStages(const yask::WhyNotOracle& oracle, const Query& q,
               const std::vector<ObjectId>& missing, StagedAnswer* out) {
  auto timed = [](double* ms, auto&& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    *ms = MsBetween(t0, Clock::now());
    return result;
  };
  auto explained = timed(&out->explain_ms, [&] {
    BenchSpan span("whynot/explain");
    return yask::ExplainMissing(oracle, q, missing);
  });
  if (!explained.ok()) return false;

  yask::PreferenceAdjustOptions po;
  po.lambda = kLambda;
  yask::KeywordAdaptOptions ko;
  ko.lambda = kLambda;
  std::optional<yask::Result<yask::RefinedKeywordQuery>> kw;
  const TraceContext ctx = tls_trace;
  std::thread kw_thread([&] {
    TraceScope scope(ctx);
    kw.emplace(timed(&out->keyword_ms, [&] {
      BenchSpan span("whynot/keyword");
      return yask::AdaptKeywords(oracle, q, missing, ko);
    }));
  });
  auto pref = timed(&out->preference_ms, [&] {
    BenchSpan span("whynot/preference");
    return yask::AdjustPreference(oracle, q, missing, po);
  });
  kw_thread.join();
  if (!pref.ok() || !kw->ok()) return false;
  out->preference = std::move(pref).value();
  out->keyword = std::move(*kw).value();

  const Query* refined = &q;
  if (!out->preference->already_in_result &&
      !out->keyword->already_in_result) {
    refined = out->preference->penalty.value <= out->keyword->penalty.value
                  ? &out->preference->refined
                  : &out->keyword->refined;
  }
  timed(&out->refined_ms, [&] {
    BenchSpan span("whynot/refined_topk");
    return oracle.TopK(*refined, nullptr);
  });
  return true;
}

/// The staged pass must reproduce the engine's own answer: same refined
/// queries and (where they repeat exactly) the same work counters.
bool SameAnswer(const StagedAnswer& staged, const yask::WhyNotAnswer& plain,
                bool remote) {
  const auto& sp = *staged.preference;
  const auto& pp = *plain.preference;
  const auto& sk = *staged.keyword;
  const auto& pk = *plain.keyword;
  bool same = sp.refined.w.ws == pp.refined.w.ws &&
              sp.refined.k == pp.refined.k &&
              sp.penalty.value == pp.penalty.value &&
              sp.stats.crossings_found == pp.stats.crossings_found &&
              sp.stats.candidates_evaluated == pp.stats.candidates_evaluated &&
              sk.refined.doc == pk.refined.doc &&
              sk.refined.k == pk.refined.k &&
              sk.penalty.value == pk.penalty.value &&
              sk.stats.candidates_generated == pk.stats.candidates_generated &&
              sk.stats.candidates_resolved == pk.stats.candidates_resolved &&
              sk.stats.refine_levels == pk.stats.refine_levels;
  // Remote sweep segment sizes follow the RPC-latency EWMA.
  if (!remote) same = same && sp.stats.sweep_fanouts == pp.stats.sweep_fanouts;
  return same;
}

/// Per-request samples of the traced replay.
struct TraceSamples {
  std::map<std::string, std::vector<double>> series;
  void Add(const std::string& name, double v) { series[name].push_back(v); }
  double MeanOf(const std::string& name) const {
    auto it = series.find(name);
    return it == series.end() ? 0.0 : Mean(it->second);
  }
};

/// Client-side view of one traced HTTP exchange: the call span, the JSON
/// parse and re-dump of the real payload, and the server overhead (client
/// latency minus the response's own response_millis).
struct ClientSide {
  Exchange ex;
  double overhead_ms = 0.0;
  double parse_us = 0.0;
  double dump_us = 0.0;
};

ClientSide TracedPost(yask::HttpClientConnection* conn, uint16_t port,
                      const char* span_name, const std::string& path,
                      const std::string& body) {
  ClientSide cs;
  {
    BenchSpan span(span_name);
    cs.ex = Post(conn, port, path, body, Clock::now());
  }
  if (!cs.ex.transport_ok) return cs;
  auto t0 = Clock::now();
  std::optional<JsonValue> parsed;
  {
    BenchSpan span("json/parse");
    auto r = JsonValue::Parse(cs.ex.body);
    if (r.ok()) parsed = std::move(r).value();
  }
  cs.parse_us = MsBetween(t0, Clock::now()) * 1e3;
  if (!parsed.has_value()) return cs;
  t0 = Clock::now();
  {
    BenchSpan span("json/dump");
    parsed->Dump();  // What the server's render costs for this payload.
  }
  cs.dump_us = MsBetween(t0, Clock::now()) * 1e3;
  cs.overhead_ms = cs.ex.ms - parsed->Get("response_millis").as_number();
  return cs;
}

/// Self time per span name: duration minus the part covered by children.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans) {
  std::map<uint64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    SpanTotals& t = totals[s.name];
    const double d = s.end_ms - s.start_ms;
    ++t.count;
    t.total_ms += d;
    // Children of a parallel stage can overlap; self time never goes below 0.
    t.self_ms += std::max(0.0, d - child_ms[s.id]);
  }
  return totals;
}

/// The stage a span belongs to (its nearest whynot/* ancestor), or "".
std::string StageOf(const Span& s, const std::map<uint64_t, const Span*>& by_id) {
  const Span* cur = &s;
  while (cur != nullptr) {
    const std::string name = cur->name;
    if (name.rfind("whynot/", 0) == 0) return name;
    auto it = by_id.find(cur->parent);
    cur = it == by_id.end() ? nullptr : it->second;
  }
  return "";
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// {"name": {"value": v, "unit": u}, ...} with every digit of each value
/// (JsonValue would round to 12 significant digits).
std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// The result line: always the last line of stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc + 1; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload_name = value;
      have_workload = true;
      if (value == "query_hot") {
        args->workload = Workload::kQueryHot;
      } else if (value == "whynot_local") {
        args->workload = Workload::kWhyNotLocal;
      } else if (value == "whynot_remote") {
        args->workload = Workload::kWhyNotRemote;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0.0;
}

int Run(const Args& args) {
  const bool remote = args.workload != Workload::kWhyNotLocal;
  const bool whynot = args.workload != Workload::kQueryHot;

  std::printf("host: cores=%u compiler=\"%s\" build=%s source=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              SERVEBENCH_BUILD_TYPE, args.source_id.c_str());
  std::printf("workload=%s seed=%llu seconds=%.3g trace=%d\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // Inputs: the shared synthetic dataset, the /query shapes and the session
  // catalogue. --seed drives the order and timing they are sent in.
  auto t0 = Clock::now();
  const yask::ObjectStore store =
      yask::GenerateDataset(yask::bench::SharedDatasetSpec(kObjects));
  const yask::bench::ProductionWorkload workload(store);
  std::vector<QueryCase> shapes;
  for (size_t i = 0; i < workload.distinct(); ++i) {
    shapes.push_back(MakeQueryCase(store, workload.shape(i)));
  }
  std::vector<Session> sessions;
  if (whynot) sessions = MakeSessions(store);
  std::printf("inputs: n=%zu, %zu query shapes, %zu sessions (%.0f ms)\n",
              store.size(), shapes.size(), sessions.size(),
              MsBetween(t0, Clock::now()));

  // Reference /whynot payloads: the unsharded in-process service, one
  // session at a time. It is freed before set-up and the peak RSS starts
  // over, so peak_rss_mb covers only the layout that serves the run.
  if (whynot) {
    t0 = Clock::now();
    std::string err;
    const std::unique_ptr<Fleet> ref =
        Boot(Workload::kWhyNotLocal, store, shapes[0].body, &err);
    if (ref == nullptr) {
      std::fprintf(stderr, "reference set-up failed: %s\n", err.c_str());
      return 1;
    }
    yask::HttpClientConnection conn;
    for (Session& s : sessions) {
      auto [q, w] = RunSession(&conn, ref->port(), s);
      auto norm = w.transport_ok && w.status == 200 ? Normalized(w.body)
                                                    : std::nullopt;
      if (!norm.has_value()) {
        std::fprintf(stderr, "reference session failed: %s (status %d)\n",
                     s.query.body.c_str(), w.status);
        return 1;
      }
      s.reference = std::move(*norm);
    }
    std::printf("references: %zu sessions (%.0f ms)\n", sessions.size(),
                MsBetween(t0, Clock::now()));
  }
  ResetPeakRss();

  // Set-up, several times; the last fleet serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fleet.reset();
    std::string err;
    t0 = Clock::now();
    fleet = Boot(args.workload, store, shapes[0].body, &err);
    if (fleet == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  std::printf("setup:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");

  // Warm-up, not measured: every /query shape once; why-not workloads also
  // run a few sessions so lazy state (object caches, connections) is filled.
  {
    PhaseLog warm;
    yask::HttpClientConnection conn;
    for (const QueryCase& c : shapes) {
      CheckQuery(Post(&conn, fleet->port(), "/query", c.body, Clock::now()),
                 c, &warm);
    }
    if (whynot) {
      std::vector<size_t> order = PassOrder(sessions.size(), args.seed, 0);
      order.resize(kWarmupSessions);
      RunUsers(fleet->port(), sessions, order, &warm);
    }
    if (warm.failed != 0) {
      std::fprintf(stderr, "warm-up check failed: %s\n",
                   warm.first_failure.c_str());
      PrintResult(false, warm.attempted, warm.failed, {});
      return 1;
    }
  }

  // --- The measured, untraced phase, in consecutive windows. ---
  // query_hot: fixed-length windows of the open-loop stream. Why-not
  // workloads: one window per pass over the catalogue (at least kMinPasses,
  // more until --seconds have passed). op_cpu_ms, the why-not op_per_s and
  // the latency percentiles are medians of per-window values, so a burst of
  // host noise inside one window does not move the run's figure.
  struct WindowStats {
    std::vector<double> query_ms;
    std::vector<double> op_ms;
    double cpu_ms = 0.0;
    double ops = 0.0;
    double seconds = 0.0;
    double steal_pct = 0.0;
  };
  std::vector<WindowStats> windows;
  PhaseLog phase;
  const CpuTicks ticks0 = ReadCpuTicks();
  CpuTicks ticks_mark = ticks0;
  double cpu_mark = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  if (args.workload == Workload::kQueryHot) {
    const size_t count = static_cast<size_t>(
        std::max(1.0, std::round(args.seconds / kWindowSeconds)));
    const auto length = std::chrono::nanoseconds(static_cast<int64_t>(
        args.seconds * 1e9 / static_cast<double>(count)));
    const Clock::time_point end = start + length * static_cast<int64_t>(count);
    std::thread stream([&] {
      RunOpenLoop(fleet->port(), kHotConns, kHotRate, shapes, workload,
                  args.seed, start,
                  [end](Clock::time_point due) { return due < end; }, &phase);
    });
    windows.resize(count);
    for (size_t w = 0; w < count; ++w) {
      std::this_thread::sleep_until(start + length * static_cast<int64_t>(w + 1));
      const double cpu_now = ProcessCpuMs();
      const CpuTicks ticks_now = ReadCpuTicks();
      windows[w].cpu_ms = cpu_now - cpu_mark;
      windows[w].steal_pct = StealPct(ticks_mark, ticks_now);
      cpu_mark = cpu_now;
      ticks_mark = ticks_now;
    }
    stream.join();
    for (const Timed& t : phase.query) {
      const auto w = static_cast<size_t>((t.due - start) / length);
      if (w < count) windows[w].query_ms.push_back(t.ms);
    }
    for (WindowStats& w : windows) {
      w.op_ms = w.query_ms;
      // CPU per request: the window's process CPU over the requests due in it.
      w.cpu_ms /= std::max<double>(1.0, static_cast<double>(w.query_ms.size()));
    }
  } else {
    std::atomic<bool> users_done{false};
    PhaseLog side;
    std::thread side_stream;
    if (args.workload == Workload::kWhyNotRemote) {
      side_stream = std::thread([&] {
        RunOpenLoop(fleet->port(), kSideConns, kSideRate, shapes, workload,
                    args.seed, start,
                    [&](Clock::time_point) { return !users_done.load(); },
                    &side);
      });
    }
    std::vector<std::pair<Clock::time_point, Clock::time_point>> bounds;
    for (size_t pass = 0;
         pass < kMinPasses || MsBetween(start, Clock::now()) < args.seconds * 1e3;
         ++pass) {
      const Clock::time_point t0 = Clock::now();
      PhaseLog pass_log;
      RunUsers(fleet->port(), sessions,
               PassOrder(sessions.size(), args.seed, pass + 1), &pass_log);
      const Clock::time_point t1 = Clock::now();
      const double cpu_now = ProcessCpuMs();
      const CpuTicks ticks_now = ReadCpuTicks();
      WindowStats w;
      w.steal_pct = StealPct(ticks_mark, ticks_now);
      ticks_mark = ticks_now;
      w.query_ms = Latencies(pass_log.query);
      w.op_ms = Latencies(pass_log.whynot);
      w.ops = static_cast<double>(sessions.size());
      w.seconds = MsBetween(t0, t1) / 1e3;
      w.cpu_ms = (cpu_now - cpu_mark) / w.ops;
      cpu_mark = cpu_now;
      windows.push_back(std::move(w));
      bounds.emplace_back(t0, t1);
      phase.Merge(pass_log);
    }
    users_done.store(true);
    if (side_stream.joinable()) side_stream.join();
    if (args.workload == Workload::kWhyNotRemote) {
      // This workload's /query latency is the side stream's, per pass.
      for (WindowStats& w : windows) w.query_ms.clear();
      for (const Timed& t : side.query) {
        for (size_t w = 0; w < bounds.size(); ++w) {
          if (t.due >= bounds[w].first && t.due < bounds[w].second) {
            windows[w].query_ms.push_back(t.ms);
          }
        }
      }
      phase.query.clear();
      phase.Merge(side);
    }
  }
  const double wall_s = MsBetween(start, Clock::now()) / 1e3;
  const double steal = StealPct(ticks0, ReadCpuTicks());

  // Why-not: the median pass's sessions per second. query_hot: requests
  // answered per second over the whole run; at the fixed offered rate it
  // only falls when the service stops keeping up.
  double ops_per_s = 0.0;
  if (whynot) {
    std::vector<double> rates;
    for (const WindowStats& w : windows) rates.push_back(w.ops / w.seconds);
    ops_per_s = Quantile(rates, 0.5);
  } else if (!phase.query.empty()) {
    Clock::time_point last = start;
    for (const Timed& t : phase.query) last = std::max(last, t.done);
    ops_per_s = static_cast<double>(phase.query.size()) /
                (MsBetween(start, last) / 1e3);
  }
  auto median_of = [&](const std::function<double(const WindowStats&)>& f) {
    std::vector<double> v;
    for (const WindowStats& w : windows) v.push_back(f(w));
    return Quantile(v, 0.5);
  };
  const std::vector<double> all_query = Latencies(phase.query);
  const std::vector<double> all_op =
      whynot ? Latencies(phase.whynot) : all_query;
  // The guarded end-to-end metrics are those that stay steady on a shared
  // 4-vCPU host: CPU per op, set-up time and memory. Wall-clock figures
  // track the hypervisor's steal (query_hot's /query p50 read 1.6 ms at 1%
  // steal and 5.9 ms at 20%; whynot_local's sessions/s spanned 12.1-19.9
  // over ten runs), so latency and throughput are printed as unguarded
  // diagnostics next to the steal that explains them. Latency taken from
  // low-steal windows only is no way out: in one 12-minute spell no 2-s
  // query_hot window had under 2% steal.
  //
  // The guest charges stolen time to whichever task was running, so the
  // process CPU of a window grows as cpu / (1 - steal share): whynot_remote
  // read 185 ms per session at 0% steal and 270-285 ms at 26-29%. op_cpu_ms
  // therefore takes each window's steal share out before the median.
  const std::vector<Metric> e2e = {
      {"op_cpu_ms", median_of([](const WindowStats& w) {
         return w.cpu_ms * (1.0 - w.steal_pct / 100.0);
       }),
       "ms"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const std::vector<Metric> diagnostics = {
      {"op_per_s", ops_per_s, "1/s"},
      {"query_p50_ms",
       median_of([](const WindowStats& w) { return Quantile(w.query_ms, 0.5); }),
       "ms"},
      {"query_p90_ms",
       median_of([](const WindowStats& w) { return Quantile(w.query_ms, 0.9); }),
       "ms"},
      {"query_p99_ms", Quantile(all_query, 0.99), "ms"},
      {"op_p50_ms",
       median_of([](const WindowStats& w) { return Quantile(w.op_ms, 0.5); }),
       "ms"},
      {"op_p90_ms",
       median_of([](const WindowStats& w) { return Quantile(w.op_ms, 0.9); }),
       "ms"},
      {"op_p99_ms", Quantile(all_op, 0.99), "ms"},
      {"op_cpu_raw_ms", median_of([](const WindowStats& w) { return w.cpu_ms; }),
       "ms"},
      {"loadgen_late_p99_ms", Quantile(phase.late_ms, 0.99), "ms"},
      {"steal_pct", steal, "%"},
      {"failed_frac",
       phase.attempted ? static_cast<double>(phase.failed) /
                             static_cast<double>(phase.attempted)
                       : 0.0,
       "ratio"},
  };
  std::printf("measured: %.2f s wall in %zu windows, %zu /query, %zu /whynot, "
              "steal %.2f%%, failed %llu of %llu\n",
              wall_s, windows.size(), phase.query.size(), phase.whynot.size(),
              steal, static_cast<unsigned long long>(phase.failed),
              static_cast<unsigned long long>(phase.attempted));
  std::printf("windows (op_p50_ms / op_cpu_ms / steal %%):");
  for (const WindowStats& w : windows) {
    std::printf(" %.2f/%.2f/%.1f", Quantile(w.op_ms, 0.5), w.cpu_ms,
                w.steal_pct);
  }
  std::printf("\n");
  for (const Metric& m : e2e) {
    std::printf("  %-20s %12.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("unguarded:\n");
  for (const Metric& m : diagnostics) {
    std::printf("  %-20s %12.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("diagnostics: %s\n", MetricsJson(diagnostics).c_str());
  if (phase.failed != 0) {
    std::fprintf(stderr, "CHECK FAILED: %llu of %llu requests wrong; first: %s\n",
                 static_cast<unsigned long long>(phase.failed),
                 static_cast<unsigned long long>(phase.attempted),
                 phase.first_failure.c_str());
    PrintResult(false, phase.attempted, phase.failed,
                args.trace ? std::vector<Metric>{} : e2e);
    return 1;
  }
  if (!args.trace) {
    PrintResult(true, phase.attempted, phase.failed, e2e);
    return 0;
  }

  // --- The traced replay: the same requests, one at a time. ---
  const double untraced_late_p99 = Quantile(phase.late_ms, 0.99);
  std::optional<yask::WhyNotEngine> plain_engine;
  if (remote) {
    plain_engine.emplace(
        std::make_unique<yask::RemoteShardOracle>(*fleet->remote));
  } else {
    plain_engine.emplace(*fleet->corpus);
  }
  const yask::WhyNotOracle& plain = plain_engine->oracle();
  SpanLog span_log;
  OracleCounts counts;
  const yask::WhyNotEngine traced_engine(
      std::make_unique<TracingOracle>(plain, &counts));
  const double num_shards =
      remote ? static_cast<double>(fleet->shards.size()) : 1.0;

  PhaseLog traced_log;
  TraceSamples samples;
  std::vector<Span> all_spans;
  RegistryDelta served_rpcs;   // Around the served requests of the workload.
  double staged_rpc_ms = 0.0;  // Client RPC time inside traced engine calls.
  double staged_oracle_ms = 0.0;  // Time inside traced oracle primitives.
  double plain_total_ms = 0.0;
  double traced_total_ms = 0.0;
  double parts_ms = 0.0;
  double client_ms = 0.0;
  uint64_t staged_mismatches = 0;
  uint64_t request = 0;
  yask::HttpClientConnection conn;

  // Oracle-primitive time of the newest spans, total and per stage.
  auto take_spans = [&](std::map<std::string, double>* by_stage) {
    std::vector<Span> spans = span_log.Take();
    std::map<uint64_t, const Span*> by_id;
    for (const Span& s : spans) by_id[s.id] = &s;
    double oracle_ms = 0.0;
    for (const Span& s : spans) {
      if (std::string(s.name).rfind("oracle/", 0) != 0) continue;
      const double d = s.end_ms - s.start_ms;
      oracle_ms += d;
      if (by_stage != nullptr) (*by_stage)[StageOf(s, by_id)] += d;
    }
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
    return oracle_ms;
  };

  auto replay_query = [&](const QueryCase& c, uint64_t* query_id) {
    TraceScope scope(TraceContext{&span_log, ++request, 0});
    const RegistrySnapshot before = RegistrySnapshot::Take(*fleet);
    const ClientSide cs =
        TracedPost(&conn, fleet->port(), "http/query", "/query", c.body);
    const RegistrySnapshot after = RegistrySnapshot::Take(*fleet);
    CheckQuery(cs.ex, c, &traced_log);
    if (query_id != nullptr) ResultIds(cs.ex.body, query_id);
    samples.Add("server.query_overhead_ms", cs.overhead_ms);
    samples.Add("server.json_parse_us", cs.parse_us);
    samples.Add("server.json_dump_us", cs.dump_us);
    samples.Add("server.response_bytes",
                static_cast<double>(cs.ex.body.size()));
    samples.Add("corpus.rpcs_per_query",
                static_cast<double>(after.requests - before.requests));
    // The engine's top-k alone, untraced and through the decorator. Which
    // runs first alternates, so cache warmth favours neither side.
    double plain_ms = 0.0;
    double topk_ms = 0.0;
    yask::TopKStats stats;
    auto untraced = [&] {
      const auto p0 = Clock::now();
      plain.TopK(c.query, nullptr);
      plain_ms = MsBetween(p0, Clock::now());
    };
    auto traced = [&] {
      take_spans(nullptr);
      const auto p0 = Clock::now();
      {
        BenchSpan span("engine/topk");
        traced_engine.TopK(c.query, &stats);
      }
      topk_ms = MsBetween(p0, Clock::now());
      take_spans(nullptr);
    };
    if (request % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    samples.Add("query.topk_ms", topk_ms);
    samples.Add("query.objects_scored",
                static_cast<double>(stats.objects_scored));
    samples.Add("query.nodes_popped", static_cast<double>(stats.nodes_popped));
    if (!whynot) {
      served_rpcs.Add(RegistryDelta(before, after));
      plain_total_ms += plain_ms;
      traced_total_ms += topk_ms;
      parts_ms += cs.overhead_ms + topk_ms;
      client_ms += cs.ex.ms;
    }
  };

  if (!whynot) {
    yask::Rng rng(args.seed * 104729 + 3);
    for (size_t i = 0; i < kTracedQueries; ++i) {
      replay_query(shapes[workload.Draw(&rng)], nullptr);
    }
  }
  for (const Session& s : sessions) {
    uint64_t query_id = 0;
    replay_query(s.query, &query_id);
    TraceScope scope(TraceContext{&span_log, ++request, 0});
    const RegistrySnapshot before = RegistrySnapshot::Take(*fleet);
    const ClientSide cs = TracedPost(&conn, fleet->port(), "http/whynot",
                                     "/whynot",
                                     WhyNotBody(query_id, s.missing));
    const RegistryDelta served(before, RegistrySnapshot::Take(*fleet));
    CheckWhyNot(cs.ex, s, &traced_log);
    served_rpcs.Add(served);
    samples.Add("server.whynot_overhead_ms", cs.overhead_ms);
    samples.Add("server.json_parse_us", cs.parse_us);
    samples.Add("server.json_dump_us", cs.dump_us);
    samples.Add("server.response_bytes",
                static_cast<double>(cs.ex.body.size()));
    samples.Add("corpus.rpcs_per_question", served.requests);

    // The engine's own answer, untraced: the tracing-overhead baseline.
    yask::WhyNotOptions options;
    options.lambda = kLambda;
    std::optional<yask::Result<yask::WhyNotAnswer>> answer;
    auto untraced = [&] {
      const auto p0 = Clock::now();
      answer.emplace(plain_engine->Answer(s.query.query, s.missing, options));
      plain_total_ms += MsBetween(p0, Clock::now());
    };
    // The same question staged through the decorator, with the registry
    // deltas and oracle time of its stages.
    StagedAnswer staged;
    bool ok = false;
    RegistryDelta stage_rpcs;
    std::map<std::string, double> oracle_by_stage;
    auto traced = [&] {
      take_spans(nullptr);
      counts.Reset();
      const RegistrySnapshot s0 = RegistrySnapshot::Take(*fleet);
      const auto p0 = Clock::now();
      ok = RunStages(traced_engine.oracle(), s.query.query, s.missing,
                     &staged);
      traced_total_ms += MsBetween(p0, Clock::now());
      stage_rpcs = RegistryDelta(s0, RegistrySnapshot::Take(*fleet));
      staged_oracle_ms += take_spans(&oracle_by_stage);
      staged_rpc_ms += stage_rpcs.rpc_ms;
    };
    if (request % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    if (!ok || !answer->ok() || !SameAnswer(staged, **answer, remote)) {
      ++staged_mismatches;
      continue;
    }
    samples.Add("whynot.explain_ms", staged.explain_ms);
    samples.Add("whynot.preference_ms", staged.preference_ms);
    samples.Add("whynot.keyword_ms", staged.keyword_ms);
    samples.Add("whynot.refined_topk_ms", staged.refined_ms);
    parts_ms += cs.overhead_ms + staged.explain_ms +
                std::max(staged.preference_ms, staged.keyword_ms) +
                staged.refined_ms;
    client_ms += cs.ex.ms;

    const yask::PreferenceAdjustStats& ps = staged.preference->stats;
    const yask::KeywordAdaptStats& ks = staged.keyword->stats;
    auto count = [&](const char* name, size_t v) {
      samples.Add(name, static_cast<double>(v));
    };
    count("whynot.crossings_found", ps.crossings_found);
    count("whynot.candidates_evaluated", ps.candidates_evaluated);
    count("whynot.sweep_fanouts", ps.sweep_fanouts);
    count("whynot.kw_candidates_generated", ks.candidates_generated);
    count("whynot.kw_candidates_pruned",
          ks.candidates_pruned_floor + ks.candidates_pruned_bounds);
    count("whynot.kw_candidates_resolved", ks.candidates_resolved);
    count("whynot.refine_levels", ks.refine_levels);
    count("whynot.probe_fanouts", ks.probe_fanouts);
    count("whynot.kw_objects_scored", ks.objects_scored);
    count("whynot.truncated", ks.truncated ? 1 : 0);
    count("index.kcr_nodes_expanded", ks.kcr_nodes_expanded);
    count("index.plane_nodes_visited", ps.index_nodes_visited);
    count("corpus.count_above_pairs", counts.count_above_pairs.load());
    count("corpus.oracle_fanouts", counts.total_calls());
    // The preference stage's RPC time: wall time inside its oracle calls
    // (one fan-out each, shards in parallel), split into the shard-side
    // handler time of the plane routes (mean over shards) and the rest:
    // wire plus the coordinator's fan-out (dispatch, slowest shard, merge).
    if (remote) {
      double plane_ms = 0.0;
      for (const auto& [route, ms] : stage_rpcs.route_ms) {
        if (IsPlaneRoute(route)) plane_ms += ms;
      }
      const double pref_rpc = oracle_by_stage["whynot/preference"];
      samples.Add("corpus.pref_rpc_ms", pref_rpc);
      samples.Add("corpus.pref_shard_compute_ms", plane_ms / num_shards);
      samples.Add("corpus.pref_wire_ms", pref_rpc - plane_ms / num_shards);
    }
  }

  // --- Per-layer report. ---
  const double units =
      static_cast<double>(whynot ? sessions.size() : kTracedQueries);
  std::printf("\nspans (per %s; self = minus children):\n",
              whynot ? "question" : "query");
  std::printf("  %-26s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : SummarizeSpans(all_spans)) {
    std::printf("  %-26s %8llu %12.4f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                t.total_ms / units, t.self_ms / units);
  }
  auto spread = [&](const char* name) {
    auto it = samples.series.find(name);
    if (it == samples.series.end()) return;
    std::printf("  %-34s median %.1f [q1 %.1f, q3 %.1f] over %zu\n", name,
                Quantile(it->second, 0.5), Quantile(it->second, 0.25),
                Quantile(it->second, 0.75), it->second.size());
  };
  std::printf("\nper-%s spread:\n", whynot ? "question" : "query");
  spread("whynot.sweep_fanouts");
  spread("corpus.rpcs_per_question");
  spread("corpus.rpcs_per_query");
  spread("whynot.preference_ms");
  spread("whynot.keyword_ms");

  auto per_rpc = [](double ms, double n) { return n > 0 ? ms / n : 0.0; };
  const double rpc_ms = per_rpc(served_rpcs.rpc_ms, served_rpcs.rpc_count);
  const double compute_ms =
      per_rpc(served_rpcs.compute_ms(), served_rpcs.compute_count());
  if (remote) {
    std::printf("\nshard compute per route (served requests, mean ms per "
                "request, requests):\n");
    for (const std::string& route : ShardRoutes()) {
      std::printf("  %-28s %10.4f %10.0f\n", route.c_str(),
                  per_rpc(served_rpcs.route_ms[route],
                          served_rpcs.route_count[route]),
                  served_rpcs.route_count[route]);
    }
    if (whynot) {
      std::printf("\npreference stage, per question: %.3f ms inside oracle "
                  "calls = plane-route shard compute %.3f ms (mean over "
                  "shards) + wire and coordinator fan-out %.3f ms\n",
                  samples.MeanOf("corpus.pref_rpc_ms"),
                  samples.MeanOf("corpus.pref_shard_compute_ms"),
                  samples.MeanOf("corpus.pref_wire_ms"));
    }
  }

  const double overhead_pct =
      plain_total_ms > 0 ? 100.0 * (traced_total_ms - plain_total_ms) /
                               plain_total_ms
                         : 0.0;
  const double parts_ratio = client_ms > 0 ? parts_ms / client_ms : 0.0;

  std::vector<Metric> layers = {
      {"server.query_overhead_ms", samples.MeanOf("server.query_overhead_ms"),
       "ms"},
      {"server.whynot_overhead_ms",
       samples.MeanOf("server.whynot_overhead_ms"), "ms"},
      {"server.json_parse_us", samples.MeanOf("server.json_parse_us"), "us"},
      {"server.json_dump_us", samples.MeanOf("server.json_dump_us"), "us"},
      {"server.response_bytes", samples.MeanOf("server.response_bytes"),
       "bytes"},
      {"query.topk_ms", samples.MeanOf("query.topk_ms"), "ms"},
      {"query.objects_scored", samples.MeanOf("query.objects_scored"),
       "count"},
      {"query.nodes_popped", samples.MeanOf("query.nodes_popped"), "count"},
  };
  for (const char* name :
       {"whynot.explain_ms", "whynot.preference_ms", "whynot.keyword_ms",
        "whynot.refined_topk_ms"}) {
    layers.push_back({name, samples.MeanOf(name), "ms"});
  }
  for (const char* name :
       {"whynot.crossings_found", "whynot.candidates_evaluated",
        "whynot.sweep_fanouts", "whynot.kw_candidates_generated",
        "whynot.kw_candidates_pruned", "whynot.kw_candidates_resolved",
        "whynot.refine_levels", "whynot.probe_fanouts",
        "whynot.kw_objects_scored", "whynot.truncated",
        "index.kcr_nodes_expanded", "index.plane_nodes_visited",
        "corpus.count_above_pairs", "corpus.oracle_fanouts",
        "corpus.rpcs_per_question", "corpus.rpcs_per_query"}) {
    layers.push_back({name, samples.MeanOf(name), "count"});
  }
  layers.push_back({"corpus.rpc_ms", rpc_ms, "ms"});
  layers.push_back({"corpus.shard_compute_ms", compute_ms, "ms"});
  layers.push_back({"corpus.wire_ms", rpc_ms - compute_ms, "ms"});
  layers.push_back({"loadgen.late_p99_ms", untraced_late_p99, "ms"});
  layers.push_back({"trace.overhead_pct", overhead_pct, "%"});
  layers.push_back({"check.parts_sum_ratio", parts_ratio, "ratio"});

  std::printf("\nper-layer metrics (means per %s):\n",
              whynot ? "question" : "query");
  for (const Metric& m : layers) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("\ntracing overhead: %.2f%% (staged through the decorator "
              "%.1f ms vs engine %.1f ms)\n",
              overhead_pct, traced_total_ms, plain_total_ms);
  const bool parts_ok = std::abs(parts_ratio - 1.0) <= 0.10;
  std::printf("parts-sum check: %s (HTTP/JSON overhead + %s = %.1f ms vs "
              "client-observed %.1f ms, ratio %.3f)\n",
              parts_ok ? "PASS" : "FAIL",
              whynot ? "explain + max(preference, keyword) + refined top-k"
                     : "top-k",
              parts_ms, client_ms, parts_ratio);
  if (remote && whynot) {
    // Every why-not fan-out sends one RPC per shard, all in parallel, so
    // the per-shard RPC time should fill the time inside oracle calls.
    const double rpc_ratio =
        staged_oracle_ms > 0 ? staged_rpc_ms / num_shards / staged_oracle_ms
                             : 0.0;
    const bool rpc_ok = std::abs(rpc_ratio - 1.0) <= 0.10;
    std::printf("rpc-in-stages check: %s (per-shard RPC time %.1f ms = shard "
                "compute %.1f + wire %.1f, vs %.1f ms inside oracle calls, "
                "ratio %.3f)\n",
                rpc_ok ? "PASS" : "FAIL", staged_rpc_ms / num_shards,
                staged_rpc_ms / num_shards * (rpc_ms > 0 ? compute_ms / rpc_ms
                                                         : 0.0),
                staged_rpc_ms / num_shards *
                    (rpc_ms > 0 ? 1.0 - compute_ms / rpc_ms : 0.0),
                staged_oracle_ms, rpc_ratio);
  }

  const uint64_t attempted = phase.attempted + traced_log.attempted;
  const uint64_t failed = traced_log.failed + staged_mismatches;
  if (failed != 0) {
    std::fprintf(stderr,
                 "CHECK FAILED in the traced replay: %llu wrong payloads, "
                 "%llu staged answers differ from the engine's; first: %s\n",
                 static_cast<unsigned long long>(traced_log.failed),
                 static_cast<unsigned long long>(staged_mismatches),
                 traced_log.first_failure.c_str());
  }
  PrintResult(failed == 0, attempted, failed, layers);
  return failed == 0 ? 0 : 1;
}
}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload query_hot|whynot_local|whynot_remote "
                 "--seed N --seconds S --trace 0|1 [--source-id ID]\n",
                 argv[0]);
    return 2;
  }
  return servebench::Run(args);
}
