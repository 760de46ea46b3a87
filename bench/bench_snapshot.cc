// Experiment E6: snapshot persistence vs. cold rebuild.
//
// Measures, on the shared benchmark dataset family, (a) what a cold start
// from raw objects costs today — parsing the TSV dataset (re-interning every
// keyword) plus bulk-loading the R-tree, with the index-build share also
// reported on its own —
// (b) how large the snapshot of that warm state is and how long it takes to
// write, and (c) how long a cold start that loads the snapshot takes
// instead — the number that matters for restarting replicas.
// The load path must also be *correct*: the harness cross-checks the served
// top-k of the rebuilt and the reloaded state against TopKScan and
// validates the reloaded tree structurally before reporting.
//
// Unlike the other harnesses this one does not use google-benchmark: it
// needs one number per phase, not a sampling loop, and it must emit the
// machine-readable BENCH_snapshot.json for the perf trajectory. The JSON
// mirrors google-benchmark's --benchmark_format=json shape (context +
// benchmarks[] with name/real_time/time_unit) so existing tooling parses it.
//
//   $ ./bench_snapshot [--n=50000] [--json=BENCH_snapshot.json]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/server/json.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/storage/dataset_io.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

constexpr int kReps = 3;          // Best-of for each timed phase.
constexpr size_t kQueryChecks = 25;  // Result-equality probes after load.

struct PhaseTimes {
  double rebuild_ms = 0.0;      // Full raw cold start: TSV parse + index build.
  double parse_ms = 0.0;        // The TSV parse + intern share of the above.
  double index_build_ms = 0.0;  // The index-build share of the above.
  double save_ms = 0.0;
  double load_ms = 0.0;
  uint64_t snapshot_bytes = 0;
  bool results_match = true;
  std::string validate_error;
};

PhaseTimes RunOnce(size_t n, const std::string& snap_path) {
  PhaseTimes t;
  const ObjectStore& store = SharedDataset(n);

  // The raw dataset file a snapshot-less process start would boot from.
  const std::string tsv_path =
      "/tmp/yask_bench_snapshot_" + std::to_string(n) + ".tsv";
  if (Status s = SaveDataset(store, tsv_path); !s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", tsv_path.c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }

  // (a) Cold start from raw objects: what every process start pays today —
  // re-parse and re-intern the dataset, then rebuild every index over it.
  std::unique_ptr<ObjectStore> rebuilt_store;
  std::unique_ptr<RTree> rtree;
  t.rebuild_ms = t.parse_ms = t.index_build_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    auto parsed = LoadDataset(tsv_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    const double parse_ms = timer.ElapsedMillis();
    rebuilt_store = std::make_unique<ObjectStore>(std::move(parsed).value());
    Timer index_timer;
    rtree = std::make_unique<RTree>(rebuilt_store.get());
    rtree->BulkLoad();
    t.index_build_ms = std::min(t.index_build_ms, index_timer.ElapsedMillis());
    t.parse_ms = std::min(t.parse_ms, parse_ms);
    t.rebuild_ms = std::min(t.rebuild_ms, timer.ElapsedMillis());
  }

  // (b) Serialize the warm state. Note: from the *rebuilt* store — the TSV
  // parse assigns term ids in encounter order, and the snapshot must capture
  // the exact state the server would be serving from.
  t.save_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    auto bytes = WriteSnapshot(snap_path, *rebuilt_store, rtree.get());
    if (!bytes.ok()) {
      std::fprintf(stderr, "save failed: %s\n",
                   bytes.status().ToString().c_str());
      std::exit(1);
    }
    t.save_ms = std::min(t.save_ms, timer.ElapsedMillis());
    t.snapshot_bytes = *bytes;
  }

  // (c) Cold start from the snapshot.
  SnapshotBundle bundle;
  t.load_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    auto loaded = LoadSnapshot(snap_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    t.load_ms = std::min(t.load_ms, timer.ElapsedMillis());
    bundle = std::move(loaded).value();
  }

  // Correctness gate: the served top-k of the rebuilt and of the reloaded
  // state must both answer TopKScan's rows, and the adopted arena must pass
  // the deep structural check.
  if (bundle.rtree == nullptr) {
    t.validate_error = "rtree: missing from the snapshot";
    return t;
  }
  if (Status s = bundle.rtree->Validate(); !s.ok()) {
    t.validate_error = "rtree: " + s.ToString();
  }
  const LocalWhyNotOracle rebuilt_oracle(*rebuilt_store, rtree.get());
  const LocalWhyNotOracle loaded_oracle(*bundle.store, bundle.rtree.get());
  Rng rng(7);
  for (size_t i = 0; i < kQueryChecks; ++i) {
    const Query q =
        MakeQuery(*rebuilt_store, &rng, /*num_keywords=*/3, /*k=*/10);
    const TopKResult expected = TopKScan(*rebuilt_store, q);
    if (rebuilt_oracle.TopK(q) != expected ||
        loaded_oracle.TopK(q) != expected) {
      t.results_match = false;
      break;
    }
  }
  return t;
}

JsonValue BenchRow(const std::string& name, double ms) {
  JsonValue row = JsonValue::MakeObject();
  row.Set("name", JsonValue(name));
  row.Set("run_type", JsonValue("iteration"));
  row.Set("iterations", JsonValue(kReps));
  row.Set("real_time", JsonValue(ms));
  row.Set("cpu_time", JsonValue(ms));
  row.Set("time_unit", JsonValue("ms"));
  return row;
}

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  using namespace yask;
  using namespace yask::bench;

  size_t n = 50000;
  std::string json_path = "BENCH_snapshot.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<size_t>(std::strtoull(arg.c_str() + 4, nullptr, 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--n=N] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::string snap_path =
      "/tmp/yask_bench_snapshot_" + std::to_string(n) + ".snap";
  const PhaseTimes t = RunOnce(n, snap_path);
  const double speedup = t.rebuild_ms / t.load_ms;

  std::printf("n=%zu objects\n", n);
  std::printf("cold start from raw data        : %10.2f ms  (parse %.2f + "
              "index build %.2f)\n",
              t.rebuild_ms, t.parse_ms, t.index_build_ms);
  std::printf("snapshot save                   : %10.2f ms  (%zu bytes)\n",
              t.save_ms, static_cast<size_t>(t.snapshot_bytes));
  std::printf("cold start from snapshot        : %10.2f ms\n", t.load_ms);
  std::printf("cold-start speedup vs rebuild   : %10.2fx\n", speedup);
  std::printf("speedup vs index build alone    : %10.2fx\n",
              t.index_build_ms / t.load_ms);
  std::printf("results match after reload      : %s\n",
              t.results_match ? "yes" : "NO — BUG");
  if (!t.validate_error.empty()) {
    std::printf("tree validation                 : FAILED %s\n",
                t.validate_error.c_str());
  }

  JsonValue context = JsonValue::MakeObject();
  context.Set("bench", JsonValue("snapshot"));
  context.Set("n", JsonValue(n));
  context.Set("snapshot_bytes", JsonValue(static_cast<size_t>(t.snapshot_bytes)));
  context.Set("speedup_vs_rebuild", JsonValue(speedup));
  context.Set("results_match", JsonValue(t.results_match));
  context.Set("trees_valid", JsonValue(t.validate_error.empty()));

  JsonValue benches = JsonValue::MakeArray();
  const std::string suffix = "/" + std::to_string(n);
  benches.Append(BenchRow("snapshot/cold_start_raw" + suffix, t.rebuild_ms));
  benches.Append(BenchRow("snapshot/parse_tsv" + suffix, t.parse_ms));
  benches.Append(BenchRow("snapshot/index_build" + suffix, t.index_build_ms));
  benches.Append(BenchRow("snapshot/save" + suffix, t.save_ms));
  benches.Append(BenchRow("snapshot/load" + suffix, t.load_ms));

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

  // Exit non-zero when the persistence layer broke correctness, so CI and
  // the perf trajectory cannot silently record a fast-but-wrong load path.
  return (t.results_match && t.validate_error.empty()) ? 0 : 1;
}
