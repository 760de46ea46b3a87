// The remote shard server: boots ONE Corpus shard from its per-shard
// snapshot file (the shippable unit ShardedCorpus::Save / `dataset_tool
// build-shards` writes) and serves the shard RPC surface — /shard/topk with
// threshold broadcast plus the four why-not oracle seams (outscoring counts,
// rank-of-object, Eqn. (3) score-plane sessions, Eqn. (4) rank-probe
// batches) — to a coordinator running `yask_server_demo --remote-shards`.
//
// Index policy (fail fast, not 501-at-query-time): the snapshot is expected
// to CARRY its indexes. A file without the KcR section cannot serve why-not
// refinement, so by default the server refuses to start and says how to fix
// it; pass --rebuild-indexes to rebuild missing indexes from the object
// table at boot, or --topk-only to knowingly serve /shard/topk alone
// (/health reports the gap, the coordinator's /whynot answers 501 naming
// this shard).
//
//   $ ./yask_shard_server --snapshot state.shard-0.snap [--port P]
//                         [--workers N] [--rebuild-indexes] [--topk-only]
//
// A standalone (unsharded) snapshot is accepted too and served as shard 0
// of 1 — a one-process "remote" deployment for smoke tests.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "src/common/timer.h"
#include "src/common/version.h"
#include "src/corpus/corpus.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"

using namespace yask;

int main(int argc, char** argv) {
  std::string snapshot_path;
  uint16_t port = 0;
  size_t workers = 8;
  bool rebuild_indexes = false;
  bool topk_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      // Build identity + the shardrpc range a coordinator of this build
      // accepts. The shard itself speaks the upper bound; the rolling-upgrade
      // CI job compares this across the fleet.
      std::printf("yask_shard_server %s shardrpc=%u..%u\n", BuildGitSha(),
                  shardrpc::kMinSupportedProtocolVersion,
                  shardrpc::kProtocolVersion);
      return 0;
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--rebuild-indexes") {
      rebuild_indexes = true;
    } else if (arg == "--topk-only") {
      topk_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --snapshot <shard.snap> [--port P] "
                   "[--workers N] [--rebuild-indexes] [--topk-only] "
                   "[--version]\n",
                   argv[0]);
      return 2;
    }
  }
  if (snapshot_path.empty()) {
    std::fprintf(stderr,
                 "%s: --snapshot is required (a shard file from "
                 "`dataset_tool build-shards` or ShardedCorpus::Save)\n",
                 argv[0]);
    return 2;
  }

  // Adopt-only by default: a shard server should serve what the file
  // carries, not quietly spend minutes re-indexing — unless asked.
  CorpusOptions options;
  options.build_kcr_tree = rebuild_indexes;
  Timer timer;
  std::unique_ptr<ShardManifest> manifest;
  Result<Corpus> corpus =
      CorpusBuilder(options).FromSnapshot(snapshot_path, &manifest);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s: cannot load snapshot %s: %s\n", argv[0],
                 snapshot_path.c_str(),
                 corpus.status().ToString().c_str());
    return 1;
  }
  if (!corpus->has_kcr() && !topk_only) {
    // The satellite contract: a snapshot missing the KcR section needed for
    // /whynot fails FAST with a clear error, instead of crashing a probe or
    // silently answering 501 later.
    std::fprintf(
        stderr,
        "%s: snapshot %s has no KcR-tree section — the coordinator could "
        "not answer /whynot through this shard.\n"
        "  * rebuild the shard files with their indexes: dataset_tool "
        "build-shards\n"
        "  * or rebuild at boot: %s --snapshot %s --rebuild-indexes\n"
        "  * or serve top-k only, knowingly: %s --snapshot %s --topk-only\n",
        argv[0], snapshot_path.c_str(), argv[0], snapshot_path.c_str(),
        argv[0], snapshot_path.c_str());
    return 1;
  }

  const ShardService::Info info =
      manifest != nullptr ? ShardService::InfoFromManifest(*manifest)
                          : ShardService::StandaloneInfo(*corpus);
  ShardServiceOptions service_options;
  service_options.port = port;
  service_options.num_workers = workers;
  ShardService service(*corpus, info, service_options);
  if (Status s = service.Start(); !s.ok()) {
    std::fprintf(stderr, "%s: cannot start: %s\n", argv[0],
                 s.ToString().c_str());
    return 1;
  }
  std::printf(
      "yask_shard_server: shard %u/%u (%zu objects, kcr=%s) from %s in "
      "%.0f ms, listening on 127.0.0.1:%u\n",
      info.shard_index, info.shard_count, corpus->size(),
      corpus->has_kcr() ? "yes" : "NO (top-k only)", snapshot_path.c_str(),
      timer.ElapsedMillis(), service.port());
  std::fflush(stdout);

  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}
