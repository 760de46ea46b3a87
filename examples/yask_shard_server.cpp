// The remote shard server: boots ONE Corpus shard from its per-shard
// snapshot file (the shippable unit ShardedCorpus::Save / `dataset_tool
// build-shards` writes) and serves the shard RPC surface — /shard/topk with
// threshold broadcast plus the four why-not oracle seams (outscoring counts,
// rank-of-object, Eqn. (3) score-plane sessions, Eqn. (4) rank batches) —
// to a coordinator running `yask_server_demo --remote-shards`. Every shard
// serves why-not: the only index it needs is the plain R-tree its top-k
// k-NN walks, rebuilt at boot if the file lacks it (a file written before
// the R-tree section carries the retired SetR-tree, which is skipped).
//
//   $ ./yask_shard_server --snapshot state.shard-0.snap [--port P]
//                         [--workers N]
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
    } else {
      std::fprintf(stderr,
                   "usage: %s --snapshot <shard.snap> [--port P] "
                   "[--workers N] [--version]\n",
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

  Timer timer;
  std::unique_ptr<ShardManifest> manifest;
  Result<Corpus> corpus =
      CorpusBuilder().FromSnapshot(snapshot_path, &manifest);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s: cannot load snapshot %s: %s\n", argv[0],
                 snapshot_path.c_str(),
                 corpus.status().ToString().c_str());
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
      "yask_shard_server: shard %u/%u (%zu objects) from %s in %.0f ms, "
      "listening on 127.0.0.1:%u\n",
      info.shard_index, info.shard_count, corpus->size(),
      snapshot_path.c_str(), timer.ElapsedMillis(), service.port());
  std::fflush(stdout);

  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}
