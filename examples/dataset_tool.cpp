// dataset_tool: generate, inspect and convert YASK datasets from the shell.
//
//   dataset_tool generate <n> <out.tsv> [seed]   synthetic clustered dataset
//   dataset_tool hotels <out.tsv>                the 539-hotel demo dataset
//   dataset_tool stats <file.tsv>                corpus statistics
//   dataset_tool build-snapshot <in.tsv> <out.snap>   TSV -> binary snapshot
//                                                (store + R-tree)
//   dataset_tool build-shards <in.tsv> <prefix> <shards>   TSV -> one
//                                                snapshot file per shard
//                                                (<prefix>.shard-<i>.snap)
//   dataset_tool inspect-snapshot <file.snap>    header + section table
//   dataset_tool reshard <in_prefix> <out_prefix> <shards> [--router grid|hash]
//                                                rewrite N per-shard snapshots
//                                                into M under a new prefix
//
// With no arguments it runs a self-demo into a temporary file, so it can be
// exercised without any setup.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "src/common/geo.h"
#include "src/common/timer.h"
#include "src/corpus/corpus.h"
#include "src/corpus/reshard.h"
#include "src/corpus/sharded_corpus.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/dataset_io.h"
#include "src/storage/hotel_generator.h"

using namespace yask;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int CmdGenerate(size_t n, const std::string& path, uint64_t seed) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  const ObjectStore store = GenerateDataset(spec);
  if (Status s = SaveDataset(store, path); !s.ok()) return Fail(s.ToString());
  std::printf("wrote %zu objects (vocab %zu) to %s\n", store.size(),
              store.vocab().size(), path.c_str());
  return 0;
}

int CmdHotels(const std::string& path) {
  const ObjectStore store = GenerateHotelDataset();
  if (Status s = SaveDataset(store, path); !s.ok()) return Fail(s.ToString());
  std::printf("wrote the %zu-hotel Hong Kong demo dataset to %s\n",
              store.size(), path.c_str());
  return 0;
}

int CmdStats(const std::string& path) {
  auto loaded = LoadDataset(path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const ObjectStore& store = *loaded;
  if (store.empty()) return Fail("dataset is empty");

  size_t total_kw = 0;
  size_t min_kw = static_cast<size_t>(-1);
  size_t max_kw = 0;
  std::map<TermId, size_t> df;
  for (const SpatialObject& o : store.objects()) {
    total_kw += o.doc.size();
    min_kw = std::min(min_kw, o.doc.size());
    max_kw = std::max(max_kw, o.doc.size());
    for (TermId t : o.doc) ++df[t];
  }
  // Top-5 most frequent keywords.
  std::multimap<size_t, TermId, std::greater<>> by_freq;
  for (const auto& [t, f] : df) by_freq.emplace(f, t);

  const Rect& b = store.bounds();
  std::printf("objects      : %zu\n", store.size());
  std::printf("vocabulary   : %zu distinct keywords\n", store.vocab().size());
  std::printf("keywords/obj : min %zu, avg %.2f, max %zu\n", min_kw,
              static_cast<double>(total_kw) / store.size(), max_kw);
  std::printf("bounds       : x [%.5g, %.5g], y [%.5g, %.5g]\n", b.min_x,
              b.max_x, b.min_y, b.max_y);
  // If the frame smells like lon/lat, also report the geographic diagonal.
  if (b.min_x >= -180 && b.max_x <= 180 && b.min_y >= -90 && b.max_y <= 90) {
    std::printf("geo diagonal : %.1f km (if coordinates are lon/lat)\n",
                HaversineKm(Point{b.min_x, b.min_y}, Point{b.max_x, b.max_y}));
  }
  std::printf("top keywords :");
  size_t shown = 0;
  for (const auto& [f, t] : by_freq) {
    if (shown++ == 5) break;
    std::printf(" %s(%zu)", store.vocab().Word(t).c_str(), f);
  }
  std::printf("\n");
  return 0;
}

int CmdBuildSnapshot(const std::string& in_path, const std::string& out_path) {
  auto loaded = LoadDataset(in_path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());

  Timer build_timer;
  const Corpus corpus = CorpusBuilder().Build(std::move(loaded).value());
  const double build_ms = build_timer.ElapsedMillis();

  Timer save_timer;
  auto bytes = corpus.Save(out_path);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  std::printf(
      "indexed %zu objects in %.1f ms; wrote snapshot %s (%zu bytes, "
      "%.1f ms)\n",
      corpus.size(), build_ms, out_path.c_str(), static_cast<size_t>(*bytes),
      save_timer.ElapsedMillis());
  return 0;
}

int CmdBuildShards(const std::string& in_path, const std::string& prefix,
                   size_t num_shards) {
  auto loaded = LoadDataset(in_path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const ObjectStore& store = *loaded;

  Timer build_timer;
  const ShardedCorpus sharded = ShardedCorpus::Partition(
      store, GridShardRouter::Fit(store, static_cast<uint32_t>(num_shards)));
  const double build_ms = build_timer.ElapsedMillis();

  Timer save_timer;
  auto bytes = sharded.Save(prefix);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  std::printf(
      "partitioned %zu objects into %zu shards (%s) in %.1f ms; wrote "
      "%s.shard-0..%zu.snap (%zu bytes total, %.1f ms)\n",
      sharded.size(), sharded.num_shards(),
      sharded.router_description().c_str(), build_ms, prefix.c_str(),
      sharded.num_shards() - 1, static_cast<size_t>(*bytes),
      save_timer.ElapsedMillis());
  return 0;
}

int CmdReshard(const std::string& in_prefix, const std::string& out_prefix,
               size_t num_shards, const std::string& router) {
  ReshardOptions options;
  options.num_shards = static_cast<uint32_t>(num_shards);
  options.router = router;
  Timer timer;
  auto report = ReshardSnapshots(in_prefix, out_prefix, options);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf(
      "resharded %zu objects: %u -> %u shards (%s) in %.1f ms; wrote "
      "%s.shard-0..%u.snap (%zu bytes total)\n"
      "the input files under %s are untouched — cut the fleet over, then "
      "delete them\n",
      report->objects, report->from_shards, report->to_shards,
      report->router.c_str(), timer.ElapsedMillis(), out_prefix.c_str(),
      report->to_shards - 1, static_cast<size_t>(report->bytes_written),
      in_prefix.c_str());
  return 0;
}

/// For a per-shard file "<prefix>.shard-<i>.snap", recovers "<prefix>";
/// empty when the name does not follow the ShardedCorpus::Save convention.
std::string ShardPrefixOf(const std::string& path, uint32_t shard_index) {
  const std::string tail =
      ".shard-" + std::to_string(shard_index) + ".snap";
  if (path.size() <= tail.size() ||
      path.compare(path.size() - tail.size(), tail.size(), tail) != 0) {
    return "";
  }
  return path.substr(0, path.size() - tail.size());
}

int CmdInspectSnapshot(const std::string& path) {
  auto report = InspectSnapshot(path);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("snapshot      : %s\n", path.c_str());
  std::printf("format version: %u\n", report->format_version);
  std::printf("file size     : %zu bytes\n",
              static_cast<size_t>(report->file_size));
  std::printf("sections      : %zu\n", report->sections.size());
  std::printf("  %-20s %12s %10s  %s\n", "name", "bytes", "crc32", "items");
  for (const SnapshotSectionReport& s : report->sections) {
    std::printf("  %-20s %12zu   %08x  ", s.name.c_str(),
                static_cast<size_t>(s.size), s.crc32);
    if (s.item_count >= 0) {
      std::printf("%lld\n", static_cast<long long>(s.item_count));
    } else {
      std::printf("(payload corrupt)\n");
    }
  }

  if (!report->shard.has_value()) return 0;

  // A per-shard file: print the decoded manifest rather than skipping it.
  const ShardManifest& m = *report->shard;
  std::printf("shard manifest: shard %u of %u, %zu objects", m.shard_index,
              m.shard_count, m.global_ids.size());
  if (!m.global_ids.empty()) {
    std::printf(" (global ids %u..%u)", m.global_ids.front(),
                m.global_ids.back());
  }
  std::printf("\n");
  std::printf("router        : %s\n",
              m.router.empty() ? "(unrecorded)" : m.router.c_str());
  if (!m.global_bounds.empty()) {
    std::printf("global bounds : x [%.5g, %.5g], y [%.5g, %.5g]\n",
                m.global_bounds.min_x, m.global_bounds.max_x,
                m.global_bounds.min_y, m.global_bounds.max_y);
  }

  // Sibling shard files (the ShardedCorpus::Save naming convention): report
  // the per-shard object counts of the whole partition when they are there.
  const std::string prefix = ShardPrefixOf(path, m.shard_index);
  if (prefix.empty() || m.shard_count <= 1) return 0;
  std::printf("per-shard objects:\n");
  for (uint32_t s = 0; s < m.shard_count; ++s) {
    const std::string sibling = ShardedCorpus::ShardFilePath(prefix, s);
    if (s == m.shard_index) {
      std::printf("  shard %-3u %8zu  (this file)\n", s, m.global_ids.size());
      continue;
    }
    auto sibling_report = InspectSnapshot(sibling);
    if (!sibling_report.ok() || !sibling_report->shard.has_value()) {
      std::printf("  shard %-3u %8s  (%s: missing or unreadable)\n", s, "?",
                  sibling.c_str());
      continue;
    }
    std::printf("  shard %-3u %8zu  (%s)\n", s,
                sibling_report->shard->global_ids.size(), sibling.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "generate" && (argc == 4 || argc == 5)) {
      const size_t n = static_cast<size_t>(std::strtoull(argv[2], nullptr, 10));
      const uint64_t seed =
          argc == 5 ? std::strtoull(argv[4], nullptr, 10) : 42;
      if (n == 0) return Fail("n must be a positive integer");
      return CmdGenerate(n, argv[3], seed);
    }
    if (cmd == "hotels" && argc == 3) return CmdHotels(argv[2]);
    if (cmd == "stats" && argc == 3) return CmdStats(argv[2]);
    if (cmd == "build-snapshot" && argc == 4) {
      return CmdBuildSnapshot(argv[2], argv[3]);
    }
    if (cmd == "build-shards" && argc == 5) {
      const size_t shards =
          static_cast<size_t>(std::strtoull(argv[4], nullptr, 10));
      if (shards == 0) return Fail("shards must be a positive integer");
      return CmdBuildShards(argv[2], argv[3], shards);
    }
    if (cmd == "inspect-snapshot" && argc == 3) {
      return CmdInspectSnapshot(argv[2]);
    }
    if (cmd == "reshard" && (argc == 5 || argc == 7)) {
      const size_t shards =
          static_cast<size_t>(std::strtoull(argv[4], nullptr, 10));
      if (shards == 0) return Fail("shards must be a positive integer");
      std::string router = "grid";
      if (argc == 7) {
        if (std::string(argv[5]) != "--router") {
          return Fail("unknown option '" + std::string(argv[5]) +
                      "' (want --router grid|hash)");
        }
        router = argv[6];
      }
      return CmdReshard(argv[2], argv[3], shards, router);
    }
    std::fprintf(stderr,
                 "usage: %s generate <n> <out.tsv> [seed]\n"
                 "       %s hotels <out.tsv>\n"
                 "       %s stats <file.tsv>\n"
                 "       %s build-snapshot <in.tsv> <out.snap>\n"
                 "       %s build-shards <in.tsv> <prefix> <shards>\n"
                 "       %s inspect-snapshot <file.snap>\n"
                 "       %s reshard <in_prefix> <out_prefix> <shards> "
                 "[--router grid|hash]\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0],
                 argv[0]);
    return 2;
  }

  // Self-demo: generate the hotel dataset into a temp file, print stats,
  // then round it through the snapshot pipeline.
  const std::string path = "/tmp/yask_dataset_tool_demo.tsv";
  std::printf("self-demo: %s hotels %s\n", argv[0], path.c_str());
  if (int rc = CmdHotels(path); rc != 0) return rc;
  std::printf("\nself-demo: %s stats %s\n", argv[0], path.c_str());
  if (int rc = CmdStats(path); rc != 0) return rc;
  const std::string snap = "/tmp/yask_dataset_tool_demo.snap";
  std::printf("\nself-demo: %s build-snapshot %s %s\n", argv[0], path.c_str(),
              snap.c_str());
  if (int rc = CmdBuildSnapshot(path, snap); rc != 0) return rc;
  std::printf("\nself-demo: %s inspect-snapshot %s\n", argv[0], snap.c_str());
  return CmdInspectSnapshot(snap);
}
