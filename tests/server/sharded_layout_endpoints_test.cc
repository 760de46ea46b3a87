// One endpoint table across the three serving layouts: a YaskService over a
// Corpus, over a 4-shard ShardedCorpus and over a loopback RemoteCorpus of 2
// shards, each with the fleet admin enabled, must agree on every
// layout-independent field of /health and /objects, and differ exactly
// where the layout does:
//   * /health "shards": absent only for the unsharded Corpus;
//   * /admin/layout: 501 in-process, 200 on the coordinator;
//   * POST /snapshot: one file for a Corpus, one file per shard for a
//     ShardedCorpus (which ShardedCorpus::Load reloads to the same /query
//     bytes), 501 on the coordinator.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

constexpr char kQueryBody[] =
    "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\",\"k\":5}";

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

struct Reply {
  int status = 0;
  std::string body;
  JsonValue json;
};

Reply Fetch(const YaskService& service, const std::string& method,
            const std::string& path, const std::string& body = "") {
  Reply reply;
  auto fetched = HttpFetch(service.port(), method, path, body, &reply.status);
  EXPECT_TRUE(fetched.ok()) << method << " " << path;
  if (!fetched.ok()) return reply;
  reply.body = *fetched;
  auto parsed = JsonValue::Parse(reply.body);
  EXPECT_TRUE(parsed.ok()) << reply.body;
  if (parsed.ok()) reply.json = std::move(parsed).value();
  return reply;
}

TEST(LayoutEndpointsTest, OneTableAcrossLayouts) {
  const ObjectStore store = GenerateHotelDataset();
  YaskServiceOptions options;
  options.enable_fleet_admin = true;
  options.allow_snapshot_path_override = true;

  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  const ShardedCorpus fleet_layout =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(fleet_layout);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();

  YaskService single(corpus, options);
  YaskService local(sharded, options);
  YaskService remote(remote_corpus, options);
  struct Layout {
    const char* name;
    YaskService* service;
    size_t shards;  // 0 = unsharded.
    bool coordinator;
  };
  const std::vector<Layout> layouts = {{"corpus", &single, 0, false},
                                       {"sharded", &local, 4, false},
                                       {"remote", &remote, 2, true}};
  for (const Layout& layout : layouts) {
    ASSERT_TRUE(layout.service->Start().ok()) << layout.name;
  }

  const std::string objects =
      Fetch(single, "GET", "/objects?limit=25").body;
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.name);
    const YaskService& service = *layout.service;

    const Reply health = Fetch(service, "GET", "/health");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(static_cast<size_t>(health.json.Get("objects").as_number()),
              store.size());
    EXPECT_EQ(static_cast<size_t>(health.json.Get("vocabulary").as_number()),
              store.vocab().size());
    EXPECT_TRUE(health.json.Get("whynot").as_bool());
    if (layout.shards == 0) {
      EXPECT_FALSE(health.json.Has("shards"));
    } else {
      EXPECT_EQ(static_cast<size_t>(health.json.Get("shards").as_number()),
                layout.shards);
    }

    EXPECT_EQ(Fetch(service, "GET", "/admin/layout").status,
              layout.coordinator ? 200 : 501);

    const Reply sample = Fetch(service, "GET", "/objects?limit=25");
    EXPECT_EQ(sample.status, 200);
    EXPECT_EQ(sample.body, objects);
  }

  // POST /snapshot: one file for the Corpus.
  const std::string dir = ::testing::TempDir();
  const std::string single_path = dir + "layout_endpoints_single.snap";
  JsonValue req = JsonValue::MakeObject();
  req.Set("path", JsonValue(single_path));
  Reply snap = Fetch(single, "POST", "/snapshot", req.Dump());
  EXPECT_EQ(snap.status, 200) << snap.body;
  EXPECT_FALSE(snap.json.Has("shards"));
  EXPECT_TRUE(std::filesystem::exists(single_path));
  EXPECT_FALSE(std::filesystem::exists(
      ShardedCorpus::ShardFilePath(single_path, 0)));
  std::remove(single_path.c_str());

  // One file per shard for the ShardedCorpus, reloadable to the same answers.
  const std::string prefix = dir + "layout_endpoints_sharded";
  req.Set("path", JsonValue(prefix));
  snap = Fetch(local, "POST", "/snapshot", req.Dump());
  EXPECT_EQ(snap.status, 200) << snap.body;
  EXPECT_EQ(snap.json.Get("shards").as_number(), 4.0);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(
        std::filesystem::exists(ShardedCorpus::ShardFilePath(prefix, s)))
        << s;
  }
  EXPECT_FALSE(
      std::filesystem::exists(ShardedCorpus::ShardFilePath(prefix, 4)));
  auto reloaded = ShardedCorpus::Load(prefix);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_shards(), 4u);
  {
    YaskService restored(*reloaded, options);
    ASSERT_TRUE(restored.Start().ok());
    const Reply original = Fetch(local, "POST", "/query", kQueryBody);
    const Reply again = Fetch(restored, "POST", "/query", kQueryBody);
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.json.Get("results").Dump(),
              original.json.Get("results").Dump());
    restored.Stop();
  }
  for (uint32_t s = 0; s < 4; ++s) {
    std::remove(ShardedCorpus::ShardFilePath(prefix, s).c_str());
  }

  // A coordinator holds no serving state to snapshot.
  req.Set("path", JsonValue(dir + "layout_endpoints_remote"));
  EXPECT_EQ(Fetch(remote, "POST", "/snapshot", req.Dump()).status, 501);

  for (const Layout& layout : layouts) layout.service->Stop();
}

}  // namespace
}  // namespace yask
