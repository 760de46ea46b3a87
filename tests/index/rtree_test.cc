#include "src/index/rtree.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

/// True if `p` lies inside `r` or on its boundary.
bool Contains(const Rect& r, const Point& p) {
  return p.x >= r.min_x && p.x <= r.max_x && p.y >= r.min_y && p.y <= r.max_y;
}

ObjectStore MakeStore(size_t n, uint64_t seed = 42,
                      SpatialDistribution dist = SpatialDistribution::kUniform) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.spatial = dist;
  spec.vocabulary_size = 50;
  return GenerateDataset(spec);
}

TEST(RTreeTest, EmptyTree) {
  ObjectStore store;
  RTree tree(&store);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_TRUE(tree.node(tree.root()).entries.empty());
}

TEST(RTreeTest, BulkLoadSmall) {
  const ObjectStore store = MakeStore(10);
  RTree tree(&store);
  tree.BulkLoad();
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_EQ(tree.height(), 1u);  // Fits one leaf with fanout 32.
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
}

TEST(RTreeTest, BulkLoadValidatesAcrossSizes) {
  for (size_t n : {0u, 1u, 31u, 32u, 33u, 100u, 1000u, 5000u}) {
    const ObjectStore store = MakeStore(n);
    RTree tree(&store);
    tree.BulkLoad();
    EXPECT_EQ(tree.size(), n);
    Status s = tree.Validate();
    EXPECT_TRUE(s.ok()) << "n=" << n << ": " << s.ToString();
  }
}

TEST(RTreeTest, BulkLoadHeightGrowsLogarithmically) {
  const ObjectStore store = MakeStore(5000);
  RTree tree(&store);
  tree.BulkLoad();
  EXPECT_GE(tree.height(), 2u);
  EXPECT_LE(tree.height(), 4u);
}

// Bulk-load property: every object of the store sits in exactly one leaf
// entry, whose rect is its point, and that point lies inside the rect of
// every ancestor — the containment the top-k engines' MINDIST bound relies
// on. Checked across sizes, fanouts and spatial distributions, together
// with Validate().
TEST(RTreeTest, BulkLoadPlacesEveryObjectOnceInsideItsAncestors) {
  struct Fanout {
    size_t max_entries;
    size_t min_entries;
  };
  for (const Fanout fanout : {Fanout{4, 2}, Fanout{8, 3}, Fanout{32, 12}}) {
    for (const size_t n : {1u, 7u, 33u, 257u, 3000u}) {
      for (const SpatialDistribution dist :
           {SpatialDistribution::kUniform, SpatialDistribution::kClustered}) {
        const ObjectStore store = MakeStore(n, 7 + n, dist);
        RTree tree(&store, RTreeOptions{fanout.max_entries,
                                        fanout.min_entries});
        tree.BulkLoad();
        const std::string tag = "n=" + std::to_string(n) +
                                " fanout=" +
                                std::to_string(fanout.max_entries);
        Status s = tree.Validate();
        ASSERT_TRUE(s.ok()) << tag << ": " << s.ToString();

        std::vector<size_t> seen(n, 0);
        // (node, rects of every ancestor including the node itself).
        std::vector<std::pair<RTree::NodeId, std::vector<Rect>>> stack;
        stack.push_back({tree.root(), {tree.node(tree.root()).rect}});
        while (!stack.empty()) {
          auto [id, path] = std::move(stack.back());
          stack.pop_back();
          const RTree::Node& node = tree.node(id);
          for (const RTree::Entry& e : node.entries) {
            if (node.is_leaf) {
              ASSERT_LT(e.id, n) << tag;
              ++seen[e.id];
              const Point p = store.Get(e.id).loc;
              EXPECT_EQ(e.rect, Rect::FromPoint(p)) << tag;
              for (const Rect& r : path) {
                EXPECT_TRUE(Contains(r, p)) << tag << " object " << e.id;
              }
            } else {
              std::vector<Rect> child_path = path;
              child_path.push_back(tree.node(e.id).rect);
              stack.push_back({e.id, std::move(child_path)});
            }
          }
        }
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(seen[i], 1u) << tag << " object " << i;
        }
      }
    }
  }
}

TEST(RTreeTest, MemoryUsageGrowsWithSize) {
  const ObjectStore small = MakeStore(100);
  const ObjectStore large = MakeStore(5000);
  RTree t1(&small);
  t1.BulkLoad();
  RTree t2(&large);
  t2.BulkLoad();
  EXPECT_GT(t2.MemoryUsageBytes(), t1.MemoryUsageBytes());
}

TEST(RTreeTest, CustomFanoutRespected) {
  const ObjectStore store = MakeStore(500);
  RTreeOptions opts;
  opts.max_entries = 8;
  opts.min_entries = 3;
  RTree tree(&store, opts);
  tree.BulkLoad();
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_GE(tree.height(), 3u);  // Smaller fanout means a taller tree.
}

}  // namespace
}  // namespace yask
