// Property tests of the shard-side decode-and-count kernel (OutrankKernel)
// and the level-synchronous ShardRankRefiner::RefineLevel built on it.
//
// The reference is an independent full scan: Scorer::Score over
// store.objects() with the D6 tie order written out here, and no index code.
// Every refinement level must bracket that count, a fully refined batch must
// equal it, a batch must refine exactly like its members refined one at a
// time, and every kernel score must be bit-for-bit Scorer::Score.

#include "src/whynot/shard_primitives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/corpus/shard_router.h"
#include "src/corpus/sharded_corpus.h"
#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

/// One (candidate query, target) pair of a batch. `target_score` is the
/// target's score under the query over the WHOLE dataset.
struct Member {
  Query query;
  ObjectId target = kInvalidObject;
  double target_score = 0.0;
};

ObjectStore RandomStore(size_t n, size_t vocabulary, uint64_t seed) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.vocabulary_size = vocabulary;
  spec.min_keywords = 1;
  spec.max_keywords = 8;
  spec.seed = seed;
  return GenerateDataset(spec);
}

/// Few locations and few keywords: most scores tie exactly, so the D6 id
/// tie-break decides a large share of every count.
ObjectStore TieHeavyStore(size_t n, uint64_t seed) {
  ObjectStore store;
  std::vector<TermId> terms;
  for (int t = 0; t < 4; ++t) {
    terms.push_back(store.mutable_vocab()->Intern("t" + std::to_string(t)));
  }
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const Point loc{0.25 * static_cast<double>(rng.NextBounded(4)),
                    0.25 * static_cast<double>(rng.NextBounded(4))};
    std::vector<TermId> doc;
    for (TermId t : terms) {
      if (rng.NextBernoulli(0.4)) doc.push_back(t);
    }
    store.Add(loc, KeywordSet(std::move(doc)));
  }
  return store;
}

/// A random keyword set of `size` distinct terms below `vocabulary`.
KeywordSet RandomDoc(size_t size, size_t vocabulary, Rng* rng) {
  std::vector<TermId> ids;
  while (ids.size() < size) {
    const TermId t = static_cast<TermId>(rng->NextBounded(vocabulary));
    if (std::find(ids.begin(), ids.end(), t) == ids.end()) ids.push_back(t);
  }
  return KeywordSet(std::move(ids));
}

/// Members sharing one location and weight (a keyword-adaption batch) or,
/// with `mixed_shapes`, each with its own; targets drawn from `whole`, plus
/// every fifth target an id outside the dataset altogether.
std::vector<Member> RandomMembers(const ObjectStore& whole, double dist_norm,
                                  size_t count, size_t doc_size,
                                  size_t vocabulary, bool mixed_shapes,
                                  uint64_t seed) {
  Rng rng(seed);
  const Point shared_loc{rng.NextDouble(), rng.NextDouble()};
  const double shared_ws = rng.NextDouble(0.1, 0.9);
  std::vector<Member> members(count);
  for (size_t i = 0; i < count; ++i) {
    Member& m = members[i];
    m.query.loc =
        mixed_shapes ? Point{rng.NextDouble(), rng.NextDouble()} : shared_loc;
    m.query.w = Weights::FromWs(mixed_shapes ? rng.NextDouble(0.1, 0.9)
                                             : shared_ws);
    m.query.doc = RandomDoc(1 + rng.NextBounded(doc_size), vocabulary, &rng);
    if (i % 5 == 4) {
      m.target = static_cast<ObjectId>(whole.size() + i);
      m.target_score = rng.NextDouble();
    } else {
      m.target = static_cast<ObjectId>(rng.NextBounded(whole.size()));
      m.target_score = Scorer(whole, m.query, dist_norm).Score(m.target);
    }
  }
  return members;
}

/// The reference: objects of `store` outranking the member's target, by a
/// plain scan with the D6 order on global ids.
size_t ScanCount(const ObjectStore& store,
                 const std::vector<ObjectId>* to_global, double dist_norm,
                 const Member& m) {
  const Scorer scorer(store, m.query, dist_norm);
  size_t above = 0;
  for (const SpatialObject& o : store.objects()) {
    const ObjectId gid = to_global != nullptr ? (*to_global)[o.id] : o.id;
    if (gid == m.target) continue;
    const double s = scorer.Score(o);
    if (s > m.target_score || (s == m.target_score && gid < m.target)) {
      ++above;
    }
  }
  return above;
}

/// Refiners for `members` over one view, with their scorers. The scorers
/// point into `members`, which must outlive the set.
struct RefinerSet {
  std::vector<std::unique_ptr<Scorer>> scorers;
  std::vector<std::unique_ptr<ShardRankRefiner>> refiners;
  KeywordAdaptStats stats;

  RefinerSet(const OracleShardView& view, double dist_norm,
             const std::vector<Member>& members) {
    for (const Member& m : members) {
      scorers.push_back(
          std::make_unique<Scorer>(*view.store, m.query, dist_norm));
      refiners.push_back(std::make_unique<ShardRankRefiner>(
          view, *scorers.back(), m.target, m.target_score, &stats));
    }
  }

  std::vector<ShardRankRefiner*> All() const {
    std::vector<ShardRankRefiner*> out;
    for (const auto& r : refiners) out.push_back(r.get());
    return out;
  }

  bool AllResolved() const {
    for (const auto& r : refiners) {
      if (!r->resolved()) return false;
    }
    return true;
  }
};

/// Refines the whole batch level by level; every interval must bracket the
/// scan count at every level and collapse onto it at the end. Returns the
/// final counts.
std::vector<size_t> RefineAndCheck(const OracleShardView& view,
                                   double dist_norm,
                                   const std::vector<Member>& members,
                                   const std::string& label) {
  RefinerSet set(view, dist_norm, members);
  std::vector<size_t> expected;
  for (const Member& m : members) {
    expected.push_back(ScanCount(*view.store, view.to_global, dist_norm, m));
  }
  for (int level = 0; level < 64; ++level) {
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_LE(set.refiners[i]->count_lower(), expected[i])
          << label << " member " << i << " level " << level;
      EXPECT_GE(set.refiners[i]->count_upper(), expected[i])
          << label << " member " << i << " level " << level;
    }
    if (set.AllResolved()) break;
    ShardRankRefiner::RefineLevel(set.All());
  }
  EXPECT_TRUE(set.AllResolved()) << label;
  std::vector<size_t> counts;
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(set.refiners[i]->count_lower(), expected[i])
        << label << " member " << i;
    EXPECT_EQ(set.refiners[i]->count_upper(), expected[i])
        << label << " member " << i;
    counts.push_back(set.refiners[i]->count_lower());
  }
  return counts;
}

/// Every kernel score of every decoded object (as a scan slice and as
/// leaves) is bit-for-bit Scorer::Score.
void ExpectBitIdenticalScores(const OracleShardView& view, double dist_norm,
                              const std::vector<Member>& members,
                              const std::string& label) {
  std::vector<Scorer> scorers;
  for (const Member& m : members) {
    scorers.emplace_back(*view.store, m.query, dist_norm);
  }
  std::vector<const Scorer*> pointers;
  for (const Scorer& s : scorers) pointers.push_back(&s);
  OutrankKernel kernel(view, pointers);

  auto check_decoded = [&](const std::vector<ObjectId>& locals) {
    ASSERT_EQ(kernel.decoded(), locals.size());
    for (size_t i = 0; i < locals.size(); ++i) {
      const ObjectId gid = view.to_global != nullptr
                               ? (*view.to_global)[locals[i]]
                               : locals[i];
      ASSERT_EQ(kernel.global_id(i), gid) << label;
      for (size_t m = 0; m < members.size(); ++m) {
        const double want = scorers[m].Score(locals[i]);
        ASSERT_EQ(std::bit_cast<uint64_t>(kernel.Score(m, i)),
                  std::bit_cast<uint64_t>(want))
            << label << " member " << m << " object " << locals[i];
      }
    }
  };

  const ObjectId n = static_cast<ObjectId>(view.store->size());
  kernel.DecodeRange(0, n);
  std::vector<ObjectId> all(n);
  for (ObjectId id = 0; id < n; ++id) all[id] = id;
  check_decoded(all);

  const KcRTree& tree = *view.kcr;
  std::vector<KcRTree::NodeId> stack{tree.root()};
  while (!stack.empty()) {
    const KcRTree::Node& node = tree.node(stack.back());
    stack.pop_back();
    if (!node.is_leaf) {
      for (const auto& e : node.entries) stack.push_back(e.id);
      continue;
    }
    kernel.DecodeLeaf(node);
    std::vector<ObjectId> locals;
    for (const auto& e : node.entries) locals.push_back(e.id);
    check_decoded(locals);
  }
}

/// A store with its KcR-tree, viewed as an unsharded shard.
struct Indexed {
  explicit Indexed(ObjectStore s, RTreeOptions options = {})
      : store(std::move(s)), tree(&store, options) {
    tree.BulkLoad();
    view = OracleShardView{&store, nullptr, &tree, nullptr};
    dist_norm = store.BoundsDiagonal();
  }
  Indexed(const Indexed&) = delete;
  Indexed& operator=(const Indexed&) = delete;

  ObjectStore store;
  KcRTree tree;
  OracleShardView view;
  double dist_norm = 0.0;
};

constexpr RTreeOptions kSmallFanout{/*max_entries=*/8, /*min_entries=*/3};

TEST(ShardKernelTest, RandomCorpusMatchesScan) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Indexed idx(RandomStore(3000, 60, seed), kSmallFanout);
    const auto members = RandomMembers(idx.store, idx.dist_norm, 40, 4, 60,
                                       /*mixed_shapes=*/false, seed * 7);
    RefineAndCheck(idx.view, idx.dist_norm, members,
                   "random seed " + std::to_string(seed));
    ExpectBitIdenticalScores(idx.view, idx.dist_norm, members,
                             "random seed " + std::to_string(seed));
  }
}

TEST(ShardKernelTest, TieHeavyCorpusMatchesScan) {
  for (uint64_t seed : {11u, 12u}) {
    const Indexed idx(TieHeavyStore(2000, seed), kSmallFanout);
    const auto members = RandomMembers(idx.store, idx.dist_norm, 30, 3, 4,
                                       /*mixed_shapes=*/false, seed);
    RefineAndCheck(idx.view, idx.dist_norm, members,
                   "ties seed " + std::to_string(seed));
    ExpectBitIdenticalScores(idx.view, idx.dist_norm, members,
                             "ties seed " + std::to_string(seed));
  }
}

TEST(ShardKernelTest, KeywordUnionWiderThanOneMaskWord) {
  const Indexed idx(RandomStore(2500, 300, 21), kSmallFanout);
  const auto members = RandomMembers(idx.store, idx.dist_norm, 24, 30, 300,
                                     /*mixed_shapes=*/false, 22);
  std::vector<TermId> terms;
  for (const Member& m : members) {
    terms.insert(terms.end(), m.query.doc.begin(), m.query.doc.end());
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  ASSERT_GT(terms.size(), 128u);  // Three mask words or more.
  RefineAndCheck(idx.view, idx.dist_norm, members, "wide union");
  ExpectBitIdenticalScores(idx.view, idx.dist_norm, members, "wide union");
}

TEST(ShardKernelTest, MembersWithDifferentLocationsAndWeights) {
  const Indexed idx(RandomStore(3000, 40, 31), kSmallFanout);
  const auto members = RandomMembers(idx.store, idx.dist_norm, 32, 4, 40,
                                     /*mixed_shapes=*/true, 32);
  RefineAndCheck(idx.view, idx.dist_norm, members, "mixed shapes");
  ExpectBitIdenticalScores(idx.view, idx.dist_norm, members, "mixed shapes");
}

TEST(ShardKernelTest, ShardedViewsSumToTheGlobalScan) {
  const ObjectStore whole = RandomStore(4000, 50, 41);
  CorpusOptions options;
  options.rtree = kSmallFanout;
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(whole, GridShardRouter::Fit(whole, 3), options);
  const double dist_norm = sharded.dist_norm();
  const auto members = RandomMembers(whole, dist_norm, 30, 4, 50,
                                     /*mixed_shapes=*/false, 42);
  std::vector<size_t> summed(members.size(), 0);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const Corpus& shard = sharded.shard(s);
    ASSERT_TRUE(shard.has_kcr());
    const OracleShardView view{&shard.store(), &shard.setr(), &shard.kcr(),
                               &sharded.shard_global_ids(s)};
    // Each target lives in at most one shard: the other shards see it as
    // an outside target.
    const auto counts = RefineAndCheck(view, dist_norm, members,
                                       "shard " + std::to_string(s));
    for (size_t i = 0; i < members.size(); ++i) summed[i] += counts[i];
    ExpectBitIdenticalScores(view, dist_norm, members,
                             "shard " + std::to_string(s));

    std::vector<ScanTarget> targets;
    for (const Member& m : members) {
      targets.push_back(ScanTarget{&m.query, m.target_score, m.target});
    }
    EXPECT_EQ(ShardScanOutscoring(view, dist_norm, targets), counts)
        << "shard " << s;
  }
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(summed[i], ScanCount(whole, nullptr, dist_norm, members[i]))
        << "member " << i;
  }
}

TEST(ShardKernelTest, ScanCountsMatchTheReference) {
  const Indexed idx(TieHeavyStore(1500, 51));
  const auto members = RandomMembers(idx.store, idx.dist_norm, 20, 3, 4,
                                     /*mixed_shapes=*/true, 52);
  std::vector<ScanTarget> targets;
  for (const Member& m : members) {
    targets.push_back(ScanTarget{&m.query, m.target_score, m.target});
  }
  const std::vector<size_t> counts =
      ShardScanOutscoring(idx.view, idx.dist_norm, targets);
  ASSERT_EQ(counts.size(), members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(counts[i],
              ScanCount(idx.store, nullptr, idx.dist_norm, members[i]))
        << "member " << i;
  }
}

TEST(ShardKernelTest, BatchRefinesLikeEachMemberAlone) {
  const Indexed idx(RandomStore(3000, 30, 61), kSmallFanout);
  const auto members = RandomMembers(idx.store, idx.dist_norm, 25, 4, 30,
                                     /*mixed_shapes=*/true, 62);
  RefinerSet batch(idx.view, idx.dist_norm, members);
  // One single-member set per member (the sets keep pointers into these).
  std::vector<std::vector<Member>> singles;
  for (const Member& m : members) singles.push_back({m});
  std::vector<std::unique_ptr<RefinerSet>> solo;
  for (const auto& single : singles) {
    solo.push_back(
        std::make_unique<RefinerSet>(idx.view, idx.dist_norm, single));
  }
  Rng rng(63);
  for (int level = 0; level < 64 && !batch.AllResolved(); ++level) {
    // A random subset per level, as the keyword search lists only the
    // members of live candidates.
    std::vector<ShardRankRefiner*> listed;
    for (size_t i = 0; i < members.size(); ++i) {
      if (rng.NextBernoulli(0.7)) {
        listed.push_back(batch.refiners[i].get());
        ShardRankRefiner::RefineLevel(solo[i]->All());
      }
    }
    ShardRankRefiner::RefineLevel(listed);
    KeywordAdaptStats solo_stats;
    for (size_t i = 0; i < members.size(); ++i) {
      const ShardRankRefiner& b = *batch.refiners[i];
      const ShardRankRefiner& a = *solo[i]->refiners[0];
      EXPECT_EQ(b.count_lower(), a.count_lower()) << "member " << i;
      EXPECT_EQ(b.count_upper(), a.count_upper()) << "member " << i;
      EXPECT_EQ(b.resolved(), a.resolved()) << "member " << i;
      solo_stats.kcr_nodes_expanded += solo[i]->stats.kcr_nodes_expanded;
      solo_stats.objects_scored += solo[i]->stats.objects_scored;
    }
    EXPECT_EQ(batch.stats.kcr_nodes_expanded, solo_stats.kcr_nodes_expanded);
    EXPECT_EQ(batch.stats.objects_scored, solo_stats.objects_scored);
  }
  EXPECT_TRUE(batch.AllResolved());
}

TEST(ShardKernelTest, RepeatedRefinerIsRefinedOnce) {
  const Indexed idx(RandomStore(3000, 30, 71), kSmallFanout);
  const auto members = RandomMembers(idx.store, idx.dist_norm, 12, 4, 30,
                                     /*mixed_shapes=*/true, 72);
  RefinerSet repeated(idx.view, idx.dist_norm, members);
  RefinerSet distinct(idx.view, idx.dist_norm, members);
  for (int level = 0; level < 64 && !distinct.AllResolved(); ++level) {
    // Every refiner listed twice, the repeats both adjacent and apart.
    std::vector<ShardRankRefiner*> listed = repeated.All();
    const std::vector<ShardRankRefiner*> again = repeated.All();
    listed.insert(listed.end(), again.rbegin(), again.rend());
    ShardRankRefiner* const first = listed.front();
    listed.insert(listed.begin() + 1, first);
    ShardRankRefiner::RefineLevel(listed);
    ShardRankRefiner::RefineLevel(distinct.All());
    for (size_t i = 0; i < members.size(); ++i) {
      const ShardRankRefiner& r = *repeated.refiners[i];
      const ShardRankRefiner& d = *distinct.refiners[i];
      EXPECT_EQ(r.count_lower(), d.count_lower()) << "member " << i;
      EXPECT_EQ(r.count_upper(), d.count_upper()) << "member " << i;
      EXPECT_EQ(r.resolved(), d.resolved()) << "member " << i;
    }
    EXPECT_EQ(repeated.stats.kcr_nodes_expanded,
              distinct.stats.kcr_nodes_expanded);
    EXPECT_EQ(repeated.stats.objects_scored, distinct.stats.objects_scored);
  }
  EXPECT_TRUE(repeated.AllResolved());
}

}  // namespace
}  // namespace yask
