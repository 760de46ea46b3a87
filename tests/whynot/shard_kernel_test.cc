// Property tests of the one shard-side counting kernel, the question
// columns (QuestionColumns), here as a one-call question per location of a
// batch whose doc is the union of that location's query docs (one binary
// search per keyword-mask group).
//
// The reference is the brute-force scan of tests/reference: Scorer::Score
// over store.objects() with the D6 tie order, and no kernel code. The
// counts must equal it exactly, on random and tie-heavy data, for targets
// inside a tie run and targets the shard does not hold, for objects sharing
// no keyword with the batch, with a universe of exactly 64 keywords and of
// more, with two query locations in one batch, and over sharded id
// mappings, whose counts sum to the global count.

#include "src/whynot/shard_primitives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/corpus/shard_router.h"
#include "src/corpus/sharded_corpus.h"
#include "src/storage/dataset_generator.h"
#include "tests/reference/whynot_reference.h"

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

/// Objects on `grid` evenly spaced points of the x axis, each with a random
/// subset of four keywords: seen from the origin, ws·(1 − SDist) takes at
/// most `grid` values, so scores tie exactly across many ids.
ObjectStore GridStore(size_t n, size_t grid, uint64_t seed) {
  ObjectStore store;
  std::vector<TermId> terms;
  for (int t = 0; t < 4; ++t) {
    terms.push_back(store.mutable_vocab()->Intern("t" + std::to_string(t)));
  }
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const Point loc{static_cast<double>(rng.NextBounded(grid)) /
                        static_cast<double>(grid),
                    0.0};
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

/// Members sharing one location and weight (a keyword-adaption batch), or
/// spread over `shapes` distinct (location, weight) pairs; targets drawn
/// from `whole`, plus every fifth target an id outside the dataset.
/// `origin` pins the shared location to (0, 0).
std::vector<Member> RandomMembers(const ObjectStore& whole, double dist_norm,
                                  size_t count, size_t doc_size,
                                  size_t vocabulary, size_t shapes,
                                  uint64_t seed, bool origin = false) {
  Rng rng(seed);
  std::vector<std::pair<Point, double>> shape_list;
  for (size_t s = 0; s < shapes; ++s) {
    shape_list.emplace_back(origin ? Point{0.0, 0.0}
                                   : Point{rng.NextDouble(), rng.NextDouble()},
                            rng.NextDouble(0.1, 0.9));
  }
  std::vector<Member> members(count);
  for (size_t i = 0; i < count; ++i) {
    Member& m = members[i];
    const auto& [loc, ws] = shape_list[i % shapes];
    m.query.loc = loc;
    m.query.w = Weights::FromWs(ws);
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

/// The union of the members' query docs.
KeywordSet UnionOf(const std::vector<Member>& members) {
  KeywordSet terms;
  for (const Member& m : members) {
    terms = KeywordSet::Union(terms, m.query.doc);
  }
  return terms;
}

/// The counts of one-call questions: per location (told apart by its
/// bits), one QuestionColumns whose doc is the union of the docs there.
std::vector<size_t> QuestionCounts(const OracleShardView& view,
                                   double dist_norm,
                                   const std::vector<Member>& members) {
  auto same_loc = [](const Point& a, const Point& b) {
    return std::bit_cast<uint64_t>(a.x) == std::bit_cast<uint64_t>(b.x) &&
           std::bit_cast<uint64_t>(a.y) == std::bit_cast<uint64_t>(b.y);
  };
  const KeywordPostings postings(*view.store);
  std::vector<size_t> counts(members.size(), 0);
  std::vector<bool> done(members.size(), false);
  for (size_t first = 0; first < members.size(); ++first) {
    if (done[first]) continue;
    Query question = members[first].query;
    std::vector<size_t> here;
    for (size_t i = first; i < members.size(); ++i) {
      if (done[i] || !same_loc(members[i].query.loc, question.loc)) continue;
      question.doc = KeywordSet::Union(question.doc, members[i].query.doc);
      here.push_back(i);
      done[i] = true;
    }
    const QuestionColumns columns(view, postings, dist_norm, question,
                                  KeywordSet());
    for (const size_t i : here) {
      counts[i] = columns.CountOutscoring(ScanTarget{
          &members[i].query, members[i].target_score, members[i].target});
    }
  }
  return counts;
}

/// The question counts and the reference must agree exactly for every
/// member. Returns the counts.
std::vector<size_t> ExpectCountsMatch(const OracleShardView& view,
                                      double dist_norm,
                                      const std::vector<Member>& members,
                                      const std::string& label) {
  const std::vector<size_t> counts = QuestionCounts(view, dist_norm, members);
  for (size_t i = 0; i < members.size(); ++i) {
    const Member& m = members[i];
    const size_t want = reference::OutrankingCount(
        *view.store, view.to_global, dist_norm, m.query, m.target,
        m.target_score);
    EXPECT_EQ(counts[i], want) << label << " member " << i;
  }
  return counts;
}

/// A store viewed as an unsharded shard.
struct Unsharded {
  explicit Unsharded(ObjectStore s) : store(std::move(s)) {
    view = OracleShardView{&store, nullptr};
    dist_norm = store.BoundsDiagonal();
  }
  Unsharded(const Unsharded&) = delete;
  Unsharded& operator=(const Unsharded&) = delete;

  ObjectStore store;
  OracleShardView view;
  double dist_norm = 0.0;
};

TEST(ShardKernelTest, RandomCorpusMatchesTheReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Unsharded u(RandomStore(3000, 60, seed));
    const auto members = RandomMembers(u.store, u.dist_norm, 40, 4, 60,
                                       /*shapes=*/1, seed * 7);
    const std::string label = "random seed " + std::to_string(seed);
    ExpectCountsMatch(u.view, u.dist_norm, members, label);
  }
}

TEST(ShardKernelTest, TieHeavyGridsMatchTheReference) {
  // x on a 16- and a 256-value grid: each (mask, |doc|) group repeats every
  // x value many times, so equal scores across ids decide most counts.
  for (const size_t grid : {size_t{16}, size_t{256}}) {
    const Unsharded u(GridStore(3000, grid, grid));
    const auto members = RandomMembers(u.store, u.dist_norm, 40, 3, 4,
                                       /*shapes=*/1, grid + 1,
                                       /*origin=*/true);
    const std::string label = "grid " + std::to_string(grid);
    ExpectCountsMatch(u.view, u.dist_norm, members, label);
  }
}

TEST(ShardKernelTest, TargetInsideATieRun) {
  const Unsharded u(GridStore(2000, 16, 5));
  Query q;
  q.loc = Point{0.0, 0.0};
  q.w = Weights::FromWs(0.5);
  q.doc = KeywordSet({0, 1});
  const Scorer scorer(u.store, q, u.dist_norm);
  std::vector<Member> members;
  for (ObjectId id = 0; id < u.store.size(); id += 97) {
    members.push_back(Member{q, id, scorer.Score(id)});
  }
  // The chosen targets really sit inside runs of equal scores, with tied
  // objects on both sides of their ids.
  size_t inside = 0;
  for (const Member& m : members) {
    size_t below = 0;
    size_t above = 0;
    for (ObjectId id = 0; id < u.store.size(); ++id) {
      if (scorer.Score(id) != m.target_score || id == m.target) continue;
      (id < m.target ? below : above) += 1;
    }
    if (below > 0 && above > 0) ++inside;
  }
  ASSERT_GT(inside, members.size() / 2);
  ExpectCountsMatch(u.view, u.dist_norm, members, "tie run");

  // A target given a threshold below its own score (it would outrank
  // itself) and one given exactly the score of a tie run it is not in.
  std::vector<Member> shifted = members;
  for (Member& m : shifted) m.target_score -= 0.01;
  ExpectCountsMatch(u.view, u.dist_norm, shifted, "target above threshold");
}

TEST(ShardKernelTest, TargetAbsentFromTheShard) {
  const Unsharded u(GridStore(2000, 16, 6));
  Query q;
  q.loc = Point{0.0, 0.0};
  q.w = Weights::FromWs(0.4);
  q.doc = KeywordSet({1, 2});
  const Scorer scorer(u.store, q, u.dist_norm);
  const ObjectId n = static_cast<ObjectId>(u.store.size());
  std::vector<Member> members;
  // Absent ids above and (for a shard) between the shard's ids, with the
  // scores of real objects so the id tie-break decides inside the run.
  for (ObjectId id = 0; id < n; id += 131) {
    members.push_back(Member{q, n + id, scorer.Score(id)});
    members.push_back(Member{q, kInvalidObject - 1, scorer.Score(id)});
  }
  ExpectCountsMatch(u.view, u.dist_norm, members, "absent target");
}

TEST(ShardKernelTest, ObjectsSharingNoKeywordWithTheBatch) {
  // Half the objects carry only keywords outside every member's query
  // (mask 0), some carry none at all (|o.doc| = 0).
  ObjectStore store;
  std::vector<TermId> terms;
  for (int t = 0; t < 12; ++t) {
    terms.push_back(store.mutable_vocab()->Intern("k" + std::to_string(t)));
  }
  Rng rng(81);
  for (int i = 0; i < 2000; ++i) {
    std::vector<TermId> doc;
    const size_t from = i % 2 == 0 ? 6 : 0;  // Even ids: outside keywords.
    for (size_t t = from; t < from + 6; ++t) {
      if (i % 7 != 0 && rng.NextBernoulli(0.3)) doc.push_back(terms[t]);
    }
    store.Add(Point{rng.NextDouble(), rng.NextDouble()},
              KeywordSet(std::move(doc)));
  }
  const Unsharded u(std::move(store));
  const auto members = RandomMembers(u.store, u.dist_norm, 30, 3, 6,
                                     /*shapes=*/1, 82);
  ExpectCountsMatch(u.view, u.dist_norm, members, "mask 0");
}

TEST(ShardKernelTest, UniverseOfSixtyFourKeywords) {
  const Unsharded u(RandomStore(3000, 80, 91));
  auto members = RandomMembers(u.store, u.dist_norm, 32, 4, 80,
                               /*shapes=*/1, 92);
  // Widen the first members' documents until the union is exactly 64
  // keywords: one full mask word.
  KeywordSet universe = UnionOf(members);
  for (TermId t = 0; universe.size() < kMaxKeywordUniverse; ++t) {
    if (universe.Contains(t)) continue;
    members[universe.size() % members.size()].query.doc.Insert(t);
    universe = UnionOf(members);
  }
  while (universe.size() > kMaxKeywordUniverse) {
    for (Member& m : members) {
      if (m.query.doc.size() > 1) {
        m.query.doc.Erase(m.query.doc.ids().back());
        break;
      }
    }
    universe = UnionOf(members);
  }
  ASSERT_EQ(universe.size(), kMaxKeywordUniverse);
  for (Member& m : members) {
    if (m.target < u.store.size()) {
      m.target_score =
          Scorer(u.store, m.query, u.dist_norm).Score(m.target);
    }
  }
  ExpectCountsMatch(u.view, u.dist_norm, members, "64 keywords");
}

TEST(ShardKernelTest, TwoLocationsInOneBatch) {
  const Unsharded u(RandomStore(3000, 40, 31));
  const auto members = RandomMembers(u.store, u.dist_norm, 32, 4, 40,
                                     /*shapes=*/2, 32);
  ExpectCountsMatch(u.view, u.dist_norm, members, "two locations");
}

TEST(ShardKernelTest, ShardedViewsSumToTheGlobalCount) {
  const ObjectStore whole = RandomStore(4000, 50, 41);
  for (const bool hash : {false, true}) {
    std::unique_ptr<ShardRouter> router;
    if (hash) {
      router = std::make_unique<HashShardRouter>(3);
    } else {
      router = GridShardRouter::Fit(whole, 3);
    }
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(whole, std::move(router));
    const double dist_norm = sharded.dist_norm();
    const auto members = RandomMembers(whole, dist_norm, 30, 4, 50,
                                       /*shapes=*/1, 42);
    std::vector<size_t> summed(members.size(), 0);
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      const Corpus& shard = sharded.shard(s);
      const OracleShardView view{&shard.store(),
                                 &sharded.shard_global_ids(s)};
      // Each target lives in at most one shard: the other shards see it as
      // an absent target.
      const std::string label = sharded.router_description() + " shard " +
                                std::to_string(s);
      const auto counts = ExpectCountsMatch(view, dist_norm, members, label);
      for (size_t i = 0; i < members.size(); ++i) summed[i] += counts[i];
    }
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(summed[i],
                reference::OutrankingCount(whole, nullptr, dist_norm,
                                           members[i].query, members[i].target,
                                           members[i].target_score))
          << "member " << i;
    }
  }
}

TEST(ShardKernelTest, UnionsWiderThanOneMaskWord) {
  // Neither plane caps the union: several mask words.
  const Unsharded u(RandomStore(2500, 300, 21));
  const auto members = RandomMembers(u.store, u.dist_norm, 24, 30, 300,
                                     /*shapes=*/1, 22);
  ASSERT_GT(UnionOf(members).size(), 128u);
  ExpectCountsMatch(u.view, u.dist_norm, members, "wide union");
}

TEST(ShardKernelTest, EmptyBatchAndEmptyShard) {
  const Unsharded u(RandomStore(100, 10, 7));
  const Unsharded empty{ObjectStore()};
  const auto members = RandomMembers(u.store, u.dist_norm, 5, 2, 10,
                                     /*shapes=*/1, 8);
  EXPECT_TRUE(QuestionCounts(u.view, u.dist_norm, {}).empty());
  EXPECT_EQ(QuestionCounts(empty.view, u.dist_norm, members),
            std::vector<size_t>(members.size(), 0));
}

}  // namespace
}  // namespace yask
