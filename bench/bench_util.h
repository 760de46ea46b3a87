// Shared fixtures for the benchmark harness: datasets and indexes are built
// once per size and cached for the lifetime of the binary, so google-benchmark
// timings measure the operation under test, not repeated setup.
//
// All workloads are seeded: every run of a bench binary replays the identical
// experiment (EXPERIMENTS.md reports these numbers).

#ifndef YASK_BENCH_BENCH_UTIL_H_
#define YASK_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/index/setr_tree.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"

namespace yask {
namespace bench {

inline constexpr uint64_t kDatasetSeed = 20160901;  // VLDB'16 proceedings.

/// The spec of the benchmark dataset family: clustered spatial placement,
/// Zipf keywords, |vocab| = 2000 — the synthetic stand-in for the POI crawls
/// of refs [5,6].
inline DatasetSpec SharedDatasetSpec(size_t n) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.vocabulary_size = 2000;
  spec.keyword_zipf = 1.0;
  spec.min_keywords = 3;
  spec.max_keywords = 10;
  spec.seed = kDatasetSeed;
  return spec;
}

/// The benchmark corpus family: the shared dataset plus its SetR-tree, as
/// one owned Corpus. Heavier indexes (the plain R-tree) stay in their
/// own lazy caches below so a bench only pays for what it uses.
inline const Corpus& SharedCorpus(size_t n) {
  static std::map<size_t, std::unique_ptr<Corpus>>* cache =
      new std::map<size_t, std::unique_ptr<Corpus>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache
             ->emplace(n, std::make_unique<Corpus>(CorpusBuilder().Build(
                              GenerateDataset(SharedDatasetSpec(n)))))
             .first;
  }
  return *it->second;
}

inline const ObjectStore& SharedDataset(size_t n) {
  return SharedCorpus(n).store();
}

inline const SetRTree& SharedSetR(size_t n) { return SharedCorpus(n).setr(); }

inline const RTree& SharedRTree(size_t n) {
  static std::map<size_t, std::unique_ptr<RTree>>* cache =
      new std::map<size_t, std::unique_ptr<RTree>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    auto tree = std::make_unique<RTree>(&SharedDataset(n));
    tree->BulkLoad();
    it = cache->emplace(n, std::move(tree)).first;
  }
  return *it->second;
}

/// A query whose location hugs the data and whose keywords certainly match
/// something (the way demo users click the map and type known words).
inline Query MakeQuery(const ObjectStore& store, Rng* rng, size_t num_keywords,
                       uint32_t k) {
  Query q;
  q.loc = SampleQueryLocation(store, rng);
  q.doc = SampleQueryKeywords(store, num_keywords, rng);
  q.k = k;
  q.w = Weights::FromWs(0.5);
  return q;
}

/// Knobs of the production-shaped /query workload below.
struct ProductionWorkloadSpec {
  /// How many distinct query shapes exist. Real map traffic is a small hot
  /// set over a long tail; 64 shapes under Zipf(1.0) popularity puts ~20%
  /// of all requests on the single hottest query.
  size_t distinct_queries = 64;
  /// Geographic hotspots the query locations cluster around (downtowns,
  /// station areas) — each shape's location is one hotspot plus Gaussian
  /// jitter, not a uniform draw over the whole map.
  size_t hotspots = 4;
  /// Zipf exponent of shape popularity (0 = uniform traffic).
  double popularity_skew = 1.0;
  size_t min_keywords = 1;
  size_t max_keywords = 3;
  uint32_t k = 5;
  uint64_t seed = kDatasetSeed + 7;
};

/// A production-shaped stream of /query requests: keywords are Zipf draws
/// over the corpus's actually-most-frequent terms and locations cluster
/// around a few geographic hotspots, so a handful of hot queries dominates a
/// long tail — the regime a coordinator result cache and single-flight
/// coalescing are built for. Fully seeded: the same spec replays the same
/// shapes and the same popularity draws on every run.
class ProductionWorkload {
 public:
  explicit ProductionWorkload(const ObjectStore& store,
                              ProductionWorkloadSpec spec = {})
      : pick_(std::max<size_t>(spec.distinct_queries, 1),
              spec.popularity_skew),
        rng_(spec.seed) {
    // Term popularity measured from the corpus itself, most frequent first.
    std::map<TermId, size_t> freq;
    double min_x = 0, min_y = 0, max_x = 0, max_y = 0;
    for (size_t i = 0; i < store.size(); ++i) {
      const SpatialObject& o = store.Get(static_cast<ObjectId>(i));
      for (const TermId t : o.doc) ++freq[t];
      if (i == 0) {
        min_x = max_x = o.loc.x;
        min_y = max_y = o.loc.y;
      } else {
        min_x = std::min(min_x, o.loc.x);
        max_x = std::max(max_x, o.loc.x);
        min_y = std::min(min_y, o.loc.y);
        max_y = std::max(max_y, o.loc.y);
      }
    }
    std::vector<std::pair<size_t, TermId>> ranked;
    ranked.reserve(freq.size());
    for (const auto& [term, count] : freq) ranked.emplace_back(count, term);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    const ZipfSampler term_pick(
        std::max<size_t>(1, std::min<size_t>(ranked.size(), 256)), 1.0);

    std::vector<Point> centers;
    for (size_t h = 0; h < std::max<size_t>(spec.hotspots, 1); ++h) {
      centers.push_back(
          store.Get(static_cast<ObjectId>(rng_.NextBounded(store.size())))
              .loc);
    }
    // Jitter at ~2% of the data extent keeps a hotspot a neighbourhood, not
    // a city.
    const double sx = std::max(max_x - min_x, 1e-9) * 0.02;
    const double sy = std::max(max_y - min_y, 1e-9) * 0.02;

    const size_t shapes = std::max<size_t>(spec.distinct_queries, 1);
    for (size_t i = 0; i < shapes; ++i) {
      Query q;
      const Point& c = centers[rng_.NextBounded(centers.size())];
      q.loc = Point{c.x + rng_.NextGaussian() * sx,
                    c.y + rng_.NextGaussian() * sy};
      const size_t want = static_cast<size_t>(rng_.NextInt(
          static_cast<int64_t>(std::max<size_t>(spec.min_keywords, 1)),
          static_cast<int64_t>(
              std::max(spec.max_keywords, spec.min_keywords))));
      KeywordSet doc;
      for (size_t attempts = 0; doc.size() < want && attempts < 64;
           ++attempts) {
        doc.Insert(ranked[term_pick.Sample(&rng_)].second);
      }
      q.doc = std::move(doc);
      q.k = spec.k;
      q.w = Weights::FromWs(0.5);
      shapes_.push_back(std::move(q));
    }
  }

  /// One Zipf popularity draw over the distinct shapes using the caller's
  /// rng (so concurrent clients with distinct seeds draw independent but
  /// reproducible streams). Returns the shape index — callers that
  /// precompute per-shape request bodies or reference payloads key on it.
  size_t Draw(Rng* rng) const { return pick_.Sample(rng); }

  /// The next request in the stream.
  const Query& Next(Rng* rng) const { return shapes_[Draw(rng)]; }

  size_t distinct() const { return shapes_.size(); }
  const Query& shape(size_t i) const { return shapes_[i]; }

 private:
  std::vector<Query> shapes_;
  ZipfSampler pick_;
  Rng rng_;
};

/// Missing objects ranked just outside the top-k (offset .. offset+count).
inline std::vector<ObjectId> PickMissing(const ObjectStore& store,
                                         const Query& q, size_t count,
                                         size_t offset = 5) {
  Query probe = q;
  probe.k = static_cast<uint32_t>(q.k + offset + count + 5);
  const TopKResult wide = TopKScan(store, probe);
  std::vector<ObjectId> missing;
  for (size_t i = q.k + offset; i < wide.size() && missing.size() < count;
       ++i) {
    missing.push_back(wide[i].id);
  }
  return missing;
}

}  // namespace bench
}  // namespace yask

#endif  // YASK_BENCH_BENCH_UTIL_H_
