#include "src/whynot/whynot_oracle.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "src/common/trace.h"
#include "src/corpus/corpus.h"
#include "src/corpus/sharded_corpus.h"

namespace yask {

// --- FanOutWhyNotOracle ------------------------------------------------------

namespace {

/// The partition-sum: per item, the answering shards' counts added up.
std::vector<size_t> SumOver(const std::vector<size_t>& answered,
                            const std::vector<std::vector<size_t>>& counts,
                            size_t items) {
  std::vector<size_t> total(items, 0);
  for (const size_t s : answered) {
    for (size_t i = 0; i < items; ++i) total[i] += counts[s][i];
  }
  return total;
}

/// Adds `part`'s rows to `merged` and keeps the first k under the
/// ScoredObject order — the one top-k merge, for the query's fan-out and a
/// question's top-k alike. Each shard's rows are a disjoint set of objects
/// with exact scores, so the merged first k are the global top-k.
void MergeTopK(const TopKResult& part, size_t k, TopKResult* merged) {
  merged->insert(merged->end(), part.begin(), part.end());
  std::sort(merged->begin(), merged->end());
  if (merged->size() > k) merged->resize(k);
}

}  // namespace

/// One open question: every shard's state for it, shared by the question
/// oracle and the plane sessions it hands out. A shard whose question failed
/// to open adds nothing for the rest of the question (its error was
/// recorded at open).
struct ShardQuestionSet {
  Query query;          // The question's query: its location and plane.
  KeywordSet universe;  // query.doc ∪ U: the docs its ranks may use.
  std::vector<std::unique_ptr<OracleShardQuestion>> shards;
  std::vector<size_t> live;  // Shards whose question opened.
};

/// The one ScorePlaneSession: the plane of every shard's question, merged by
/// partition-sum / partition-union.
class FanOutScorePlaneSession : public ScorePlaneSession {
 public:
  FanOutScorePlaneSession(const FanOutWhyNotOracle* oracle, const Query* query,
                          std::shared_ptr<ShardQuestionSet> questions)
      : oracle_(oracle), query_(query), questions_(std::move(questions)) {}

  PlanePoint Anchor(ObjectId global_id) const override {
    // Computed from the object with the arithmetic of the columns' x and y,
    // so the anchor is the same point in every layout.
    const ObjectScoreParts parts = ScorePartsOf(
        *query_, oracle_->dist_norm(), oracle_->Object(global_id));
    return PlanePoint{1.0 - parts.sdist, parts.tsim, global_id};
  }

  std::vector<size_t> CountAboveBatch(
      const std::vector<double>& weights,
      const std::vector<PlanePoint>& anchors,
      PreferenceAdjustStats* stats) const override {
    const size_t pairs = weights.size() * anchors.size();
    // ONE fan-out for the whole (weights × anchors) grid: each shard counts
    // every pair, and each pair's total is an exact partition-sum.
    std::vector<std::vector<size_t>> counts(questions_->shards.size());
    std::vector<size_t> nodes(questions_->shards.size(), 0);
    const std::vector<size_t> answered =
        oracle_->FanOutShards(questions_->live, [&](size_t s) {
          counts[s].resize(pairs);
          return questions_->shards[s]->CountAboveBatch(weights, anchors,
                                                        &counts[s], &nodes[s]);
        });
    for (const size_t s : answered) stats->index_nodes_visited += nodes[s];
    return SumOver(answered, counts, pairs);
  }

  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        PreferenceAdjustStats* stats) const override {
    std::vector<std::vector<double>> parts(questions_->shards.size());
    std::vector<size_t> nodes(questions_->shards.size(), 0);
    const std::vector<size_t> answered =
        oracle_->FanOutShards(questions_->live, [&](size_t s) {
          return questions_->shards[s]->CollectCrossings(anchor, wlo, whi,
                                                         &parts[s], &nodes[s]);
        });
    // Union in shard order; the caller sorts + deduplicates the merged set,
    // so the final event sequence is layout-independent.
    for (const size_t s : answered) {
      events->insert(events->end(), parts[s].begin(), parts[s].end());
      stats->index_nodes_visited += nodes[s];
    }
  }

 private:
  const FanOutWhyNotOracle* oracle_;
  const Query* query_;
  std::shared_ptr<ShardQuestionSet> questions_;
};

/// The question-scoped oracle FanOutWhyNotOracle::OpenQuestion returns: the
/// calls its question covers are answered from the open questions — ranks,
/// the plane and top-k, with no SetR-tree search — and the rest pass
/// through.
class FanOutQuestion final : public WhyNotOracle {
 public:
  FanOutQuestion(const FanOutWhyNotOracle* oracle,
                 std::shared_ptr<ShardQuestionSet> questions)
      : oracle_(oracle), questions_(std::move(questions)) {}

  size_t size() const override { return oracle_->size(); }
  double dist_norm() const override { return oracle_->dist_norm(); }
  const SpatialObject& Object(ObjectId global_id) const override {
    return oracle_->Object(global_id);
  }
  TopKResult TopK(const Query& query, TopKStats* stats) const override {
    if (!QuestionCoversTopK(questions_->query, questions_->universe, query)) {
      return oracle_->TopK(query, stats);
    }
    if (query.k == 0) return {};
    std::vector<TopKResult> parts(questions_->shards.size());
    std::vector<TopKStats> part_stats(questions_->shards.size());
    const std::vector<size_t> answered =
        oracle_->FanOutShards(questions_->live, [&](size_t s) {
          Result<TopKResult> rows =
              questions_->shards[s]->TopK(query, &part_stats[s]);
          if (!rows.ok()) return rows.status();
          parts[s] = std::move(rows).value();
          return Status::OK();
        });
    TopKResult merged;
    for (const size_t s : answered) {
      MergeTopK(parts[s], query.k, &merged);
      if (stats != nullptr) {
        stats->nodes_popped += part_stats[s].nodes_popped;
        stats->objects_scored += part_stats[s].objects_scored;
      }
    }
    return merged;
  }

  std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const override {
    // The plane is the question query's: its location and doc.
    if (!Covers(query) || query.doc != questions_->query.doc) {
      return oracle_->PrepareScorePlane(query, mode);
    }
    return std::make_unique<FanOutScorePlaneSession>(oracle_, &query,
                                                     questions_);
  }

  std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const override {
    for (const OracleTargetSpec& spec : specs) {
      if (!Covers(*spec.query)) return oracle_->ProbeRankBatch(specs, stats);
    }
    stats->objects_scored += oracle_->size();
    std::vector<size_t> ranks = oracle_->SumQuestionCounts(
        questions_.get(), oracle_->ResolveTargets(specs));
    for (size_t& rank : ranks) ++rank;
    return std::make_unique<ExactRankBatch>(std::move(ranks));
  }

 private:
  bool Covers(const Query& query) const {
    return QuestionCovers(questions_->query, questions_->universe, query);
  }

  const FanOutWhyNotOracle* oracle_;
  std::shared_ptr<ShardQuestionSet> questions_;
};

FanOutWhyNotOracle::FanOutWhyNotOracle(
    std::vector<std::unique_ptr<const OracleShard>> shards, double dist_norm,
    ThreadPool* pool, std::function<void(const Status&)> record_error)
    : shards_(std::move(shards)),
      dist_norm_(dist_norm),
      pool_(pool),
      record_error_(std::move(record_error)) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    all_shards_.push_back(s);
    size_ += shards_[s]->size();
  }
}

std::vector<size_t> FanOutWhyNotOracle::FanOutShards(
    const std::vector<size_t>& shards,
    const std::function<Status(size_t)>& call) const {
  std::vector<Status> status(shards_.size());
  FanOut(pool_, shards, [&](size_t s) { status[s] = call(s); });
  std::vector<size_t> answered;
  answered.reserve(shards.size());
  for (const size_t s : shards) {
    if (status[s].ok()) {
      answered.push_back(s);
    } else {
      assert(record_error_ && "an in-process shard never fails");
      record_error_(status[s]);
    }
  }
  return answered;
}

TopKResult FanOutWhyNotOracle::TopK(const Query& query,
                                    TopKStats* stats) const {
  if (query.k == 0) return {};  // Same guard as the unsharded engine.
  const size_t n = shards_.size();
  std::vector<double> distance(n);
  for (size_t s = 0; s < n; ++s) {
    distance[s] = shards_[s]->RootDistance(query.loc);
  }
  std::vector<TopKResult> parts(n);
  std::vector<TopKStats> part_stats(n);
  TopKResult merged;
  // Searches the listed shards, pruning below the k-th merged score (none
  // before k rows are merged), and returns those that answered.
  auto search = [&](const std::vector<size_t>& listed) {
    const double prune_below = merged.size() == query.k
                                   ? merged.back().score
                                   : -std::numeric_limits<double>::infinity();
    return FanOutShards(listed, [&](size_t s) {
      Result<TopKResult> rows =
          shards_[s]->TopK(query, prune_below, &part_stats[s]);
      if (!rows.ok()) return rows.status();
      parts[s] = std::move(rows).value();
      return Status::OK();
    });
  };
  auto merge = [&](const std::vector<size_t>& answered) {
    for (const size_t s : answered) MergeTopK(parts[s], query.k, &merged);
  };

  // The home shard (nearest root MBR), searched to completion: its k-th
  // score then bounds what any other shard must beat.
  const size_t home =
      std::min_element(distance.begin(), distance.end()) - distance.begin();
  merge(search({home}));
  std::vector<size_t> others = all_shards_;
  others.erase(others.begin() + home);
  if (pool_ != nullptr && !others.empty()) {
    // Parallel: every other shard searches against the home shard's k-th
    // score at once.
    std::vector<size_t> answered;
    {
      ScopedSpan fanout_span("topk/fanout",
                             std::to_string(others.size()) + " shards");
      answered = search(others);
    }
    ScopedSpan merge_span("topk/merge");
    merge(answered);
  } else {
    // Sequential: nearest shards first, each seeing the tightest threshold
    // yet.
    std::stable_sort(others.begin(), others.end(), [&](size_t a, size_t b) {
      return distance[a] < distance[b];
    });
    for (const size_t s : others) merge(search({s}));
  }

  if (stats != nullptr) {
    for (const TopKStats& ps : part_stats) {
      stats->nodes_popped += ps.nodes_popped;
      stats->objects_scored += ps.objects_scored;
    }
  }
  return merged;
}

std::vector<ScanTarget> FanOutWhyNotOracle::ResolveTargets(
    const std::vector<OracleTargetSpec>& specs) const {
  std::vector<ScanTarget> targets;
  targets.reserve(specs.size());
  for (const OracleTargetSpec& spec : specs) {
    targets.push_back(ScanTarget{
        spec.query,
        ScorePartsOf(*spec.query, dist_norm_, Object(spec.target)).score,
        spec.target});
  }
  return targets;
}

std::shared_ptr<ShardQuestionSet> FanOutWhyNotOracle::OpenShardQuestions(
    const Query& query, const KeywordSet& universe) const {
  auto questions = std::make_shared<ShardQuestionSet>();
  questions->query = query;
  questions->universe = KeywordSet::Union(query.doc, universe);
  questions->shards.resize(shards_.size());
  questions->live = FanOutShards(all_shards_, [&](size_t s) {
    Result<std::unique_ptr<OracleShardQuestion>> question =
        shards_[s]->OpenQuestion(query, universe);
    if (!question.ok()) return question.status();
    questions->shards[s] = std::move(question).value();
    return Status::OK();
  });
  return questions;
}

std::vector<size_t> FanOutWhyNotOracle::SumQuestionCounts(
    ShardQuestionSet* questions, const std::vector<ScanTarget>& targets) const {
  std::vector<std::vector<size_t>> counts(shards_.size());
  const std::vector<size_t> answered =
      FanOutShards(questions->live, [&](size_t s) {
        Result<std::vector<size_t>> shard_counts =
            questions->shards[s]->CountOutscoring(targets);
        if (!shard_counts.ok()) return shard_counts.status();
        counts[s] = std::move(shard_counts).value();
        return Status::OK();
      });
  return SumOver(answered, counts, targets.size());
}

std::vector<size_t> FanOutWhyNotOracle::CountByLocation(
    const std::vector<OracleTargetSpec>& specs) const {
  // The specs by the bits of their location, in first-seen order.
  std::vector<std::vector<size_t>> locations;
  std::map<std::pair<uint64_t, uint64_t>, size_t> location_of;
  for (size_t i = 0; i < specs.size(); ++i) {
    const Point& loc = specs[i].query->loc;
    const auto [it, fresh] = location_of.try_emplace(
        {std::bit_cast<uint64_t>(loc.x), std::bit_cast<uint64_t>(loc.y)},
        locations.size());
    if (fresh) locations.emplace_back();
    locations[it->second].push_back(i);
  }
  const std::vector<ScanTarget> targets = ResolveTargets(specs);
  std::vector<size_t> counts(specs.size());
  for (const std::vector<size_t>& members : locations) {
    // A one-call question per location whose doc covers every member's:
    // q.doc has no cap on the wire, so neither has the batch.
    Query question = *specs[members.front()].query;
    std::vector<ScanTarget> located;
    located.reserve(members.size());
    for (const size_t i : members) {
      question.doc = KeywordSet::Union(question.doc, specs[i].query->doc);
      located.push_back(targets[i]);
    }
    const std::shared_ptr<ShardQuestionSet> questions =
        OpenShardQuestions(question, KeywordSet());
    const std::vector<size_t> located_counts =
        SumQuestionCounts(questions.get(), located);
    for (size_t j = 0; j < members.size(); ++j) {
      counts[members[j]] = located_counts[j];
    }
  }
  return counts;
}

std::unique_ptr<ScorePlaneSession> FanOutWhyNotOracle::PrepareScorePlane(
    const Query& query, PrefAdjustMode /*mode*/) const {
  return std::make_unique<FanOutScorePlaneSession>(
      this, &query, OpenShardQuestions(query, KeywordSet()));
}

std::unique_ptr<RankProbeBatch> FanOutWhyNotOracle::ProbeRankBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += size_;
  std::vector<size_t> ranks = CountByLocation(specs);
  for (size_t& rank : ranks) ++rank;
  return std::make_unique<ExactRankBatch>(std::move(ranks));
}

std::unique_ptr<const WhyNotOracle> FanOutWhyNotOracle::OpenQuestion(
    const Query& query, const std::vector<ObjectId>& missing) const {
  if (!query.Validate().ok() || missing.empty()) return nullptr;
  KeywordSet universe = query.doc;
  for (const ObjectId id : missing) {
    if (id >= size_) return nullptr;
    universe = KeywordSet::Union(universe, Object(id).doc);
  }
  // Past the cap keyword adaption refuses the question, and the rest need
  // only q.doc.
  if (universe.size() > kMaxKeywordUniverse) universe = KeywordSet();

  ScopedSpan span("whynot/question");
  std::shared_ptr<ShardQuestionSet> questions =
      OpenShardQuestions(query, universe);
  if (span.active()) {
    QuestionShape total;
    total.universe = questions->universe.size();
    for (const size_t s : questions->live) {
      const QuestionShape shape = questions->shards[s]->shape();
      total.objects += shape.objects;
      total.groups += shape.groups;
      total.columns += shape.columns;
    }
    span.set_detail(DescribeQuestion(total));
  }
  return std::make_unique<FanOutQuestion>(this, std::move(questions));
}

// --- LocalWhyNotOracle -------------------------------------------------------

namespace {

std::vector<std::unique_ptr<const OracleShard>> OneShard(
    const ObjectStore& store, const SetRTree* setr) {
  std::vector<std::unique_ptr<const OracleShard>> shards;
  shards.push_back(std::make_unique<LocalOracleShard>(
      OracleShardView{&store, nullptr, setr}, store.BoundsDiagonal()));
  return shards;
}

std::vector<std::unique_ptr<const OracleShard>> ShardsOf(
    const ShardedCorpus& corpus) {
  std::vector<std::unique_ptr<const OracleShard>> shards;
  shards.reserve(corpus.num_shards());
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    const Corpus& shard = corpus.shard(s);
    shards.push_back(std::make_unique<LocalOracleShard>(
        OracleShardView{&shard.store(), &corpus.shard_global_ids(s),
                        &shard.setr()},
        corpus.dist_norm()));
  }
  return shards;
}

}  // namespace

LocalWhyNotOracle::LocalWhyNotOracle(const ObjectStore& store,
                                     const SetRTree* setr)
    : FanOutWhyNotOracle(OneShard(store, setr), store.BoundsDiagonal(),
                         /*pool=*/nullptr),
      store_(&store) {}

LocalWhyNotOracle::LocalWhyNotOracle(const Corpus& corpus)
    : LocalWhyNotOracle(corpus.store(), &corpus.setr()) {}

LocalWhyNotOracle::LocalWhyNotOracle(const ShardedCorpus& corpus)
    : FanOutWhyNotOracle(ShardsOf(corpus), corpus.dist_norm(), corpus.pool()),
      sharded_(&corpus) {}

const SpatialObject& LocalWhyNotOracle::Object(ObjectId global_id) const {
  return sharded_ != nullptr ? sharded_->Object(global_id)
                             : store_->Get(global_id);
}

}  // namespace yask
