#include "src/whynot/shard_primitives.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

#include "src/query/ranking.h"
#include "src/whynot/preference_adjustment.h"

namespace yask {

namespace {

/// Appends the crossing weight of the anchor's line with p's line when it
/// exists and falls inside [wlo, whi] — the shared re-filter every layout
/// runs, so a crossing's weight is the same double wherever it is computed.
void AppendCrossingWeight(const PlanePoint& m, const PlanePoint& p, double wlo,
                          double whi, std::vector<double>* events) {
  if (p.id == m.id) return;
  const double slope = (p.x - m.x) - (p.y - m.y);
  if (slope == 0.0) return;  // Parallel (or identical) lines: no crossing.
  const double wx = (m.y - p.y) / slope;
  if (!(wx >= wlo && wx <= whi)) return;
  events->push_back(wx);
}

/// Objects decoded per block by ShardScanOutscoring: about one KcR-tree
/// leaf, so a scan's scratch stays as small as a refinement level's.
constexpr ObjectId kScanBlock = 64;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Jaccard from the set sizes, exactly as KeywordSet::Jaccard computes it.
double JaccardOf(size_t inter, size_t qlen, size_t len) {
  const size_t uni = qlen + len - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

// --- OutrankKernel -----------------------------------------------------------

OutrankKernel::OutrankKernel(const OracleShardView& view,
                             const std::vector<const Scorer*>& scorers)
    : view_(&view) {
  for (const Scorer* scorer : scorers) {
    const KeywordSet& doc = scorer->query().doc;
    terms_.insert(terms_.end(), doc.begin(), doc.end());
  }
  std::sort(terms_.begin(), terms_.end());
  terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
  words_ = std::max<size_t>(1, (terms_.size() + 63) / 64);
  for (TermId t : terms_) filter_[(t >> 6) & 3] |= uint64_t{1} << (t & 63);

  members_.reserve(scorers.size());
  member_masks_.assign(scorers.size() * words_, 0);
  for (size_t m = 0; m < scorers.size(); ++m) {
    const Query& q = scorers[m]->query();
    const Shape shape{q.loc, q.w.ws, scorers[m]->dist_norm()};
    // Shapes are told apart by their bits: equal doubles with different
    // bits (±0) must not share a spatial column.
    size_t si = 0;
    while (si < shapes_.size() &&
           !(Bits(shapes_[si].loc.x) == Bits(shape.loc.x) &&
             Bits(shapes_[si].loc.y) == Bits(shape.loc.y) &&
             Bits(shapes_[si].ws) == Bits(shape.ws) &&
             Bits(shapes_[si].dist_norm) == Bits(shape.dist_norm))) {
      ++si;
    }
    if (si == shapes_.size()) shapes_.push_back(shape);
    members_.push_back(Member{si, q.doc.size(), q.w.wt});
    for (TermId t : q.doc) {
      const size_t bit =
          std::lower_bound(terms_.begin(), terms_.end(), t) - terms_.begin();
      member_masks_[m * words_ + bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
}

void OutrankKernel::Resize(size_t count) {
  gid_.resize(count);
  len_.resize(count);
  masks_.assign(count * words_, 0);
  spatial_.resize(count * shapes_.size());
}

void OutrankKernel::Decode(size_t i, ObjectId local) {
  const SpatialObject& o = view_->store->Get(local);
  gid_[i] = view_->to_global != nullptr ? (*view_->to_global)[local] : local;
  len_[i] = static_cast<uint32_t>(o.doc.size());
  uint64_t* mask = &masks_[i * words_];
  auto t = terms_.begin();
  for (TermId id : o.doc) {
    // Most object keywords are outside the union: one filter probe rejects
    // them before the search.
    if ((filter_[(id >> 6) & 3] >> (id & 63) & 1) == 0) continue;
    t = std::lower_bound(t, terms_.end(), id);
    if (t == terms_.end()) break;
    if (*t == id) {
      const size_t bit = t - terms_.begin();
      mask[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
  // ws · (1 − SDist): the left operand of Scorer::Score's sum.
  double* spatial = &spatial_[i * shapes_.size()];
  for (const Shape& shape : shapes_) {
    *spatial++ =
        shape.ws *
        (1.0 - NormalizedSpatialDistance(o.loc, shape.loc, shape.dist_norm));
  }
}

void OutrankKernel::DecodeLeaf(const KcRTree::Node& leaf) {
  Resize(leaf.entries.size());
  for (size_t i = 0; i < leaf.entries.size(); ++i) {
    Decode(i, leaf.entries[i].id);
  }
}

void OutrankKernel::DecodeRange(ObjectId first, ObjectId last) {
  Resize(last - first);
  for (ObjectId id = first; id < last; ++id) Decode(id - first, id);
}

double OutrankKernel::Score(size_t m, size_t i) const {
  const Member& member = members_[m];
  const uint64_t* object_mask = &masks_[i * words_];
  const uint64_t* member_mask = &member_masks_[m * words_];
  size_t inter = 0;
  for (size_t w = 0; w < words_; ++w) {
    inter += std::popcount(object_mask[w] & member_mask[w]);
  }
  return spatial_[i * shapes_.size() + member.shape] +
         member.wt * JaccardOf(inter, member.qlen, len_[i]);
}

size_t OutrankKernel::CountOutranking(size_t m, double target_score,
                                      ObjectId target, size_t* scored) const {
  size_t above = 0;
  size_t skipped = 0;
  for (size_t i = 0; i < gid_.size(); ++i) {
    if (gid_[i] == target) {
      ++skipped;
      continue;
    }
    if (OutranksTarget(Score(m, i), gid_[i], target_score, target)) ++above;
  }
  *scored += gid_.size() - skipped;
  return above;
}

std::vector<size_t> ShardScanOutscoring(
    const OracleShardView& view, double dist_norm,
    const std::vector<ScanTarget>& targets) {
  if (targets.empty()) return {};
  std::vector<Scorer> scorers;
  scorers.reserve(targets.size());
  std::vector<const Scorer*> members;
  members.reserve(targets.size());
  for (const ScanTarget& t : targets) {
    scorers.emplace_back(*view.store, *t.query, dist_norm);
    members.push_back(&scorers.back());
  }
  OutrankKernel kernel(view, members);
  std::vector<size_t> counts(targets.size(), 0);
  size_t scored = 0;  // Callers count a scan as the whole store per target.
  const ObjectId n = static_cast<ObjectId>(view.store->size());
  for (ObjectId first = 0; first < n; first += kScanBlock) {
    kernel.DecodeRange(first, std::min<ObjectId>(n, first + kScanBlock));
    for (size_t m = 0; m < targets.size(); ++m) {
      counts[m] += kernel.CountOutranking(m, targets[m].target_score,
                                          targets[m].target, &scored);
    }
  }
  return counts;
}

// --- ShardPlane --------------------------------------------------------------

ShardPlane::ShardPlane(const OracleShardView& view, const Query& query,
                       double dist_norm, bool optimized)
    : optimized_(optimized) {
  std::vector<PlanePoint> pts =
      BuildPlanePoints(*view.store, query, dist_norm, view.to_global);
  if (optimized_) {
    index_ = std::make_unique<ScorePlaneIndex>(std::move(pts));
  } else {
    pts_ = std::move(pts);
  }
}

size_t ShardPlane::CountAbove(double w, double threshold,
                              const PlanePoint& anchor,
                              size_t* nodes_visited) const {
  if (optimized_) {
    const size_t count = index_->CountAbove(w, threshold, anchor.id);
    *nodes_visited += index_->last_nodes_visited();
    return count;
  }
  size_t above = 0;
  for (const PlanePoint& p : pts_) {
    if (p.id == anchor.id) continue;
    if (OutranksTarget(p.ScoreAt(w), p.id, threshold, anchor.id)) ++above;
  }
  return above;
}

void ShardPlane::CountAboveBatch(const std::vector<double>& weights,
                                 const std::vector<PlanePoint>& anchors,
                                 std::vector<size_t>* counts,
                                 size_t* nodes_visited) const {
  const size_t na = anchors.size();
  for (size_t wi = 0; wi < weights.size(); ++wi) {
    for (size_t a = 0; a < na; ++a) {
      const double threshold = anchors[a].ScoreAt(weights[wi]);
      (*counts)[wi * na + a] =
          CountAbove(weights[wi], threshold, anchors[a], nodes_visited);
    }
  }
}

void ShardPlane::CollectCrossings(const PlanePoint& anchor, double wlo,
                                  double whi, std::vector<double>* events,
                                  size_t* nodes_visited) const {
  if (optimized_) {
    index_->ForEachCrossing(anchor, wlo, whi, [&](const PlanePoint& p) {
      AppendCrossingWeight(anchor, p, wlo, whi, events);
    });
    *nodes_visited += index_->last_nodes_visited();
    return;
  }
  for (const PlanePoint& p : pts_) {
    AppendCrossingWeight(anchor, p, wlo, whi, events);
  }
}

// --- ShardRankRefiner --------------------------------------------------------

ShardRankRefiner::ShardRankRefiner(const OracleShardView& view,
                                   const Scorer& scorer,
                                   ObjectId target_global, double target_score,
                                   KeywordAdaptStats* stats)
    : view_(&view),
      scorer_(&scorer),
      target_(target_global),
      target_score_(target_score),
      stats_(stats) {
  const KcRTree& tree = *view.kcr;
  PushNode(tree.root(), tree.node(tree.root()));
}

void ShardRankRefiner::ExpandInner() {
  const KcRTree& tree = *view_->kcr;
  std::vector<Frontier> previous;
  previous.swap(frontier_);
  leaves_.clear();
  sum_lower_ = 0;
  sum_upper_ = 0;
  for (const Frontier& f : previous) {
    const auto& node = tree.node(f.node);
    ++stats_->kcr_nodes_expanded;
    if (node.is_leaf) {
      leaves_.push_back(f.node);
      continue;
    }
    for (const auto& e : node.entries) PushNode(e.id, tree.node(e.id));
  }
  std::sort(leaves_.begin(), leaves_.end());
}

void ShardRankRefiner::RefineLevel(
    const std::vector<ShardRankRefiner*>& refiners) {
  // Phase 1: inner nodes, per refiner. A repeated refiner is expanded once:
  // a second ExpandInner would drop the leaves the first one opened.
  std::vector<ShardRankRefiner*> opened;
  for (ShardRankRefiner* r : refiners) {
    if (r->resolved() || r->in_level_) continue;
    r->in_level_ = true;
    r->ExpandInner();
    if (!r->leaves_.empty()) opened.push_back(r);
  }
  for (ShardRankRefiner* r : refiners) r->in_level_ = false;
  if (opened.empty()) return;

  // Phase 2: every opened leaf once, in node order (a k-way merge of the
  // refiners' sorted leaf lists), decoded once and counted for each refiner
  // that opened it. Kernel member i is opened[i].
  std::vector<const Scorer*> scorers;
  scorers.reserve(opened.size());
  for (const ShardRankRefiner* r : opened) scorers.push_back(r->scorer_);
  const OracleShardView& view = *opened.front()->view_;
  OutrankKernel kernel(view, scorers);

  using Cursor = std::pair<KcRTree::NodeId, size_t>;  // (leaf, member).
  std::vector<Cursor> heap;
  std::vector<size_t> next(opened.size(), 1);
  heap.reserve(opened.size());
  for (size_t i = 0; i < opened.size(); ++i) {
    assert(opened[i]->view_ == &view && "refiners must share one shard view");
    heap.emplace_back(opened[i]->leaves_.front(), i);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  KcRTree::NodeId decoded = KcRTree::kNoNode;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [leaf, i] = heap.back();
    heap.pop_back();
    if (leaf != decoded) {
      kernel.DecodeLeaf(view.kcr->node(leaf));
      decoded = leaf;
    }
    ShardRankRefiner& r = *opened[i];
    r.exact_ += kernel.CountOutranking(i, r.target_score_, r.target_,
                                       &r.stats_->objects_scored);
    if (next[i] < r.leaves_.size()) {
      heap.emplace_back(r.leaves_[next[i]++], i);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
}

void ShardRankRefiner::PushNode(KcRTree::NodeId id, const KcRTree::Node& node) {
  if (node.summary.cnt == 0) return;
  const CountBounds b =
      BoundOutscoringCount(*scorer_, node.rect, node.summary, target_score_);
  if (b.upper == 0) return;  // Nothing below can outrank: drop.
  if (b.lower == b.upper) {
    exact_ += b.lower;  // Pinned without descending.
    // Note: the target itself is never counted by the lower bound (its own
    // score cannot strictly exceed itself), so this is tie-safe.
    return;
  }
  frontier_.push_back(Frontier{id, b});
  sum_lower_ += b.lower;
  sum_upper_ += b.upper;
}

}  // namespace yask
