#include "src/whynot/shard_primitives.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ranges>
#include <unordered_map>

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

/// Objects decoded per block by ShardScanOutscoring, so a scan's scratch
/// stays a few KiB whatever the store size.
constexpr ObjectId kScanBlock = 64;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Jaccard from the set sizes, exactly as KeywordSet::Jaccard computes it.
double JaccardOf(size_t inter, size_t qlen, size_t len) {
  const size_t uni = qlen + len - inter;
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

std::optional<ObjectId> LocalOf(const OracleShardView& view, ObjectId global) {
  if (view.to_global == nullptr) {
    if (global >= view.store->size()) return std::nullopt;
    return global;
  }
  const std::vector<ObjectId>& ids = *view.to_global;
  const auto it = std::lower_bound(ids.begin(), ids.end(), global);
  if (it == ids.end() || *it != global) return std::nullopt;
  return static_cast<ObjectId>(it - ids.begin());
}

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

// --- Keyword-mask columns ----------------------------------------------------

std::vector<TermId> KeywordUniverse(const std::vector<ScanTarget>& targets) {
  std::vector<TermId> terms;
  for (const ScanTarget& t : targets) {
    terms.insert(terms.end(), t.query->doc.begin(), t.query->doc.end());
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

namespace {

/// The objects of one (keyword mask, |o.doc|) pair: [begin, end) of every
/// shape's columns.
struct MaskGroup {
  uint64_t mask = 0;
  uint32_t len = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

struct MaskGroupKey {
  uint64_t mask;
  uint32_t len;
  bool operator==(const MaskGroupKey&) const = default;
};

struct MaskGroupHash {
  size_t operator()(const MaskGroupKey& k) const {
    return std::hash<uint64_t>{}(k.mask * 0x9E3779B97F4A7C15ull ^ k.len);
  }
};

/// The (loc, ws) that a column set's x = ws·(1 − SDist) depends on (every
/// target of a batch shares dist_norm).
struct QueryShape {
  Point loc;
  double ws = 0.0;
};

/// The index of `q`'s shape in `shapes`, appended when new. Shapes are told
/// apart by their bits, as OutrankKernel keys them.
size_t ShapeOf(const Query& q, std::vector<QueryShape>* shapes) {
  size_t si = 0;
  while (si < shapes->size() &&
         !(Bits((*shapes)[si].loc.x) == Bits(q.loc.x) &&
           Bits((*shapes)[si].loc.y) == Bits(q.loc.y) &&
           Bits((*shapes)[si].ws) == Bits(q.w.ws))) {
    ++si;
  }
  if (si == shapes->size()) shapes->push_back(QueryShape{q.loc, q.w.ws});
  return si;
}

}  // namespace

size_t CountQueryShapes(const std::vector<ScanTarget>& targets) {
  std::vector<QueryShape> shapes;
  for (const ScanTarget& t : targets) {
    ShapeOf(*t.query, &shapes);
    if (shapes.size() > kMaxProbeShapes) break;
  }
  return shapes.size();
}

std::vector<size_t> ShardColumnOutscoring(
    const OracleShardView& view, double dist_norm,
    const std::vector<ScanTarget>& targets) {
  if (targets.empty()) return {};
  const std::vector<TermId> terms = KeywordUniverse(targets);
  assert(terms.size() <= kMaxKeywordUniverse);
  auto bit_of = [&](std::vector<TermId>::const_iterator t) {
    return uint64_t{1} << (t - terms.begin());
  };

  // Per target its query shape, mask, |q'| and wt.
  struct Member {
    size_t shape = 0;
    uint64_t mask = 0;
    size_t qlen = 0;
    double wt = 0.0;
  };
  std::vector<QueryShape> shapes;
  std::vector<Member> members;
  members.reserve(targets.size());
  for (const ScanTarget& t : targets) {
    const Query& q = *t.query;
    const size_t si = ShapeOf(q, &shapes);
    assert(shapes.size() <= kMaxProbeShapes);
    uint64_t mask = 0;
    for (TermId id : q.doc) {
      mask |= bit_of(std::lower_bound(terms.begin(), terms.end(), id));
    }
    members.push_back(Member{si, mask, q.doc.size(), q.w.wt});
  }

  // Pass 1: every object's group, in first-seen order, and the group sizes.
  uint64_t filter[4] = {};  // Bit t % 256 set for every t in terms.
  for (TermId t : terms) filter[(t >> 6) & 3] |= uint64_t{1} << (t & 63);
  const ObjectStore& store = *view.store;
  const ObjectId n = static_cast<ObjectId>(store.size());
  std::vector<uint32_t> group_of(n);
  std::vector<MaskGroup> groups;
  std::unordered_map<MaskGroupKey, uint32_t, MaskGroupHash> group_index;
  for (ObjectId local = 0; local < n; ++local) {
    const KeywordSet& doc = store.Get(local).doc;
    uint64_t mask = 0;
    auto t = terms.begin();
    for (TermId id : doc) {
      if ((filter[(id >> 6) & 3] >> (id & 63) & 1) == 0) continue;
      t = std::lower_bound(t, terms.end(), id);
      if (t == terms.end()) break;
      if (*t == id) mask |= bit_of(t);
    }
    const MaskGroupKey key{mask, static_cast<uint32_t>(doc.size())};
    const auto [it, fresh] = group_index.try_emplace(
        key, static_cast<uint32_t>(groups.size()));
    if (fresh) groups.push_back(MaskGroup{mask, key.len, 0, 0});
    ++groups[it->second].end;  // A size until the offsets below.
    group_of[local] = it->second;
  }
  uint32_t offset = 0;
  uint32_t widest = 0;
  for (MaskGroup& g : groups) {
    const uint32_t size = g.end;
    widest = std::max(widest, size);
    g.begin = offset;
    g.end = offset += size;
  }

  // Pass 2, per shape: x = ws·(1 − SDist), the left operand of
  // Scorer::Score's sum, scattered into its group's slice with the global
  // id; then each slice sorted by x. Every array is allocated once at its
  // final size.
  auto x_of = [&](const QueryShape& shape, ObjectId local) {
    return shape.ws * (1.0 - NormalizedSpatialDistance(store.Get(local).loc,
                                                       shape.loc, dist_norm));
  };
  auto global_of = [&](ObjectId local) {
    return view.to_global != nullptr ? (*view.to_global)[local] : local;
  };
  std::vector<double> xs(size_t{n} * shapes.size());
  std::vector<ObjectId> ids(size_t{n} * shapes.size());
  std::vector<double> xs_tmp(widest);
  std::vector<ObjectId> ids_tmp(widest);
  std::vector<uint32_t> cursor(groups.size());
  for (size_t si = 0; si < shapes.size(); ++si) {
    double* sx = xs.data() + si * n;
    ObjectId* sid = ids.data() + si * n;
    for (size_t g = 0; g < groups.size(); ++g) cursor[g] = groups[g].begin;
    for (ObjectId local = 0; local < n; ++local) {
      const uint32_t at = cursor[group_of[local]]++;
      sx[at] = x_of(shapes[si], local);
      sid[at] = global_of(local);
    }
    for (const MaskGroup& g : groups) {
      SortByX(sx + g.begin, sid + g.begin, xs_tmp.data(), ids_tmp.data(),
              g.end - g.begin);
    }
  }

  // Counts: per target and group, the text term is one constant, so the
  // scores x + text never decrease along the group (rounding is monotone):
  // one binary search, then the equal-score run in D6 order.
  std::vector<size_t> counts(targets.size(), 0);
  for (size_t m = 0; m < targets.size(); ++m) {
    const Member& member = members[m];
    const double* sx = xs.data() + member.shape * n;
    const ObjectId* sid = ids.data() + member.shape * n;
    const double threshold = targets[m].target_score;
    const ObjectId target = targets[m].target;
    auto text_of = [&](const MaskGroup& g) {
      return member.wt * JaccardOf(std::popcount(g.mask & member.mask),
                                   member.qlen, g.len);
    };
    size_t count = 0;
    for (const MaskGroup& g : groups) {
      const double text = text_of(g);
      auto score = [&](uint32_t i) { return sx[i] + text; };
      if (score(g.end - 1) < threshold) continue;
      if (score(g.begin) > threshold) {
        count += g.end - g.begin;
        continue;
      }
      uint32_t i = *std::ranges::partition_point(
          std::views::iota(g.begin, g.end),
          [&](uint32_t j) { return score(j) < threshold; });
      for (; i < g.end && score(i) == threshold; ++i) {
        if (sid[i] < target) ++count;
      }
      count += g.end - i;
    }
    // The target never outranks itself; the walk above counted it only if
    // its own score exceeds the threshold it was given.
    if (const std::optional<ObjectId> local = LocalOf(view, target);
        local.has_value() &&
        x_of(shapes[member.shape], *local) + text_of(groups[group_of[*local]]) >
            threshold) {
      --count;
    }
    counts[m] = count;
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

Status ShardPlane::CountAboveBatch(const std::vector<double>& weights,
                                   const std::vector<PlanePoint>& anchors,
                                   std::vector<size_t>* counts,
                                   size_t* nodes_visited) {
  // Allocation-free: this is the weight sweep's innermost loop.
  const size_t na = anchors.size();
  for (size_t wi = 0; wi < weights.size(); ++wi) {
    const double w = weights[wi];
    for (size_t a = 0; a < na; ++a) {
      const PlanePoint& anchor = anchors[a];
      const double threshold = anchor.ScoreAt(w);
      size_t& count = (*counts)[wi * na + a];
      if (optimized_) {
        count = index_->CountAbove(w, threshold, anchor.id);
        *nodes_visited += index_->last_nodes_visited();
        continue;
      }
      count = 0;
      for (const PlanePoint& p : pts_) {
        if (p.id == anchor.id) continue;
        if (OutranksTarget(p.ScoreAt(w), p.id, threshold, anchor.id)) ++count;
      }
    }
  }
  return Status::OK();
}

Status ShardPlane::CollectCrossings(const PlanePoint& anchor, double wlo,
                                    double whi, std::vector<double>* events,
                                    size_t* nodes_visited) {
  if (optimized_) {
    index_->ForEachCrossing(anchor, wlo, whi, [&](const PlanePoint& p) {
      AppendCrossingWeight(anchor, p, wlo, whi, events);
    });
    *nodes_visited += index_->last_nodes_visited();
    return Status::OK();
  }
  for (const PlanePoint& p : pts_) {
    AppendCrossingWeight(anchor, p, wlo, whi, events);
  }
  return Status::OK();
}

// --- LocalOracleShard --------------------------------------------------------

Result<std::vector<size_t>> LocalOracleShard::CountOutscoring(
    const std::vector<ScanTarget>& targets, OutscoringKernel kernel) const {
  if (kernel == OutscoringKernel::kScan) {
    return ShardScanOutscoring(view_, dist_norm_, targets);
  }
  if (kernel == OutscoringKernel::kColumns) {
    return ShardColumnOutscoring(view_, dist_norm_, targets);
  }
  assert(view_.setr != nullptr && "Rank requires the SetR-tree");
  std::vector<size_t> counts;
  counts.reserve(targets.size());
  for (const ScanTarget& t : targets) {
    const Scorer scorer(*view_.store, *t.query, dist_norm_);
    counts.push_back(yask::CountOutscoring(*view_.store, *view_.setr,
                                           scorer, t.target_score, t.target,
                                           view_.to_global));
  }
  return counts;
}

}  // namespace yask
