#include "src/whynot/shard_primitives.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <queue>
#include <ranges>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/trace.h"
#include "src/query/scoring.h"

namespace yask {

void AppendCrossingWeight(const PlanePoint& m, const PlanePoint& p, double wlo,
                          double whi, std::vector<double>* events) {
  if (p.id == m.id) return;
  const double slope = (p.x - m.x) - (p.y - m.y);
  if (slope == 0.0) return;  // Parallel (or identical) lines: no crossing.
  const double wx = (m.y - p.y) / slope;
  if (!(wx >= wlo && wx <= whi)) return;
  events->push_back(wx);
}

namespace {

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

// --- Question columns ---------------------------------------------------------

namespace {

bool SameBits(const Point& a, const Point& b) {
  return Bits(a.x) == Bits(b.x) && Bits(a.y) == Bits(b.y);
}

/// An order-preserving key of x: keys compare as the doubles do.
uint64_t SortKey(double x) {
  const uint64_t bits = Bits(x);
  return bits >> 63 ? ~bits : bits | (uint64_t{1} << 63);
}

/// Runs at most this long are sorted by insertion: eight 256-bucket
/// histograms would dwarf them, and insertion stays linear per entry.
constexpr size_t kShortRun = 32;

/// Stable insertion sort of xs[0, n) by key, permuting ids alike.
void InsertionSortByX(double* xs, ObjectId* ids, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    const double x = xs[i];
    const uint64_t key = SortKey(x);
    const ObjectId id = ids[i];
    size_t j = i;
    for (; j > 0 && SortKey(xs[j - 1]) > key; --j) {
      xs[j] = xs[j - 1];
      ids[j] = ids[j - 1];
    }
    xs[j] = x;
    ids[j] = id;
  }
}

/// Stable LSD radix sort of xs[0, n) on the key's bytes from `first_byte`
/// up, permuting ids alike: every byte's histogram is counted in one pass,
/// the bytes every entry shares are skipped, and the scatters alternate
/// between the two buffers. `xs_tmp` and `ids_tmp` are scratch for n
/// entries.
void RadixSortByX(double* xs, ObjectId* ids, double* xs_tmp, ObjectId* ids_tmp,
                  size_t n, int first_byte) {
  std::array<std::array<size_t, 256>, 8> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = SortKey(xs[i]);
    for (int d = first_byte; d < 8; ++d) ++counts[d][(k >> (8 * d)) & 255];
  }
  double* from_x = xs;
  ObjectId* from_id = ids;
  double* to_x = xs_tmp;
  ObjectId* to_id = ids_tmp;
  for (int d = first_byte; d < 8; ++d) {
    const int shift = 8 * d;
    auto digit = [&](double x) { return (SortKey(x) >> shift) & 255; };
    std::array<size_t, 256>& offsets = counts[d];
    if (offsets[digit(from_x[0])] == n) continue;  // A shared byte.
    size_t sum = 0;
    for (size_t& offset : offsets) sum += std::exchange(offset, sum);
    for (size_t i = 0; i < n; ++i) {
      const size_t to = offsets[digit(from_x[i])]++;
      to_x[to] = from_x[i];
      to_id[to] = from_id[i];
    }
    std::swap(from_x, to_x);
    std::swap(from_id, to_id);
  }
  if (from_x != xs) {
    std::copy_n(from_x, n, xs);
    std::copy_n(from_id, n, ids);
  }
}

/// Sorts xs[0, n) ascending and permutes ids[0, n) alike, keeping input
/// order among equal x. A radix sort on the key's top 32 bits leaves each
/// run of equal high bits in input order; a short run is then finished by
/// insertion, a longer one by a radix sort on all its bytes, so no input
/// makes the sort quadratic. `xs_tmp` and `ids_tmp` are scratch for n
/// entries.
void SortByX(double* xs, ObjectId* ids, double* xs_tmp, ObjectId* ids_tmp,
             size_t n) {
  if (n <= kShortRun) {
    InsertionSortByX(xs, ids, n);
    return;
  }
  RadixSortByX(xs, ids, xs_tmp, ids_tmp, n, /*first_byte=*/4);
  for (size_t begin = 0; begin < n;) {
    const uint64_t high = SortKey(xs[begin]) >> 32;
    size_t end = begin + 1;
    while (end < n && SortKey(xs[end]) >> 32 == high) ++end;
    if (end - begin > kShortRun) {
      RadixSortByX(xs + begin, ids + begin, xs_tmp, ids_tmp, end - begin,
                   /*first_byte=*/0);
    } else {
      InsertionSortByX(xs + begin, ids + begin, end - begin);
    }
    begin = end;
  }
}

/// First index i in [begin, end) where the prefix-closed `below(i)` is false.
template <typename Below>
uint32_t PartitionPoint(uint32_t begin, uint32_t end, Below below) {
  return *std::ranges::partition_point(std::views::iota(begin, end), below);
}

/// Tie-aware count of the entries of a slice outranking `threshold` /
/// `tie_id` (D6), where score(i) never decreases along [begin, end): a
/// slice wholly below the threshold is skipped, one wholly above it taken
/// whole, otherwise one binary search and the equal-score run.
template <typename ScoreFn>
size_t CountSlice(uint32_t begin, uint32_t end, const ObjectId* ids,
                  double threshold, ObjectId tie_id, ScoreFn score) {
  if (score(end - 1) < threshold) return 0;
  if (score(begin) > threshold) return end - begin;
  uint32_t i = PartitionPoint(
      begin, end, [&](uint32_t j) { return score(j) < threshold; });
  size_t count = 0;
  for (; i < end && score(i) == threshold; ++i) {
    if (ids[i] < tie_id) ++count;
  }
  return count + (end - i);
}

/// Keeps `best` the first k rows offered, as a heap whose front is the last
/// of them in ScoredObject order.
void KeepBest(const ScoredObject& row, size_t k, TopKResult* best) {
  if (best->size() < k) {
    best->push_back(row);
    std::push_heap(best->begin(), best->end());
  } else if (row < best->front()) {
    std::pop_heap(best->begin(), best->end());
    best->back() = row;
    std::push_heap(best->begin(), best->end());
  }
}

}  // namespace

bool QuestionCovers(const Query& question, const KeywordSet& universe,
                    const Query& target) {
  return SameBits(question.loc, target.loc) &&
         std::includes(universe.begin(), universe.end(), target.doc.begin(),
                       target.doc.end());
}

bool QuestionCoversTopK(const Query& question, const KeywordSet& universe,
                        const Query& target) {
  return std::isfinite(target.w.ws) && std::isfinite(target.w.wt) &&
         target.w.ws >= 0.0 && target.w.wt >= 0.0 &&
         QuestionCovers(question, universe, target);
}

std::string DescribeQuestion(const QuestionShape& shape) {
  return "objects=" + std::to_string(shape.objects) +
         " groups=" + std::to_string(shape.groups) +
         " columns=" + std::to_string(shape.columns) +
         " universe=" + std::to_string(shape.universe);
}

KeywordPostings::KeywordPostings(const ObjectStore& store) {
  // Counts land one slot ahead, so the prefix sum leaves each term's
  // begin in its own slot; the fill then advances it to the next's.
  for (const SpatialObject& o : store.objects()) {
    if (!o.doc.empty() && o.doc.ids().back() + size_t{2} > offsets_.size()) {
      offsets_.resize(o.doc.ids().back() + size_t{2}, 0);
    }
    for (TermId t : o.doc) ++offsets_[t + 1];
  }
  for (size_t t = 1; t < offsets_.size(); ++t) offsets_[t] += offsets_[t - 1];
  if (offsets_.empty()) return;
  ids_.resize(offsets_.back());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const SpatialObject& o : store.objects()) {
    for (TermId t : o.doc) ids_[cursor[t]++] = o.id;
  }
}

std::span<const ObjectId> KeywordPostings::Of(TermId term) const {
  if (size_t{term} + 1 >= offsets_.size()) return {};
  return std::span<const ObjectId>(ids_.data() + offsets_[term],
                                   offsets_[term + 1] - offsets_[term]);
}

size_t KeywordPostings::bytes() const {
  return offsets_.size() * sizeof(size_t) + ids_.size() * sizeof(ObjectId);
}

QuestionColumns::QuestionColumns(const OracleShardView& view,
                                 const KeywordPostings& postings,
                                 double dist_norm, const Query& query,
                                 const KeywordSet& universe)
    : view_(view), dist_norm_(dist_norm), loc_(query.loc) {
  terms_ = KeywordSet::Union(query.doc, universe).ids();
  words_ = std::max<size_t>(1, (terms_.size() + 63) / 64);

  // Every object's mask over the universe: bit b of its words for each
  // terms_[b] it holds, ORed from that term's postings.
  const ObjectStore& store = *view_.store;
  const ObjectId n = static_cast<ObjectId>(store.size());
  std::vector<uint64_t> masks(size_t{n} * words_, 0);
  for (size_t b = 0; b < terms_.size(); ++b) {
    const uint64_t bit = uint64_t{1} << (b % 64);
    uint64_t* word = masks.data() + b / 64;
    for (ObjectId local : postings.Of(terms_[b])) word[local * words_] |= bit;
  }

  // One pass: every object's x and its group, in first-seen order. An
  // object holding no keyword of the universe (on servebench's catalogue
  // 43% of them) finds its group by |o.doc| in `unmatched`; any other finds
  // its (mask, |o.doc|) in `table`, an open-addressing table of group ids
  // (linear probing, grown at half load).
  constexpr uint32_t kNoGroup = ~uint32_t{0};
  std::vector<uint32_t> table(64, kNoGroup);
  int table_shift = 64 - 6;  // The hash's top log2(table.size()) bits.
  size_t table_used = 0;
  // The slot holding the group of (mask, len), else the free slot it takes.
  auto slot_of = [&](const uint64_t* mask, uint32_t len) {
    uint64_t h = len;
    for (size_t w = 0; w < words_; ++w) {
      h = (h ^ mask[w]) * 0x9E3779B97F4A7C15ull;
    }
    size_t slot = h >> table_shift;
    for (;; slot = (slot + 1) & (table.size() - 1)) {
      const uint32_t g = table[slot];
      if (g == kNoGroup ||
          (groups_[g].len == len &&
           std::equal(mask, mask + words_, &group_masks_[g * words_]))) {
        return slot;
      }
    }
  };
  // x lands in gx_ by local id, the sort's input; cx_ and cid_ are its
  // scratch.
  gx_.resize(n);
  std::vector<uint32_t> unmatched;  // By |o.doc|: the group of mask 0.
  std::vector<uint32_t> group_of(n);
  for (ObjectId local = 0; local < n; ++local) {
    const SpatialObject& o = store.Get(local);
    gx_[local] = 1.0 - NormalizedSpatialDistance(o.loc, loc_, dist_norm_);
    const uint32_t len = static_cast<uint32_t>(o.doc.size());
    const uint64_t* mask = masks.data() + size_t{local} * words_;
    const uint32_t fresh = static_cast<uint32_t>(groups_.size());
    uint32_t g;
    if (std::all_of(mask, mask + words_, [](uint64_t w) { return w == 0; })) {
      if (len >= unmatched.size()) unmatched.resize(len + 1, kNoGroup);
      if (unmatched[len] == kNoGroup) {
        unmatched[len] = fresh;
        groups_.push_back(Group{len, 0, 0});
        group_masks_.resize(group_masks_.size() + words_, 0);
      }
      g = unmatched[len];
    } else {
      const size_t slot = slot_of(mask, len);
      g = table[slot];
      if (g == kNoGroup) {
        g = table[slot] = fresh;
        groups_.push_back(Group{len, 0, 0});
        group_masks_.insert(group_masks_.end(), mask, mask + words_);
        if (2 * ++table_used > table.size()) {  // Grow at half load.
          const std::vector<uint32_t> old = std::exchange(
              table, std::vector<uint32_t>(2 * table.size(), kNoGroup));
          --table_shift;
          for (const uint32_t group : old) {
            if (group == kNoGroup) continue;
            table[slot_of(&group_masks_[group * words_], groups_[group].len)] =
                group;
          }
        }
      }
    }
    ++groups_[g].end;  // A size until the offsets below.
    group_of[local] = g;
  }
  uint32_t offset = 0;
  for (Group& g : groups_) {
    const uint32_t size = g.end;
    g.begin = offset;
    g.end = offset += size;
  }

  // One stable sort by x, with gid_ as the local ids it permutes; ties keep
  // ascending local (= global) id order.
  gid_.resize(n);
  for (ObjectId local = 0; local < n; ++local) gid_[local] = local;
  cx_.resize(n);
  cid_.resize(n);
  SortByX(gx_.data(), gid_.data(), cx_.data(), cid_.data(), n);

  // Scatter 1: the TSim columns, in sorted order so each is sorted by x. A
  // group's y is query.doc's Jaccard with its mask — KeywordSet::Jaccard's
  // operands, so the same double; columns are keyed by the bits of y, in
  // first-seen group order.
  std::vector<uint64_t> qmask(words_, 0);
  MaskOf(query.doc, qmask.data());
  std::vector<uint32_t> column_of_group(groups_.size(), 0);
  std::unordered_map<uint64_t, uint32_t> column_index;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const double y = TextOf(&group_masks_[g * words_], groups_[g].len,
                            qmask.data(), query.doc.size(), 1.0);
    const auto [it, fresh] = column_index.try_emplace(
        Bits(y), static_cast<uint32_t>(columns_.size()));
    if (fresh) columns_.push_back(Column{y, 0, 0});
    columns_[it->second].end += groups_[g].end - groups_[g].begin;
    column_of_group[g] = it->second;
  }
  offset = 0;
  for (Column& c : columns_) {
    const uint32_t size = c.end;
    c.begin = c.end = offset;
    offset += size;
  }
  for (ObjectId i = 0; i < n; ++i) {
    const uint32_t at = columns_[column_of_group[group_of[gid_[i]]]].end++;
    cx_[at] = gx_[i];
    cid_[at] = gid_[i];  // A local id until the groups are filled.
  }

  // Scatter 2: the mask groups, column by column; a group lies in one
  // column, so each stays sorted by x.
  auto global_of = [&](ObjectId local) {
    return view_.to_global != nullptr ? (*view_.to_global)[local] : local;
  };
  std::vector<uint32_t> cursor(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) cursor[g] = groups_[g].begin;
  for (ObjectId i = 0; i < n; ++i) {
    const uint32_t at = cursor[group_of[cid_[i]]]++;
    gx_[at] = cx_[i];
    gid_[at] = cid_[i] = global_of(cid_[i]);
  }
}

void QuestionColumns::MaskOf(const KeywordSet& doc, uint64_t* mask) const {
  auto t = terms_.begin();
  for (TermId id : doc) {
    t = std::lower_bound(t, terms_.end(), id);
    if (t == terms_.end()) break;
    if (*t == id) {
      const size_t bit = t - terms_.begin();
      mask[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
}

double QuestionColumns::TextOf(const uint64_t* mask, size_t len,
                               const uint64_t* qmask, size_t qlen,
                               double wt) const {
  size_t inter = 0;
  for (size_t w = 0; w < words_; ++w) inter += std::popcount(mask[w] & qmask[w]);
  return wt * JaccardOf(inter, qlen, len);
}

QuestionShape QuestionColumns::shape() const {
  return QuestionShape{gx_.size(), groups_.size(), columns_.size(),
                       terms_.size()};
}

size_t QuestionColumns::CountOutscoring(const ScanTarget& target) const {
  const Query& q = *target.query;
  assert(SameBits(q.loc, loc_));
  std::vector<uint64_t> qmask(words_, 0);
  MaskOf(q.doc, qmask.data());
  assert(std::includes(terms_.begin(), terms_.end(), q.doc.begin(),
                       q.doc.end()));
  // Per group the text term is one constant, so ws·x + text never
  // decreases along the group (rounding is monotone).
  const double ws = q.w.ws;
  const double wt = q.w.wt;
  size_t count = 0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const double text = TextOf(&group_masks_[g * words_], groups_[g].len,
                               qmask.data(), q.doc.size(), wt);
    count += CountSlice(groups_[g].begin, groups_[g].end, gid_.data(),
                        target.target_score, target.target,
                        [&](uint32_t i) { return ws * gx_[i] + text; });
  }
  // The target never outranks itself; the search above counted it only if
  // its own score exceeds the threshold it was given.
  if (const std::optional<ObjectId> local = LocalOf(view_, target.target)) {
    const SpatialObject& o = view_.store->Get(*local);
    std::vector<uint64_t> mask(words_, 0);
    MaskOf(o.doc, mask.data());
    const double x = 1.0 - NormalizedSpatialDistance(o.loc, loc_, dist_norm_);
    if (ws * x + TextOf(mask.data(), o.doc.size(), qmask.data(),
                        q.doc.size(), wt) >
        target.target_score) {
      --count;
    }
  }
  return count;
}

Result<TopKResult> QuestionColumns::TopK(const Query& query,
                                         TopKStats* stats) {
  assert(SameBits(query.loc, loc_));
  assert(query.w.ws >= 0.0);
  const size_t k = std::min<size_t>(query.k, gx_.size());
  if (k == 0) return TopKResult();
  std::vector<uint64_t> qmask(words_, 0);
  MaskOf(query.doc, qmask.data());
  const double ws = query.w.ws;
  // Per group the text term is one constant and ws·x + text never
  // decreases along the group, so its tail is its best row. Groups are
  // walked best tail first.
  struct Tail {
    double best;
    double text;
    uint32_t group;
  };
  std::vector<Tail> tails;
  tails.reserve(groups_.size());
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    const double text = TextOf(&group_masks_[g * words_], groups_[g].len,
                               qmask.data(), query.doc.size(), query.w.wt);
    tails.push_back(Tail{ws * gx_[groups_[g].end - 1] + text, text, g});
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.best > b.best; });
  // The best k rows so far (KeepBest's heap). A row scoring below its
  // front cannot enter; one tying it may, by a lower id (D6), so
  // equal-score runs are walked through.
  TopKResult best;
  best.reserve(k);
  size_t opened = 0;
  size_t scored = 0;
  for (const Tail& tail : tails) {
    if (best.size() == k && tail.best < best.front().score) break;
    ++opened;
    const Group& g = groups_[tail.group];
    for (uint32_t i = g.end; i-- > g.begin;) {
      const ScoredObject row{gid_[i], ws * gx_[i] + tail.text};
      ++scored;
      if (best.size() == k && row.score < best.front().score) break;
      KeepBest(row, k, &best);
    }
  }
  std::sort_heap(best.begin(), best.end());
  if (stats != nullptr) {
    stats->nodes_popped += opened;
    stats->objects_scored += scored;
  }
  return best;
}

Result<std::vector<size_t>> QuestionColumns::CountOutscoring(
    const std::vector<ScanTarget>& targets) {
  std::vector<size_t> counts;
  counts.reserve(targets.size());
  for (const ScanTarget& t : targets) counts.push_back(CountOutscoring(t));
  return counts;
}

size_t QuestionColumns::CountAbove(double w, double threshold, ObjectId tie_id,
                                   size_t* evals) const {
  assert(w >= 0.0);
  size_t count = 0;
  for (const Column& c : columns_) {
    count += CountSlice(c.begin, c.end, cid_.data(), threshold, tie_id,
                        [&](uint32_t i) {
                          ++*evals;
                          return PlanePoint{cx_[i], c.y}.ScoreAt(w);
                        });
  }
  return count;
}

Status QuestionColumns::CountAboveBatch(const std::vector<double>& weights,
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
      (*counts)[wi * na + a] =
          CountAbove(w, threshold, anchor.id, nodes_visited);
    }
  }
  return Status::OK();
}

Status QuestionColumns::CollectCrossings(const PlanePoint& anchor, double wlo,
                                         double whi,
                                         std::vector<double>* events,
                                         size_t* nodes_visited) {
  assert(0.0 <= wlo && wlo <= whi);
  const double a_lo = anchor.ScoreAt(wlo);
  const double a_hi = anchor.ScoreAt(whi);
  // Slack absorbs floating-point disagreement between the endpoint sign test
  // and the crossing weight computed from the line coefficients, so no
  // borderline crossing is lost (AppendCrossingWeight re-filters by the
  // computed weight).
  constexpr double kEps = 1e-9;
  for (const Column& c : columns_) {
    auto d_lo = [&](uint32_t i) {
      ++*nodes_visited;
      return PlanePoint{cx_[i], c.y}.ScoreAt(wlo) - a_lo;
    };
    auto d_hi = [&](uint32_t i) {
      ++*nodes_visited;
      return PlanePoint{cx_[i], c.y}.ScoreAt(whi) - a_hi;
    };
    // Both differences are non-decreasing along the column, so each half of
    // the per-point test (d_lo ≤ ε ∧ d_hi ≥ −ε) ∨ (d_lo ≥ −ε ∧ d_hi ≤ ε)
    // holds on one index range: [down_begin, down_end) ∪ [up_begin, up_end).
    // Two non-empty ranges overlap or touch (a point between them would
    // have d_lo, or d_hi, both above ε and below −ε), so their union is one
    // range and each point is emitted once.
    const uint32_t down_begin = PartitionPoint(
        c.begin, c.end, [&](uint32_t i) { return d_hi(i) < -kEps; });
    const uint32_t down_end = PartitionPoint(
        c.begin, c.end, [&](uint32_t i) { return d_lo(i) <= kEps; });
    const uint32_t up_begin = PartitionPoint(
        c.begin, c.end, [&](uint32_t i) { return d_lo(i) < -kEps; });
    const uint32_t up_end = PartitionPoint(
        c.begin, c.end, [&](uint32_t i) { return d_hi(i) <= kEps; });

    uint32_t from = down_begin < down_end ? down_begin : c.end;
    uint32_t to = down_begin < down_end ? down_end : c.begin;
    if (up_begin < up_end) {
      from = std::min(from, up_begin);
      to = std::max(to, up_end);
    }
    for (uint32_t i = from; i < to; ++i) {
      AppendCrossingWeight(anchor, PlanePoint{cx_[i], c.y, cid_[i]}, wlo, whi,
                           events);
    }
  }
  return Status::OK();
}

// --- LocalOracleShard --------------------------------------------------------

double LocalOracleShard::RootDistance(const Point& loc) const {
  assert(view_.rtree != nullptr && "top-k requires the R-tree");
  const RTree& tree = *view_.rtree;
  return tree.empty() ? std::numeric_limits<double>::infinity()
                      : tree.node(tree.root()).rect.MinDistance(loc);
}

Result<TopKResult> LocalOracleShard::TopK(const Query& query,
                                          double prune_below,
                                          TopKStats* stats) const {
  assert(view_.rtree != nullptr && "top-k requires the R-tree");
  assert(query.w.ws >= 0.0);
  const ObjectStore& store = *view_.store;
  const size_t k = std::min<size_t>(query.k, store.size());
  if (k == 0) return TopKResult();
  const double ws = query.w.ws;
  const double wt = query.w.wt;
  const size_t qlen = query.doc.size();
  // Scorer::Score's expression on the same operands (NormalizedSpatialDistance
  // and KeywordSet::Jaccard inlined), with |o.doc ∩ q.doc| given.
  auto score = [&](const SpatialObject& o, size_t inter) {
    const double dx = o.loc.x - query.loc.x;
    const double dy = o.loc.y - query.loc.y;
    const double sdist =
        dist_norm_ <= 0.0
            ? 0.0
            : std::min(1.0, std::sqrt(dx * dx + dy * dy) / dist_norm_);
    return ws * (1.0 - sdist) + wt * JaccardOf(inter, qlen, o.doc.size());
  };

  // Holders: every object holding a query term, with its count of them. A
  // count is at most |o.doc|, so 32 bits never wrap. The counters live for
  // one call: kept per thread, they would hold 4 bytes per object for every
  // thread that ever served a top-k.
  std::vector<uint32_t> matches(store.size(), 0);
  std::vector<ObjectId> holders;
  for (const TermId t : query.doc) {
    for (const ObjectId local : postings_.Of(t)) {
      if (matches[local]++ == 0) holders.push_back(local);
    }
  }
  TopKResult held;
  held.reserve(std::min(k, holders.size()));
  for (const ObjectId local : holders) {
    const ScoredObject row{local, score(store.Get(local), matches[local])};
    if (row.score >= prune_below) KeepBest(row, k, &held);
  }
  std::sort_heap(held.begin(), held.end());
  size_t scored = holders.size();

  // Non-holders score ws·(1 − SDist) exactly: a best-first k-NN over the
  // R-tree's MBRs finds them, stopping strictly below the k-th holder
  // (or `prune_below`, if higher). Node keys bound every object beneath
  // them, ties pop nodes first and then objects by ascending id.
  const double floor = held.size() == k
                           ? std::max(prune_below, held.back().score)
                           : prune_below;
  const RTree& tree = *view_.rtree;
  const Scorer scorer(store, query, dist_norm_);
  auto node_key = [&](const Rect& rect) {
    return ws * scorer.MaxSpatialComponent(rect);
  };
  TopKResult near;
  std::priority_queue<BestFirstEntry> frontier;
  size_t popped = 0;
  if (!tree.empty()) {
    const double key = node_key(tree.node(tree.root()).rect);
    if (key >= floor) frontier.push(BestFirstEntry{key, false, tree.root()});
  }
  while (!frontier.empty() && near.size() < k) {
    const BestFirstEntry top = frontier.top();
    frontier.pop();
    if (top.is_object) {
      near.push_back(ScoredObject{top.id, top.key});
      continue;
    }
    ++popped;
    const RTree::Node& node = tree.node(top.id);
    for (const auto& e : node.entries) {
      if (node.is_leaf) {
        if (matches[e.id] != 0) continue;
        ++scored;
        const double s = score(store.Get(e.id), 0);
        if (s >= floor) frontier.push(BestFirstEntry{s, true, e.id});
      } else {
        const double key = node_key(e.rect);
        if (key >= floor) frontier.push(BestFirstEntry{key, false, e.id});
      }
    }
  }

  TopKResult rows;
  rows.reserve(std::min(k, held.size() + near.size()));
  std::merge(held.begin(), held.end(), near.begin(), near.end(),
             std::back_inserter(rows));
  if (rows.size() > k) rows.resize(k);
  if (view_.to_global != nullptr) {
    for (ScoredObject& row : rows) row.id = (*view_.to_global)[row.id];
  }
  if (stats != nullptr) {
    stats->nodes_popped += popped;
    stats->objects_scored += scored;
  }
  return rows;
}

Result<std::unique_ptr<OracleShardQuestion>> LocalOracleShard::OpenQuestion(
    const Query& query, const KeywordSet& universe) const {
  ScopedSpan span("shard/question");
  auto question = std::make_unique<QuestionColumns>(view_, postings_,
                                                    dist_norm_, query, universe);
  if (span.active()) span.set_detail(DescribeQuestion(question->shape()));
  return std::unique_ptr<OracleShardQuestion>(std::move(question));
}

}  // namespace yask
