#include "src/index/score_plane_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ranges>
#include <unordered_map>

namespace yask {
namespace {

/// First index i in [begin, end) where the prefix-closed `below(i)` is false.
template <typename Below>
uint32_t PartitionPoint(uint32_t begin, uint32_t end, Below below) {
  return *std::ranges::partition_point(std::views::iota(begin, end), below);
}

}  // namespace

void SortByX(double* xs, ObjectId* ids, double* xs_tmp, ObjectId* ids_tmp,
             size_t n) {
  if (n < 32) {
    // Eight 256-bucket histogram passes would dwarf a short run's sort.
    for (size_t i = 1; i < n; ++i) {
      const double x = xs[i];
      const ObjectId id = ids[i];
      size_t j = i;
      for (; j > 0 && xs[j - 1] > x; --j) {
        xs[j] = xs[j - 1];
        ids[j] = ids[j - 1];
      }
      xs[j] = x;
      ids[j] = id;
    }
    return;
  }
  auto key = [](double x) {
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    return bits >> 63 ? ~bits : bits | (uint64_t{1} << 63);
  };
  for (int shift = 0; shift < 64; shift += 8) {
    auto digit = [&](double x) { return (key(x) >> shift) & 255; };
    size_t offsets[257] = {};
    for (size_t i = 0; i < n; ++i) ++offsets[digit(xs[i]) + 1];
    if (std::count(offsets, offsets + 257, n) == 1) continue;
    for (int d = 0; d < 256; ++d) offsets[d + 1] += offsets[d];
    for (size_t i = 0; i < n; ++i) {
      const size_t to = offsets[digit(xs[i])]++;
      xs_tmp[to] = xs[i];
      ids_tmp[to] = ids[i];
    }
    std::copy_n(xs_tmp, n, xs);
    std::copy_n(ids_tmp, n, ids);
  }
}

ScorePlaneIndex::ScorePlaneIndex(const std::vector<PlanePoint>& points) {
  // Columns by the bits of y (so +0 and -0 part ways), in first-seen order:
  // their sizes, then their points, then each column sorted by x. Every
  // array is allocated once at its final size.
  std::unordered_map<uint64_t, uint32_t> column_of;
  for (const PlanePoint& p : points) {
    const auto [it, fresh] = column_of.try_emplace(
        std::bit_cast<uint64_t>(p.y), static_cast<uint32_t>(columns_.size()));
    if (fresh) columns_.push_back(Column{p.y, 0, 0});
    ++columns_[it->second].end;  // A size until the offsets below.
  }
  uint32_t offset = 0;
  uint32_t widest = 0;
  for (Column& c : columns_) {
    const uint32_t size = c.end;
    widest = std::max(widest, size);
    c.begin = c.end = offset;
    offset += size;
  }
  xs_.resize(points.size());
  ids_.resize(points.size());
  for (const PlanePoint& p : points) {
    const uint32_t i = columns_[column_of[std::bit_cast<uint64_t>(p.y)]].end++;
    xs_[i] = p.x;
    ids_[i] = p.id;
  }
  std::vector<double> xs_tmp(widest);
  std::vector<ObjectId> ids_tmp(widest);
  for (const Column& c : columns_) {
    SortByX(&xs_[c.begin], &ids_[c.begin], xs_tmp.data(), ids_tmp.data(),
            c.end - c.begin);
  }
}

void ScorePlaneIndex::ForEachCrossing(
    const PlanePoint& anchor, double wlo, double whi,
    const std::function<void(const PlanePoint&)>& fn) const {
  assert(0.0 <= wlo && wlo <= whi);
  const double a_lo = anchor.ScoreAt(wlo);
  const double a_hi = anchor.ScoreAt(whi);
  // Slack absorbs floating-point disagreement between the endpoint sign test
  // and the crossing weight computed from the line coefficients, so callers
  // never lose a borderline crossing (they re-filter by the computed weight).
  constexpr double kEps = 1e-9;

  size_t evals = 0;
  for (const Column& c : columns_) {
    auto d_lo = [&](uint32_t i) {
      ++evals;
      return PlanePoint{xs_[i], c.y}.ScoreAt(wlo) - a_lo;
    };
    auto d_hi = [&](uint32_t i) {
      ++evals;
      return PlanePoint{xs_[i], c.y}.ScoreAt(whi) - a_hi;
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
    for (uint32_t i = from; i < to; ++i) fn(PlanePoint{xs_[i], c.y, ids_[i]});
  }
  last_nodes_visited_ = evals;
}

size_t ScorePlaneIndex::CountAbove(double w, double threshold,
                                   ObjectId tie_id) const {
  assert(w >= 0.0);
  size_t count = 0;
  size_t evals = 0;
  for (const Column& c : columns_) {
    auto score = [&](uint32_t i) {
      ++evals;
      return PlanePoint{xs_[i], c.y}.ScoreAt(w);
    };
    // Scores are non-decreasing along the column: skip a column wholly
    // below the threshold, take one wholly above it whole.
    if (score(c.end - 1) < threshold) continue;
    if (score(c.begin) > threshold) {
      count += c.end - c.begin;
      continue;
    }
    uint32_t i = PartitionPoint(
        c.begin, c.end, [&](uint32_t j) { return score(j) < threshold; });
    for (; i < c.end && score(i) == threshold; ++i) {
      if (ids_[i] < tie_id) ++count;
    }
    count += c.end - i;
  }
  last_nodes_visited_ = evals;
  return count;
}

}  // namespace yask
