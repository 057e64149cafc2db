#include "src/place/site_map.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace dfmres {

SiteMap::SiteMap(const Floorplan& plan)
    : rows_(plan.rows), width_(plan.sites_per_row) {
  free_.assign(static_cast<std::size_t>(std::max(0, rows_)),
               width_ > 0 ? std::vector<Interval>{{0, width_}}
                          : std::vector<Interval>{});
}

bool SiteMap::free_run(int x, int y, int w) const {
  if (y < 0 || y >= rows_ || x < 0 || x + w > width_) return false;
  const auto& row = free_[static_cast<std::size_t>(y)];
  // The last interval starting at or before x is the only one that can
  // hold it.
  const auto it = std::upper_bound(
      row.begin(), row.end(), x,
      [](int v, const Interval& iv) { return v < iv.begin; });
  return it != row.begin() && x + w <= std::prev(it)->end;
}

void SiteMap::occupy(int x, int y, int w) {
  if (w <= 0) return;
  auto& row = free_[static_cast<std::size_t>(y)];
  const int lo = x, hi = x + w;
  // Intervals overlapping [lo, hi) are contiguous: first one ending
  // after lo, up to the first one starting at or after hi.
  auto first = std::partition_point(
      row.begin(), row.end(), [lo](const Interval& iv) { return iv.end <= lo; });
  auto last = first;
  while (last != row.end() && last->begin < hi) ++last;
  if (first == last) return;
  Interval left{first->begin, lo};
  Interval right{hi, std::prev(last)->end};
  const auto at = row.erase(first, last);
  Interval keep[2];
  int n = 0;
  if (left.begin < left.end) keep[n++] = left;
  if (right.begin < right.end) keep[n++] = right;
  row.insert(at, keep, keep + n);
}

int SiteMap::scan_row(int y, int tx, int w) const {
  if (w > width_) return -1;
  tx = std::clamp(tx, 0, width_ - w);
  const auto& row = free_[static_cast<std::size_t>(y)];
  const auto split = std::upper_bound(
      row.begin(), row.end(), tx,
      [](int v, const Interval& iv) { return v < iv.begin; });
  // Left of tx (intervals starting at or before it): the first one that
  // fits, walking left, holds the nearest run; one farther left ends
  // before this one begins.
  int left = -1;
  for (auto it = split; it != row.begin();) {
    --it;
    if (it->end - it->begin >= w) {
      left = std::min(tx, it->end - w);
      break;
    }
  }
  // Right of tx: the first interval that fits, at its start.
  int right = -1;
  for (auto it = split; it != row.end(); ++it) {
    if (it->end - it->begin >= w) {
      right = it->begin;
      break;
    }
  }
  if (left < 0) return right;
  if (right < 0) return left;
  return right - tx < tx - left ? right : left;
}

bool SiteMap::find_nearest(int tx, int ty, int w, int& out_x,
                           int& out_y) const {
  double best = std::numeric_limits<double>::max();
  bool found = false;
  for (int dy = 0; dy < rows_; ++dy) {
    if (found && dy > best) break;  // farther rows cannot win
    for (const int y : {ty - dy, ty + dy}) {
      if (y < 0 || y >= rows_) continue;
      const int x = scan_row(y, tx, w);
      if (x >= 0) {
        const double cost = std::abs(x - tx) / 4.0 + dy;
        if (cost < best) {
          best = cost;
          out_x = x;
          out_y = y;
          found = true;
        }
      }
      if (dy == 0) break;  // ty - 0 == ty + 0
    }
  }
  return found;
}

}  // namespace dfmres
