#pragma once

#include <vector>

#include "src/layout/floorplan.hpp"

namespace dfmres {

/// Row occupancy of a floorplan as sorted free intervals per row, with a
/// nearest-free-run search. Legalization asks it for the free run of w
/// sites nearest a target; a probe's incremental placement does that
/// once per new cell, so the search costs O(rows x intervals visited),
/// not O(rows x sites x w) as a site-by-site bitmap scan would.
class SiteMap {
 public:
  explicit SiteMap(const Floorplan& plan);

  /// True when sites x .. x + w - 1 of row y exist and are all free.
  [[nodiscard]] bool free_run(int x, int y, int w) const;

  /// Marks sites x .. x + w - 1 of row y occupied (any of them may
  /// already be).
  void occupy(int x, int y, int w);

  /// Finds the free run of width w nearest to (tx, ty); returns false if
  /// no row has one. Rows are tried outward from ty (ty - d before
  /// ty + d); in a row the run nearest tx wins, ties to the left; a row
  /// costs |x - tx| / 4 + d, and only a strictly cheaper row replaces the
  /// best so far.
  bool find_nearest(int tx, int ty, int w, int& out_x, int& out_y) const;

 private:
  struct Interval {
    int begin, end;  ///< free sites [begin, end)
  };

  /// Nearest x in row y with w free sites to tx clamped into the row,
  /// ties to the left; -1 when the row has none.
  [[nodiscard]] int scan_row(int y, int tx, int w) const;

  int rows_;
  int width_;
  std::vector<std::vector<Interval>> free_;  ///< by row, sorted, disjoint
};

}  // namespace dfmres
