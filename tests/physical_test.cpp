#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "src/circuits/benchmarks.hpp"
#include "src/layout/floorplan.hpp"
#include "src/library/osu018.hpp"
#include "src/place/placement.hpp"
#include "src/place/site_map.hpp"
#include "src/route/router.hpp"
#include "src/sta/sta.hpp"
#include "src/synth/mapper.hpp"
#include "src/util/rng.hpp"

namespace dfmres {
namespace {

Netlist mapped_block(const char* name) {
  const Netlist rtl = build_benchmark(name).value();
  MapOptions mo;
  const auto glib = generic_library();
  const auto tlib = osu018_library();
  mo.fixed_map.emplace(glib->require("DFF").value(), tlib->require("DFFPOSX1"));
  mo.fixed_map.emplace(glib->require("FA").value(), tlib->require("FAX1"));
  mo.fixed_map.emplace(glib->require("HA").value(), tlib->require("HAX1"));
  auto mapped = technology_map(rtl, tlib, mo);
  EXPECT_TRUE(mapped.has_value());
  return std::move(*mapped);
}

TEST(Floorplan, SizedForUtilization) {
  const Netlist nl = mapped_block("sparc_tlu");
  const Floorplan plan = make_floorplan(nl, 0.70);
  const double util = plan.utilization(nl);
  EXPECT_GT(util, 0.55);
  EXPECT_LT(util, 0.80);
  EXPECT_TRUE(plan.fits(nl));
}

TEST(Placement, LegalAndComplete) {
  const Netlist nl = mapped_block("sparc_tlu");
  const Floorplan plan = make_floorplan(nl);
  const Placement pl = global_place(nl, plan, {});
  // Every live gate placed inside the die, no site overlaps.
  std::set<std::pair<int, int>> occupied;
  for (GateId g : nl.live_gates()) {
    const auto& p = pl.of(g);
    ASSERT_TRUE(p.valid());
    const int w = nl.cell_of(g).width_sites;
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x + w, plan.sites_per_row);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.y, plan.rows);
    for (int i = 0; i < w; ++i) {
      EXPECT_TRUE(occupied.emplace(p.x + i, p.y).second)
          << "overlap at " << p.x + i << "," << p.y;
    }
  }
}

TEST(Placement, AnnealingDoesNotWorsenWirelength) {
  const Netlist nl = mapped_block("sparc_tlu");
  const Floorplan plan = make_floorplan(nl);
  PlaceOptions no_anneal;
  no_anneal.moves_per_gate = 0;
  const Placement raw = global_place(nl, plan, no_anneal);
  const Placement refined = global_place(nl, plan, {});
  EXPECT_LE(total_hpwl(nl, refined), total_hpwl(nl, raw) * 1.02);
}

TEST(Placement, IncrementalKeepsSurvivorsAndStaysLegal) {
  Netlist nl = mapped_block("sparc_tlu");
  const Floorplan plan = make_floorplan(nl);
  const Placement before = global_place(nl, plan, {});

  // Edit: retype some inverters (no topology change) and add a few gates.
  const auto lib = nl.library_ptr();
  std::vector<GateId> survivors = nl.live_gates();
  const NetId a = nl.primary_inputs()[0];
  for (int i = 0; i < 5; ++i) {
    const NetId in[] = {a};
    nl.add_gate(lib->require("INVX1"), in);
  }
  const auto after = incremental_place(nl, before);
  ASSERT_TRUE(after.has_value());
  for (GateId g : survivors) {
    EXPECT_EQ(after->of(g).x, before.of(g).x);
    EXPECT_EQ(after->of(g).y, before.of(g).y);
  }
  std::set<std::pair<int, int>> occupied;
  for (GateId g : nl.live_gates()) {
    const auto& p = after->of(g);
    ASSERT_TRUE(p.valid());
    for (int i = 0; i < nl.cell_of(g).width_sites; ++i) {
      EXPECT_TRUE(occupied.emplace(p.x + i, p.y).second);
    }
  }
}

TEST(Placement, IncrementalFailsWhenDieFull) {
  Netlist nl = mapped_block("sparc_tlu");
  Floorplan plan = make_floorplan(nl);
  const Placement before = global_place(nl, plan, {});
  // Stuff the die far beyond capacity.
  const auto lib = nl.library_ptr();
  const NetId a = nl.primary_inputs()[0];
  const long free_sites = plan.total_sites() - total_width_sites(nl);
  const int to_add = static_cast<int>(free_sites / 10) + 50;
  for (int i = 0; i < to_add; ++i) {
    const NetId in[] = {a, a, a};
    nl.add_gate(lib->require("FAX1"), in);
  }
  EXPECT_FALSE(incremental_place(nl, before).has_value());
}

/// The legalizer's former site map: a row bitmap scanned site by site.
/// SiteMap must choose exactly what this did.
class BitmapSiteMap {
 public:
  explicit BitmapSiteMap(const Floorplan& plan)
      : rows_(plan.rows),
        width_(plan.sites_per_row),
        occupied_(static_cast<std::size_t>(plan.rows) * plan.sites_per_row,
                  false) {}

  [[nodiscard]] bool free_run(int x, int y, int w) const {
    if (y < 0 || y >= rows_ || x < 0 || x + w > width_) return false;
    for (int i = 0; i < w; ++i) {
      if (occupied_[idx(x + i, y)]) return false;
    }
    return true;
  }

  void occupy(int x, int y, int w) {
    for (int i = 0; i < w; ++i) occupied_[idx(x + i, y)] = true;
  }

  bool find_nearest(int tx, int ty, int w, int& out_x, int& out_y) const {
    double best = std::numeric_limits<double>::max();
    bool found = false;
    for (int dy = 0; dy < rows_; ++dy) {
      if (found && dy > best) break;
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
        if (dy == 0) break;
      }
    }
    return found;
  }

 private:
  [[nodiscard]] std::size_t idx(int x, int y) const {
    return static_cast<std::size_t>(y) * width_ + x;
  }

  [[nodiscard]] int scan_row(int y, int tx, int w) const {
    tx = std::clamp(tx, 0, width_ - w);
    for (int d = 0; d < width_; ++d) {
      for (const int x : {tx - d, tx + d}) {
        if (d != 0 && x == tx) continue;
        if (free_run(x, y, w)) return x;
      }
      if (tx - d < 0 && tx + d > width_ - w) break;
    }
    return -1;
  }

  int rows_;
  int width_;
  std::vector<bool> occupied_;
};

TEST(SiteMap, MatchesBitmapScanOnRandomOccupancy) {
  Rng rng(31);
  int legalized = 0, full = 0;
  for (int round = 0; round < 200; ++round) {
    Floorplan plan;
    plan.rows = 1 + static_cast<int>(rng.below(12));
    plan.sites_per_row = 8 + static_cast<int>(rng.below(60));
    SiteMap sites(plan);
    BitmapSiteMap bitmap(plan);
    // Random blocks, overlapping ones included, as previous positions.
    const int blocks = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(plan.rows * plan.sites_per_row / 3 + 1)));
    for (int b = 0; b < blocks; ++b) {
      const int w = 1 + static_cast<int>(rng.below(6));
      if (w > plan.sites_per_row) continue;
      const int x = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(plan.sites_per_row - w + 1)));
      const int y = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(plan.rows)));
      sites.occupy(x, y, w);
      bitmap.occupy(x, y, w);
    }
    // Then legalize cells until the die is full, as incremental
    // placement does, checking free_run at random spots on the way.
    for (;;) {
      const int w = 1 + static_cast<int>(rng.below(6));
      const int tx = static_cast<int>(rng.below(
                         static_cast<std::uint64_t>(plan.sites_per_row + 8))) -
                     4;
      const int ty = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(plan.rows)));
      for (int probe = 0; probe < 4; ++probe) {
        const int x = static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(plan.sites_per_row + 4))) -
                      2;
        const int y = static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(plan.rows + 2))) -
                      1;
        ASSERT_EQ(sites.free_run(x, y, w), bitmap.free_run(x, y, w))
            << "round " << round << " (" << x << ", " << y << ") w " << w;
      }
      int ax = -1, ay = -1, bx = -1, by = -1;
      const bool a = sites.find_nearest(tx, ty, w, ax, ay);
      const bool b = bitmap.find_nearest(tx, ty, w, bx, by);
      ASSERT_EQ(a, b) << "round " << round;
      if (!a) {
        ++full;
        break;
      }
      ASSERT_EQ(ax, bx) << "round " << round << " target " << tx << "," << ty;
      ASSERT_EQ(ay, by) << "round " << round << " target " << tx << "," << ty;
      sites.occupy(ax, ay, w);
      bitmap.occupy(bx, by, w);
      ++legalized;
    }
  }
  EXPECT_EQ(full, 200);
  EXPECT_GT(legalized, 1000);
}

TEST(Router, SegmentsInsideGridAndUsageConsistent) {
  const Netlist nl = mapped_block("sparc_tlu");
  const Floorplan plan = make_floorplan(nl);
  const Placement pl = global_place(nl, plan, {});
  const RoutingResult rr = route(nl, pl, {});
  ASSERT_GT(rr.grid_w, 0);
  ASSERT_GT(rr.grid_h, 0);
  std::vector<std::uint32_t> h_check(rr.h_usage.size(), 0),
      v_check(rr.v_usage.size(), 0);
  for (const RouteSegment& s : rr.segments) {
    EXPECT_LE(s.lo, s.hi);
    if (s.horizontal) {
      EXPECT_LT(s.fixed, rr.grid_h);
      EXPECT_LT(s.hi, rr.grid_w);
      for (int x = s.lo; x <= s.hi; ++x) ++h_check[rr.cell(x, s.fixed)];
    } else {
      EXPECT_LT(s.fixed, rr.grid_w);
      EXPECT_LT(s.hi, rr.grid_h);
      for (int y = s.lo; y <= s.hi; ++y) ++v_check[rr.cell(s.fixed, y)];
    }
  }
  for (std::size_t i = 0; i < h_check.size(); ++i) {
    EXPECT_EQ(h_check[i], rr.h_usage[i]);
    EXPECT_EQ(v_check[i], rr.v_usage[i]);
  }
  for (const Via& via : rr.vias) {
    EXPECT_LT(via.x, rr.grid_w);
    EXPECT_LT(via.y, rr.grid_h);
  }
}

TEST(Router, MultiPinNetsGetWireAndVias) {
  const Netlist nl = mapped_block("sparc_tlu");
  const Floorplan plan = make_floorplan(nl);
  const Placement pl = global_place(nl, plan, {});
  const RoutingResult rr = route(nl, pl, {});
  std::size_t with_wire = 0, with_vias = 0, multi_pin = 0;
  for (NetId net : nl.live_nets()) {
    const auto& n = nl.net(net);
    const std::size_t pins = n.sinks.size() + (n.has_gate_driver() ? 1 : 0);
    if (pins < 2) continue;
    ++multi_pin;
    with_wire += rr.nets[net.value()].wirelength > 0;
    with_vias += rr.nets[net.value()].num_vias > 0;
  }
  EXPECT_GT(multi_pin, 100u);
  // Nets whose pins share one gcell need no routing; every net that got
  // wire must have pin vias, and most multi-pin nets span gcells.
  EXPECT_GE(with_vias, with_wire);
  EXPECT_GT(with_wire * 10, multi_pin * 5);
}

TEST(Sta, ArrivalsMonotoneAlongPaths) {
  const Netlist nl = mapped_block("sparc_tlu");
  const Floorplan plan = make_floorplan(nl);
  const Placement pl = global_place(nl, plan, {});
  const RoutingResult rr = route(nl, pl, {});
  const TimingPower tp = analyze_timing_power(nl, rr, {});
  EXPECT_GT(tp.critical_delay, 0.0);
  EXPECT_GT(tp.dynamic_power, 0.0);
  EXPECT_GT(tp.leakage_power, 0.0);
  for (GateId g : nl.live_gates()) {
    if (nl.cell_of(g).sequential) continue;
    double in_arrival = 0.0;
    for (NetId in : nl.gate(g).fanin) {
      in_arrival = std::max(in_arrival, tp.arrival[in.value()]);
    }
    for (NetId out : nl.gate(g).outputs) {
      EXPECT_GT(tp.arrival[out.value()], in_arrival);
    }
  }
}

TEST(Sta, DriveDownsizingSlowsLoadedNets) {
  // Retyping a loaded INVX4 to INVX1 must not speed the circuit up.
  // (sparc_exu's operand decoders give the mapper high-fanout nets to
  // size, unlike the smaller tlu block.)
  Netlist nl = mapped_block("sparc_exu");
  const Floorplan plan = make_floorplan(nl);
  const Placement pl = global_place(nl, plan, {});
  const RoutingResult rr = route(nl, pl, {});
  const double before = analyze_timing_power(nl, rr, {}).critical_delay;
  const auto lib = nl.library_ptr();
  int retyped = 0;
  for (GateId g : nl.live_gates()) {
    const std::string& name = nl.cell_of(g).name;
    if (name == "INVX2" || name == "INVX4" || name == "INVX8") {
      nl.retype_gate(g, lib->require("INVX1"));
      ++retyped;
    }
  }
  if (retyped == 0) GTEST_SKIP() << "no sized inverters in this block";
  const double after = analyze_timing_power(nl, rr, {}).critical_delay;
  EXPECT_GE(after, before);
}

}  // namespace
}  // namespace dfmres
