#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/core/flow.hpp"
#include "src/dfm/checker.hpp"
#include "src/dfm/guidelines.hpp"
#include "src/layout/floorplan.hpp"
#include "src/library/osu018.hpp"
#include "src/place/placement.hpp"
#include "src/route/router.hpp"
#include "src/synth/mapper.hpp"

namespace dfmres {
namespace {

TEST(Guidelines, PaperCounts) {
  // 19 Via + 29 Metal + 11 Density guidelines (paper Section IV).
  EXPECT_EQ(kNumViaGuidelines, 19);
  EXPECT_EQ(kNumMetalGuidelines, 29);
  EXPECT_EQ(kNumDensityGuidelines, 11);
  EXPECT_EQ(all_guidelines().size(), 59u);
  int via = 0, metal = 0, density = 0;
  for (const Guideline& g : all_guidelines()) {
    switch (g.category) {
      case GuidelineCategory::Via: ++via; break;
      case GuidelineCategory::Metal: ++metal; break;
      case GuidelineCategory::Density: ++density; break;
    }
  }
  EXPECT_EQ(via, kNumViaGuidelines);
  EXPECT_EQ(metal, kNumMetalGuidelines);
  EXPECT_EQ(density, kNumDensityGuidelines);
}

TEST(Guidelines, IdsRoundTrip) {
  for (std::uint16_t id = 0; id < kNumGuidelines; ++id) {
    const Guideline& g = all_guidelines()[id];
    EXPECT_EQ(guideline_id(g.category, g.index_in_category), id);
  }
}

TEST(Guidelines, SelectionIsDeterministic) {
  for (int i = 0; i < 50; ++i) {
    const bool a = cell_defect_selected("FAX1", i, 28,
                                        DefectKind::TransistorStuckOpen,
                                        false);
    const bool b = cell_defect_selected("FAX1", i, 28,
                                        DefectKind::TransistorStuckOpen,
                                        false);
    EXPECT_EQ(a, b);
  }
}

TEST(Guidelines, MaskedSitesAreLikelierViolations) {
  int plain = 0, masked = 0;
  for (int i = 0; i < 200; ++i) {
    plain += cell_defect_selected("X", i, 8, DefectKind::TransistorStuckOpen,
                                  false);
    masked += cell_defect_selected("X", i, 8,
                                   DefectKind::TransistorStuckOpen, true);
  }
  EXPECT_GT(masked, plain);
}

class DfmExtraction : public ::testing::Test {
 protected:
  DfmExtraction()
      : lib_(osu018_library()), udfm_(*lib_), nl_(make_block()) {
    plan_ = make_floorplan(nl_);
    placement_ = global_place(nl_, plan_, {});
    routes_ = route(nl_, placement_, {});
    universe_ = extract_dfm_faults(nl_, placement_, routes_, udfm_);
  }

  static Netlist make_block() {
    const Netlist rtl = build_benchmark("sparc_lsu").value();
    MapOptions mo;
    const auto glib = generic_library();
    const auto tlib = osu018_library();
    mo.fixed_map.emplace(glib->require("DFF").value(),
                         tlib->require("DFFPOSX1"));
    mo.fixed_map.emplace(glib->require("FA").value(), tlib->require("FAX1"));
    mo.fixed_map.emplace(glib->require("HA").value(), tlib->require("HAX1"));
    return *technology_map(rtl, tlib, mo);
  }

  std::shared_ptr<const Library> lib_;
  UdfmMap udfm_;
  Netlist nl_;
  Floorplan plan_;
  Placement placement_;
  RoutingResult routes_;
  FaultUniverse universe_;
};

TEST_F(DfmExtraction, FaultsReferenceLiveObjects) {
  for (const Fault& f : universe_.faults) {
    EXPECT_TRUE(nl_.net_alive(f.victim));
    EXPECT_LT(f.guideline, kNumGuidelines);
    if (f.scope == FaultScope::Internal) {
      ASSERT_TRUE(nl_.gate_alive(f.owner));
      EXPECT_EQ(f.kind, FaultKind::CellAware);
      EXPECT_LT(f.udfm_index,
                udfm_.of(nl_.gate(f.owner).cell).num_faults());
    }
    if (f.kind == FaultKind::Bridge) {
      ASSERT_TRUE(nl_.net_alive(f.aggressor));
      EXPECT_NE(f.victim, f.aggressor);
    }
  }
}

TEST_F(DfmExtraction, ExternalFaultsAreDedupedPerNetAndGuideline) {
  std::set<std::tuple<std::uint32_t, std::uint16_t, bool>> seen;
  for (const Fault& f : universe_.faults) {
    if (f.scope != FaultScope::External || f.kind == FaultKind::Bridge) {
      continue;
    }
    EXPECT_TRUE(seen.emplace(f.victim.value(), f.guideline, f.value).second)
        << "duplicate external fault on net " << f.victim.value();
  }
}

TEST_F(DfmExtraction, InternalCountsMatchPerCellHelper) {
  std::size_t expected = 0;
  for (GateId g : nl_.live_gates()) {
    if (nl_.cell_of(g).sequential) continue;
    expected += internal_fault_count(*lib_, udfm_, nl_.gate(g).cell);
  }
  // extract adds extra multiplicity for charge-sharing-masked sites;
  // every per-cell selected fault appears at least once.
  EXPECT_GE(universe_.count_internal(), expected);
}

TEST_F(DfmExtraction, ShapeMatchesPaperSectionII) {
  // F_Ex > F_In (more external than internal guideline faults)...
  EXPECT_GT(universe_.count_external(), universe_.count_internal() / 2);
  // ...and every guideline category contributes faults.
  const auto per = universe_.per_guideline(kNumGuidelines);
  std::size_t via = 0, metal = 0, density = 0;
  for (std::uint16_t id = 0; id < kNumGuidelines; ++id) {
    switch (all_guidelines()[id].category) {
      case GuidelineCategory::Via: via += per[id]; break;
      case GuidelineCategory::Metal: metal += per[id]; break;
      case GuidelineCategory::Density: density += per[id]; break;
    }
  }
  EXPECT_GT(via, 0u);
  EXPECT_GT(metal, 0u);
  EXPECT_GT(density, 0u);
}

TEST_F(DfmExtraction, InternalFaultsAreLayoutIndependent) {
  // The internal universe must not depend on placement/routing
  // (Section III-B: PDesign() is gated on internal counts alone).
  const FaultUniverse internal_only = extract_internal_faults(nl_, udfm_);
  EXPECT_EQ(internal_only.size(), universe_.count_internal());
  PlaceOptions other;
  other.seed = 99;
  const Placement placement2 = global_place(nl_, plan_, other);
  const RoutingResult routes2 = route(nl_, placement2, {});
  const FaultUniverse universe2 =
      extract_dfm_faults(nl_, placement2, routes2, udfm_);
  EXPECT_EQ(universe2.count_internal(), universe_.count_internal());
}

/// Order-independent digest of a universe: FNV-1a over the sorted
/// (kind, scope, victim, aggressor, owner, udfm_index, value,
/// bridge_type, guideline) tuples, so it pins which faults are emitted
/// and how often, not the order they come in.
std::uint64_t fault_multiset_hash(const FaultUniverse& u) {
  using Tuple = std::tuple<int, int, std::uint32_t, std::uint32_t,
                           std::uint32_t, std::uint32_t, int, int, int>;
  std::vector<Tuple> tuples;
  tuples.reserve(u.size());
  for (const Fault& f : u.faults) {
    tuples.emplace_back(static_cast<int>(f.kind), static_cast<int>(f.scope),
                        f.victim.value(), f.aggressor.value(),
                        f.owner.value(), f.udfm_index, f.value ? 1 : 0,
                        static_cast<int>(f.bridge_type), f.guideline);
  }
  std::sort(tuples.begin(), tuples.end());
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Tuple& t : tuples) {
    std::apply([&mix](auto... field) {
      (mix(static_cast<std::uint64_t>(field)), ...);
    }, t);
  }
  return h;
}

TEST_F(DfmExtraction, FaultMultisetPinned) {
  // Every Table-II block, mapped, placed and routed the way
  // DesignFlow::run_initial does it at default FlowOptions. Recorded
  // from the extractor that walked hash containers; any rewrite must
  // emit the same faults the same number of times.
  const struct {
    const char* block;
    std::size_t faults;
    std::uint64_t hash;
  } kPinned[] = {
      {"aes_core", 54345, 0x3b202fb3d2c3bffcull},
      {"des_perf", 25077, 0x806d4a157d7bb454ull},
      {"sparc_exu", 16119, 0x00a984f7eef7a1e9ull},
      {"sparc_ffu", 14636, 0x1f85dcc6361010c9ull},
      {"sparc_fpu", 16975, 0x8366cb74f53c455dull},
      {"sparc_ifu", 5313, 0x224ba2ed8880cd22ull},
      {"sparc_lsu", 7206, 0x6c91d1b50299ed69ull},
      {"sparc_spu", 10017, 0x8dd3ecfa5568b2aaull},
      {"sparc_tlu", 3741, 0x57a970d13c7b469dull},
      {"systemcaes", 14582, 0x98a16eaaa1d8033eull},
      {"tv80", 10277, 0x32f5eb3cccf30c52ull},
      {"wb_conmax", 7532, 0xfb1ba3eb30e9e638ull},
  };
  ASSERT_EQ(std::size(kPinned), benchmark_names().size());
  const FlowOptions fopts;
  const auto glib = generic_library();
  for (const auto& pin : kPinned) {
    const Netlist rtl = build_benchmark(pin.block).value();
    MapOptions mo;
    mo.fixed_map.emplace(glib->require("DFF").value(),
                         lib_->require("DFFPOSX1"));
    mo.fixed_map.emplace(glib->require("FA").value(), lib_->require("FAX1"));
    mo.fixed_map.emplace(glib->require("HA").value(), lib_->require("HAX1"));
    const Netlist nl = *technology_map(rtl, lib_, mo);
    const Placement pl = global_place(
        nl, make_floorplan(nl, fopts.utilization), fopts.place);
    const RoutingResult routes = route(nl, pl, fopts.route);
    const FaultUniverse u = extract_dfm_faults(nl, pl, routes, udfm_);
    EXPECT_EQ(u.size(), pin.faults) << pin.block;
    EXPECT_EQ(fault_multiset_hash(u), pin.hash)
        << pin.block << ": 0x" << std::hex << fault_multiset_hash(u);
  }
}

/// A netlist of primary inputs (plus any gates a test adds) with an
/// empty routing grid for a test to draw segments on. No gate is placed
/// and every net route is empty, so nothing fires but what a test draws:
/// bridges, and low-density windows (utilization 0 violates the
/// tightest low-density rule everywhere).
class HandBuilt : public ::testing::Test {
 protected:
  HandBuilt() : lib_(osu018_library()), udfm_(*lib_), nl_(lib_, "hand") {
    for (int i = 0; i < 64; ++i) pis_.push_back(nl_.add_primary_input());
  }

  void grid(int w, int h) {
    routes_ = {};
    routes_.grid_w = w;
    routes_.grid_h = h;
    routes_.h_usage.assign(static_cast<std::size_t>(w) * h, 0);
    routes_.v_usage.assign(static_cast<std::size_t>(w) * h, 0);
  }

  void run(NetId net, bool horizontal, int fixed, int lo, int hi) {
    routes_.segments.push_back({net, horizontal, fixed, lo, hi});
  }

  /// Primary-input nets on `count` distinct routing tracks t, t+1, ...
  std::vector<NetId> on_tracks(int t, int count) {
    std::vector<NetId> out;
    for (int k = 0; k < count; ++k) {
      for (NetId n : pis_) {
        if (routes_.track_of(n) == t + k) {
          out.push_back(n);
          break;
        }
      }
    }
    return out;
  }

  FaultUniverse extract() {
    pl_.pos.resize(nl_.gate_capacity());
    routes_.nets.assign(nl_.net_capacity(), {});
    return extract_dfm_faults(nl_, pl_, routes_, udfm_);
  }

  static std::vector<Fault> of_kind(const FaultUniverse& u, FaultKind k) {
    std::vector<Fault> out;
    for (const Fault& f : u.faults) {
      if (f.kind == k) out.push_back(f);
    }
    return out;
  }

  /// (victim net id, guideline) targets.
  using Targets = std::vector<std::pair<std::uint32_t, std::uint16_t>>;

  /// The density targets, in emission order (each is two faults, one
  /// per value).
  static Targets density(const FaultUniverse& u) {
    Targets out;
    for (const Fault& f : of_kind(u, FaultKind::Transition)) {
      if (all_guidelines()[f.guideline].category ==
              GuidelineCategory::Density &&
          !f.value) {
        out.emplace_back(f.victim.value(), f.guideline);
      }
    }
    return out;
  }

  static std::uint16_t metal(int i) {
    return guideline_id(GuidelineCategory::Metal, i);
  }
  static std::uint16_t density_rule(int i) {
    return guideline_id(GuidelineCategory::Density, i);
  }

  std::shared_ptr<const Library> lib_;
  UdfmMap udfm_;
  Netlist nl_;
  std::vector<NetId> pis_;
  Placement pl_;
  RoutingResult routes_;
};

TEST_F(HandBuilt, BridgesOnlyBetweenAdjacentTracks) {
  grid(32, 4);
  const std::vector<NetId> n = on_tracks(2, 3);
  ASSERT_EQ(n.size(), 3u);
  NetId same_track;
  for (NetId p : pis_) {
    if (p != n[0] && routes_.track_of(p) == routes_.track_of(n[0])) {
      same_track = p;
    }
  }
  ASSERT_TRUE(same_track.valid());
  // Net n[0] (track 2) runs beside track 3 on row 0, beside track 4 on
  // row 1 and beside another track-2 net on row 2, 20 gcells each; only
  // the first pair is on adjacent tracks.
  int row = 0;
  for (NetId other : {n[1], n[2], same_track}) {
    run(n[0], true, row, 0, 19);
    run(other, true, row, 0, 19);
    ++row;
  }
  const std::vector<Fault> bridges = of_kind(extract(), FaultKind::Bridge);
  ASSERT_EQ(bridges.size(), 4u);
  for (const Fault& f : bridges) {
    EXPECT_EQ((std::set{f.victim.value(), f.aggressor.value()}),
              (std::set{n[0].value(), n[1].value()}));
  }
}

TEST_F(HandBuilt, ParallelRunFamilyBoundaries) {
  // Guidelines 18-23 are parallel runs of >= 6, 8, 10, 12, 16, 20
  // gcells; a run takes the tightest family it reaches.
  const struct {
    int overlap;
    int family;  ///< Metal index, -1 = no bridge
  } kCases[] = {{1, -1},  {5, -1},  {6, 18},  {7, 18},  {8, 19},
                {9, 19},  {10, 20}, {11, 20}, {12, 21}, {15, 21},
                {16, 22}, {19, 22}, {20, 23}, {21, 23}, {40, 23}};
  for (const auto& c : kCases) {
    // Vertical runs on column 3 sharing exactly `overlap` gcells.
    grid(8, 64);
    const std::vector<NetId> n = on_tracks(4, 2);
    ASSERT_EQ(n.size(), 2u);
    run(n[0], false, 3, 0, 45);
    run(n[1], false, 3, 46 - c.overlap, 60);
    const std::vector<Fault> bridges = of_kind(extract(), FaultKind::Bridge);
    if (c.family < 0) {
      EXPECT_TRUE(bridges.empty()) << "overlap " << c.overlap;
      continue;
    }
    ASSERT_EQ(bridges.size(), 4u) << "overlap " << c.overlap;
    for (const Fault& f : bridges) {
      EXPECT_EQ(f.guideline, metal(c.family)) << "overlap " << c.overlap;
    }
  }
}

TEST_F(HandBuilt, BridgeEmitsBothVictimsAndBothTypes) {
  grid(32, 4);
  const std::vector<NetId> n = on_tracks(0, 2);
  ASSERT_EQ(n.size(), 2u);
  run(n[1], true, 2, 3, 14);
  run(n[0], true, 2, 0, 9);
  std::set<std::tuple<std::uint32_t, std::uint32_t, BridgeType>> got;
  for (const Fault& f : of_kind(extract(), FaultKind::Bridge)) {
    EXPECT_EQ(f.guideline, metal(18));  // 7 shared gcells
    got.emplace(f.victim.value(), f.aggressor.value(), f.bridge_type);
  }
  const std::uint32_t a = n[0].value(), b = n[1].value();
  const std::set<std::tuple<std::uint32_t, std::uint32_t, BridgeType>>
      expected = {{a, b, BridgeType::DomAnd},
                  {b, a, BridgeType::DomAnd},
                  {a, b, BridgeType::DomOr},
                  {b, a, BridgeType::DomOr}};
  EXPECT_EQ(got, expected);
}

TEST_F(HandBuilt, BridgePairDedupedAcrossLines) {
  grid(32, 32);
  const std::vector<NetId> n = on_tracks(5, 2);
  ASSERT_EQ(n.size(), 2u);
  // The same 8-gcell family on two rows and a column, listed with the
  // nets in both orders: one bridge target.
  for (const int row : {3, 9}) {
    run(n[0], true, row, 0, 7);
    run(n[1], true, row, 0, 7);
  }
  run(n[1], false, 20, 10, 17);
  run(n[0], false, 20, 10, 17);
  EXPECT_EQ(of_kind(extract(), FaultKind::Bridge).size(), 4u);
  // A longer run elsewhere is another guideline, so another target.
  run(n[0], false, 25, 0, 19);
  run(n[1], false, 25, 0, 19);
  const std::vector<Fault> bridges = of_kind(extract(), FaultKind::Bridge);
  ASSERT_EQ(bridges.size(), 8u);
  std::multiset<std::uint16_t> guidelines;
  for (const Fault& f : bridges) guidelines.insert(f.guideline);
  EXPECT_EQ(guidelines.count(metal(19)), 4u);
  EXPECT_EQ(guidelines.count(metal(23)), 4u);
}

TEST_F(HandBuilt, DensityNeedsTwoGcellsOfTheWindow) {
  // One 4x1 window (plus its clipped neighbour at x = 2): net 0 crosses
  // two gcells, net 1 only one.
  grid(4, 1);
  run(pis_[0], true, 0, 0, 1);
  run(pis_[1], true, 0, 3, 3);
  const auto got = density(extract());
  const Targets expected = {{pis_[0].value(), density_rule(7)}};
  EXPECT_EQ(got, expected);
}

TEST_F(HandBuilt, ClippedEdgeWindowsAverageTheirOwnGcells) {
  // Gcells are one cell wide; two cells fill gcells 4 and 5 of a 6x1
  // grid. Windows start at x = 0, 2, 4: the first is empty (low
  // density), the second half full (no rule), the clipped third full.
  // A net crossing gcells 4-5 gets only the high-density fault, which a
  // window averaging over four gcells would not produce.
  const NetId in = pis_[0];
  std::vector<GateId> cells;
  for (int i = 0; i < 2; ++i) {
    cells.push_back(nl_.add_gate(lib_->require("INVX1"),
                                 std::vector<NetId>{in}));
  }
  grid(6, 1);
  routes_.options.gcell_sites = nl_.cell_of(cells[0]).width_sites;
  routes_.options.gcell_rows = 1;
  pl_.pos.resize(nl_.gate_capacity());
  pl_.pos[cells[0].value()] = {4 * routes_.options.gcell_sites, 0};
  pl_.pos[cells[1].value()] = {5 * routes_.options.gcell_sites, 0};
  run(pis_[1], true, 0, 4, 5);
  run(pis_[2], true, 0, 0, 1);
  const auto got = density(extract());
  // density.window.high.95 for the edge net, low.06 for the net in the
  // empty window.
  const Targets expected = {
      {pis_[2].value(), density_rule(7)}, {pis_[1].value(), density_rule(3)}};
  EXPECT_EQ(got, expected);
}

TEST_F(HandBuilt, GcellNetListsUseLastWriterDedupe) {
  // A 1x1 grid is a single clipped window over one gcell. A net is
  // listed again only after another net wrote the gcell, so A, B, A
  // counts A twice (faulted) while A, A, B counts it once.
  const NetId a = pis_[0], b = pis_[1];
  grid(1, 1);
  run(a, true, 0, 0, 0);
  run(b, false, 0, 0, 0);
  run(a, false, 0, 0, 0);
  const Targets a_only = {{a.value(), density_rule(7)}};
  EXPECT_EQ(density(extract()), a_only);

  grid(1, 1);
  run(a, true, 0, 0, 0);
  run(a, false, 0, 0, 0);
  run(b, false, 0, 0, 0);
  EXPECT_TRUE(density(extract()).empty());
}

TEST_F(HandBuilt, DensityNetsComeOutByAscendingId) {
  grid(4, 1);
  for (int i = 9; i >= 0; --i) run(pis_[i], true, 0, 0, 3);
  const Targets got = density(extract());
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, pis_[i].value());
  }
}

TEST_F(DfmExtraction, OrderIsCanonical) {
  // Two calls agree fault for fault, and bridges come out by
  // (lower net, higher net, guideline).
  const FaultUniverse again =
      extract_dfm_faults(nl_, placement_, routes_, udfm_);
  ASSERT_EQ(again.size(), universe_.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    ASSERT_TRUE(again.faults[i].key() == universe_.faults[i].key() &&
                again.faults[i].guideline == universe_.faults[i].guideline)
        << "fault " << i;
  }
  std::tuple<std::uint32_t, std::uint32_t, std::uint16_t> previous{};
  std::size_t bridges = 0;
  for (const Fault& f : universe_.faults) {
    if (f.kind != FaultKind::Bridge) continue;
    const std::tuple target{
        std::min(f.victim.value(), f.aggressor.value()),
        std::max(f.victim.value(), f.aggressor.value()), f.guideline};
    EXPECT_LE(previous, target) << "bridge " << bridges;
    previous = target;
    ++bridges;
  }
  EXPECT_GT(bridges, 0u);
}

}  // namespace
}  // namespace dfmres
