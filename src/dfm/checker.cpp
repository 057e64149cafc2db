#include "src/dfm/checker.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace dfmres {

namespace {

/// Largest guideline threshold in [first, last] (category-relative
/// indices) that `value` still violates (value >= threshold); -1 if none.
/// "Tightest family" assignment keeps one family per violation.
int tightest_family(GuidelineCategory cat, int first, int last,
                    double value) {
  const auto guidelines = all_guidelines();
  int best = -1;
  double best_threshold = -1.0;
  for (int i = first; i <= last; ++i) {
    const Guideline& g = guidelines[guideline_id(cat, i)];
    if (value >= g.threshold && g.threshold > best_threshold) {
      best_threshold = g.threshold;
      best = i;
    }
  }
  return best;
}

/// Low-side variant: violates when value <= threshold; picks smallest.
int tightest_family_low(GuidelineCategory cat, int first, int last,
                        double value) {
  const auto guidelines = all_guidelines();
  int best = -1;
  double best_threshold = 2.0;
  for (int i = first; i <= last; ++i) {
    const Guideline& g = guidelines[guideline_id(cat, i)];
    if (value <= g.threshold && g.threshold < best_threshold) {
      best_threshold = g.threshold;
      best = i;
    }
  }
  return best;
}

/// The internal faults one instance of `spec` contributes, in extraction
/// order, with `owner` and `victim` left for the caller to fill in.
std::vector<Fault> cell_fault_template(const CellSpec& spec,
                                       const CellUdfm& cu) {
  std::vector<Fault> out;
  if (spec.sequential || spec.network.empty()) return out;
  for (std::size_t i = 0; i < cu.faults.size(); ++i) {
    if (!cell_defect_selected(spec.name, i, spec.network.transistors.size(),
                              cu.faults[i].defect.kind,
                              cu.faults[i].patterns.empty())) {
      continue;
    }
    Fault f;
    f.kind = FaultKind::CellAware;
    f.scope = FaultScope::Internal;
    f.cell_output = 0;
    f.udfm_index = static_cast<std::uint32_t>(i);
    f.guideline = guideline_for_cell_defect(cu.faults[i].defect);
    out.push_back(f);
    // Charge-sharing-masked sites sit at marginal geometries that
    // co-violate the sibling guidelines of their family; each violation
    // is counted (ATPG collapses the duplicates by key).
    if (cu.faults[i].patterns.empty()) {
      for (int extra = 1; extra <= 2; ++extra) {
        Fault dup = f;
        dup.guideline = guideline_for_cell_defect(
            {cu.faults[i].defect.kind,
             static_cast<std::uint16_t>(cu.faults[i].defect.a + extra),
             cu.faults[i].defect.b});
        out.push_back(dup);
      }
    }
  }
  return out;
}

}  // namespace

std::size_t internal_fault_count(const Library& lib, const UdfmMap& udfm,
                                 CellId cell) {
  const CellSpec& spec = lib.cell(cell);
  const CellUdfm& cu = udfm.of(cell);
  std::size_t count = 0;
  for (std::size_t i = 0; i < cu.faults.size(); ++i) {
    if (cell_defect_selected(spec.name, i, spec.network.transistors.size(),
                             cu.faults[i].defect.kind,
                             cu.faults[i].patterns.empty())) {
      ++count;
    }
  }
  return count;
}

FaultUniverse extract_internal_faults(const Netlist& nl,
                                      const UdfmMap& udfm) {
  // Which defects of a cell are selected, and their guideline ids, depend
  // only on the cell: each cell in use gets its fault template built once
  // per call, which every instance then copies.
  const Library& lib = nl.library();
  std::vector<std::vector<Fault>> templates(lib.num_cells());
  std::vector<std::uint8_t> built(lib.num_cells(), 0);
  FaultUniverse universe;
  for (GateId g : nl.live_gates()) {
    const CellId cell = nl.gate(g).cell;
    if (!built[cell.value()]) {
      built[cell.value()] = 1;
      templates[cell.value()] = cell_fault_template(lib.cell(cell),
                                                    udfm.of(cell));
    }
    for (Fault f : templates[cell.value()]) {
      f.owner = g;
      f.victim = nl.gate(g).outputs[0];
      universe.faults.push_back(f);
    }
  }
  return universe;
}

FaultUniverse extract_dfm_faults(const Netlist& nl, const Placement& pl,
                                 const RoutingResult& routes,
                                 const UdfmMap& udfm) {
  FaultUniverse universe = extract_internal_faults(nl, udfm);
  auto& out = universe.faults;

  // Multiple physical sites can violate the same guideline on the same
  // net; the fault list (like a production ATPG fault list) carries one
  // logic fault per distinct (net, guideline) target.
  std::unordered_set<std::uint64_t> seen;
  const auto push_pair = [&](FaultKind kind, NetId net,
                             std::uint16_t guideline) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(net.value()) << 8) | guideline;
    if (!seen.insert(key).second) return;
    for (const bool v : {false, true}) {
      Fault f;
      f.kind = kind;
      f.scope = FaultScope::External;
      f.victim = net;
      f.value = v;
      f.guideline = guideline;
      out.push_back(f);
    }
  };

  // ---- Via guidelines on the routed design ----
  for (const Via& via : routes.vias) {
    const double wl = routes.nets[via.net.value()].wirelength;
    if (!via.redundant) {
      if (const int fam = tightest_family(GuidelineCategory::Via, 11, 14, wl);
          fam >= 0) {
        push_pair(FaultKind::Transition, via.net,
                  guideline_id(GuidelineCategory::Via, fam));
      }
      if (via.at_segment_end) {
        if (const int fam =
                tightest_family(GuidelineCategory::Via, 17, 18, wl);
            fam >= 0) {
          push_pair(FaultKind::StuckAt, via.net,
                    guideline_id(GuidelineCategory::Via, fam));
        }
      }
    }
  }
  for (NetId net : nl.live_nets()) {
    const NetRoute& nr = routes.nets[net.value()];
    if (const int fam = tightest_family(GuidelineCategory::Via, 15, 16,
                                        nr.num_vias);
        fam >= 0) {
      push_pair(FaultKind::Transition, net,
                guideline_id(GuidelineCategory::Via, fam));
    }
    // Metal: long narrow wires (opens) and congested jogs (resistive).
    if (const int fam = tightest_family(GuidelineCategory::Metal, 24, 26,
                                        nr.wirelength);
        fam >= 0) {
      push_pair(FaultKind::StuckAt, net,
                guideline_id(GuidelineCategory::Metal, fam));
    }
    if (const int fam = tightest_family(GuidelineCategory::Metal, 27, 28,
                                        nr.max_congestion_pct / 100.0);
        fam >= 0) {
      push_pair(FaultKind::Transition, net,
                guideline_id(GuidelineCategory::Metal, fam));
    }
  }

  // ---- Metal parallel-run bridges ----
  {
    // Group segments by (orientation, line).
    std::unordered_map<std::uint64_t, std::vector<const RouteSegment*>> lines;
    for (const RouteSegment& s : routes.segments) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(s.horizontal) << 32) |
          static_cast<std::uint32_t>(s.fixed);
      lines[key].push_back(&s);
    }
    for (auto& [key, segs] : lines) {
      std::sort(segs.begin(), segs.end(),
                [](const RouteSegment* a, const RouteSegment* b) {
                  return a->lo < b->lo;
                });
      for (std::size_t i = 0; i < segs.size(); ++i) {
        for (std::size_t j = i + 1; j < segs.size(); ++j) {
          const RouteSegment& a = *segs[i];
          const RouteSegment& b = *segs[j];
          if (b.lo > a.hi) break;  // sorted by lo: no further overlaps
          if (a.net == b.net) continue;
          const int track_a = routes.track_of(a.net);
          const int track_b = routes.track_of(b.net);
          if (std::abs(track_a - track_b) != 1) continue;  // not adjacent
          const int overlap = std::min(a.hi, b.hi) - std::max(a.lo, b.lo) + 1;
          const int fam = tightest_family(GuidelineCategory::Metal, 18, 23,
                                          overlap);
          if (fam < 0) continue;
          const std::uint16_t gid =
              guideline_id(GuidelineCategory::Metal, fam);
          const std::uint64_t pair_key =
              (static_cast<std::uint64_t>(
                   std::min(a.net.value(), b.net.value()))
               << 40) |
              (static_cast<std::uint64_t>(
                   std::max(a.net.value(), b.net.value()))
               << 8) |
              gid;
          if (!seen.insert(pair_key).second) continue;
          for (const BridgeType type : {BridgeType::DomAnd, BridgeType::DomOr}) {
            for (const bool victim_is_a : {true, false}) {
              Fault f;
              f.kind = FaultKind::Bridge;
              f.scope = FaultScope::External;
              f.victim = victim_is_a ? a.net : b.net;
              f.aggressor = victim_is_a ? b.net : a.net;
              f.bridge_type = type;
              f.guideline = gid;
              out.push_back(f);
            }
          }
        }
      }
    }
  }

  // ---- Density windows ----
  {
    // Per-gcell cell occupancy from the placement.
    const int gw = routes.grid_w, gh = routes.grid_h;
    const int gcell_sites = routes.options.gcell_sites *
                            routes.options.gcell_rows;
    std::vector<double> occupancy(static_cast<std::size_t>(gw) * gh, 0.0);
    for (GateId g : nl.live_gates()) {
      const auto& p = pl.of(g);
      if (!p.valid()) continue;
      const int gx = std::clamp(p.x / routes.options.gcell_sites, 0, gw - 1);
      const int gy = std::clamp(p.y / routes.options.gcell_rows, 0, gh - 1);
      occupancy[routes.cell(gx, gy)] +=
          static_cast<double>(nl.cell_of(g).width_sites) / gcell_sites;
    }
    // Nets present per gcell (deduplicated via last-writer check).
    std::vector<std::vector<NetId>> nets_in(static_cast<std::size_t>(gw) * gh);
    for (const RouteSegment& s : routes.segments) {
      for (int t = s.lo; t <= s.hi; ++t) {
        const int x = s.horizontal ? t : s.fixed;
        const int y = s.horizontal ? s.fixed : t;
        auto& bucket = nets_in[routes.cell(x, y)];
        if (bucket.empty() || bucket.back() != s.net) bucket.push_back(s.net);
      }
    }

    constexpr int kWindow = 4, kStride = 2;
    const double cap2 = 2.0 * routes.options.capacity_per_layer;
    for (int wy = 0; wy < gh; wy += kStride) {
      for (int wx = 0; wx < gw; wx += kStride) {
        const int x1 = std::min(wx + kWindow, gw);
        const int y1 = std::min(wy + kWindow, gh);
        double util = 0.0, wiring = 0.0;
        int cells = 0;
        std::unordered_map<std::uint32_t, int> net_gcells;
        for (int y = wy; y < y1; ++y) {
          for (int x = wx; x < x1; ++x) {
            const std::size_t c = routes.cell(x, y);
            util += occupancy[c];
            wiring += (routes.h_usage[c] + routes.v_usage[c]) / cap2;
            ++cells;
            for (NetId n : nets_in[c]) ++net_gcells[n.value()];
          }
        }
        if (cells == 0) continue;
        util /= cells;
        wiring /= cells;

        int fam_high = tightest_family(GuidelineCategory::Density, 0, 3, util);
        int fam_low =
            tightest_family_low(GuidelineCategory::Density, 4, 7, util);
        int fam_wiring =
            tightest_family(GuidelineCategory::Density, 8, 10, wiring);
        for (const int fam : {fam_high, fam_low, fam_wiring}) {
          if (fam < 0) continue;
          const std::uint16_t gid =
              guideline_id(GuidelineCategory::Density, fam);
          for (const auto& [net_value, count] : net_gcells) {
            if (count < 2) continue;  // only wires really inside the window
            push_pair(FaultKind::Transition, NetId{net_value}, gid);
          }
        }
      }
    }
  }

  return universe;
}

}  // namespace dfmres
