#include "src/dfm/checker.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace dfmres {

namespace {

static_assert(kNumGuidelines <= 64,
              "the (net, guideline) dedupe keeps one 64-bit mask per net");

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

/// Metal-category family of a parallel run of `overlap` gcells between
/// adjacent tracks (guidelines 18-23), or -1. Tabulated once up to the
/// largest threshold, past which the tightest family no longer changes.
int parallel_run_family(int overlap) {
  static const std::vector<int> table = [] {
    const auto guidelines = all_guidelines();
    int top = 0;
    for (int i = 18; i <= 23; ++i) {
      const double threshold =
          guidelines[guideline_id(GuidelineCategory::Metal, i)].threshold;
      top = std::max(top, static_cast<int>(std::ceil(threshold)));
    }
    std::vector<int> t(static_cast<std::size_t>(top) + 1);
    for (int o = 0; o <= top; ++o) {
      t[o] = tightest_family(GuidelineCategory::Metal, 18, 23, o);
    }
    return t;
  }();
  return table[std::clamp(overlap, 0, static_cast<int>(table.size()) - 1)];
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
  const std::size_t net_slots = routes.nets.size();

  // Multiple physical sites can violate the same guideline on the same
  // net; the fault list (like a production ATPG fault list) carries one
  // logic fault per distinct (net, guideline) target.
  std::vector<std::uint64_t> net_guidelines(net_slots, 0);
  const auto push_pair = [&](FaultKind kind, NetId net,
                             std::uint16_t guideline) {
    std::uint64_t& mask = net_guidelines[net.value()];
    const std::uint64_t bit = std::uint64_t{1} << guideline;
    if (mask & bit) return;
    mask |= bit;
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

  const int gw = routes.grid_w, gh = routes.grid_h;
  const auto& segs = routes.segments;

  // ---- Metal parallel-run bridges ----
  {
    // Segments bucketed by (line, track) as CSR. Vertical lines come
    // first, by column, then horizontal lines, by row; a bucket holds
    // one track of one line, ordered by (lo, index). Only adjacent
    // tracks can bridge, so each line compares bucket t with t + 1.
    const int tracks = routes.options.capacity_per_layer;
    const std::size_t num_buckets =
        static_cast<std::size_t>(gw + gh) * tracks;
    std::vector<std::uint32_t> bucket_start(num_buckets + 1, 0);
    std::vector<std::uint32_t> bucket_of(segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const RouteSegment& s = segs[i];
      assert(s.fixed >= 0 && s.fixed < (s.horizontal ? gh : gw));
      const int line = s.horizontal ? gw + s.fixed : s.fixed;
      bucket_of[i] = static_cast<std::uint32_t>(line * tracks +
                                                routes.track_of(s.net));
      ++bucket_start[bucket_of[i] + 1];
    }
    std::partial_sum(bucket_start.begin(), bucket_start.end(),
                     bucket_start.begin());
    std::vector<std::uint32_t> by_bucket(segs.size());
    {
      std::vector<std::uint32_t> fill(bucket_start.begin(),
                                      bucket_start.end() - 1);
      for (std::size_t i = 0; i < segs.size(); ++i) {
        by_bucket[fill[bucket_of[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
    const auto before = [&](std::uint32_t x, std::uint32_t y) {
      return segs[x].lo != segs[y].lo ? segs[x].lo < segs[y].lo : x < y;
    };
    for (std::size_t b = 0; b < num_buckets; ++b) {
      std::sort(by_bucket.begin() + bucket_start[b],
                by_bucket.begin() + bucket_start[b + 1], before);
    }

    // Bridge targets, one per (net pair, guideline) however many lines
    // or runs violate it: collected, then sorted and deduplicated.
    struct BridgeTarget {
      std::uint64_t nets;  ///< lower net id << 32 | higher net id
      std::uint16_t guideline;
      bool operator==(const BridgeTarget&) const = default;
      bool operator<(const BridgeTarget& o) const {
        return nets != o.nets ? nets < o.nets : guideline < o.guideline;
      }
    };
    std::vector<BridgeTarget> targets;
    const auto add_target = [&](const RouteSegment& a, const RouteSegment& b) {
      const int overlap = std::min(a.hi, b.hi) - std::max(a.lo, b.lo) + 1;
      const int fam = parallel_run_family(overlap);
      if (fam < 0) return;
      const std::uint64_t low = std::min(a.net.value(), b.net.value());
      const std::uint64_t high = std::max(a.net.value(), b.net.value());
      targets.push_back({low << 32 | high,
                         guideline_id(GuidelineCategory::Metal, fam)});
    };
    // Two adjacent tracks are walked in merged (lo, index) order; each
    // segment is paired with the other track's later segments that
    // start inside it, so every overlapping pair is met exactly once,
    // from its earlier segment.
    for (std::size_t line_first = 0; line_first < num_buckets;
         line_first += tracks) {
      for (int t = 0; t + 1 < tracks; ++t) {
        std::uint32_t i = bucket_start[line_first + t];
        std::uint32_t j = bucket_start[line_first + t + 1];
        const std::uint32_t i_end = j;
        const std::uint32_t j_end = bucket_start[line_first + t + 2];
        while (i < i_end && j < j_end) {
          const bool in_t = before(by_bucket[i], by_bucket[j]);
          const RouteSegment& a = segs[in_t ? by_bucket[i] : by_bucket[j]];
          const std::uint32_t other_end = in_t ? j_end : i_end;
          for (std::uint32_t k = in_t ? j : i;
               k < other_end && segs[by_bucket[k]].lo <= a.hi; ++k) {
            add_target(a, segs[by_bucket[k]]);
          }
          ++(in_t ? i : j);
        }
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (const BridgeTarget& t : targets) {
      const NetId low{static_cast<std::uint32_t>(t.nets >> 32)};
      const NetId high{static_cast<std::uint32_t>(t.nets)};
      for (const BridgeType type : {BridgeType::DomAnd, BridgeType::DomOr}) {
        for (const bool victim_low : {true, false}) {
          Fault f;
          f.kind = FaultKind::Bridge;
          f.scope = FaultScope::External;
          f.victim = victim_low ? low : high;
          f.aggressor = victim_low ? high : low;
          f.bridge_type = type;
          f.guideline = t.guideline;
          out.push_back(f);
        }
      }
    }
  }

  // ---- Density windows ----
  {
    // Per-gcell cell occupancy from the placement.
    const int gcell_sites = routes.options.gcell_sites *
                            routes.options.gcell_rows;
    const std::size_t num_gcells = static_cast<std::size_t>(gw) * gh;
    std::vector<double> occupancy(num_gcells, 0.0);
    for (GateId g : nl.live_gates()) {
      const auto& p = pl.of(g);
      if (!p.valid()) continue;
      const int gx = std::clamp(p.x / routes.options.gcell_sites, 0, gw - 1);
      const int gy = std::clamp(p.y / routes.options.gcell_rows, 0, gh - 1);
      occupancy[routes.cell(gx, gy)] +=
          static_cast<double>(nl.cell_of(g).width_sites) / gcell_sites;
    }
    // Nets present per gcell as CSR. A net is listed again only after
    // another net has written the gcell (last-writer dedupe), so a net
    // interleaved with others along one gcell counts more than once.
    // Both passes walk the segments identically.
    constexpr std::uint32_t kNoWriter = ~std::uint32_t{0};
    std::vector<std::uint32_t> last_writer(num_gcells, kNoWriter);
    std::vector<std::uint32_t> gcell_start(num_gcells + 1, 0);
    const auto for_each_listing = [&](auto&& visit) {
      for (const RouteSegment& s : segs) {
        for (int t = s.lo; t <= s.hi; ++t) {
          const std::size_t c = s.horizontal ? routes.cell(t, s.fixed)
                                             : routes.cell(s.fixed, t);
          if (last_writer[c] == s.net.value()) continue;
          last_writer[c] = s.net.value();
          visit(c, s.net.value());
        }
      }
    };
    for_each_listing(
        [&](std::size_t c, std::uint32_t) { ++gcell_start[c + 1]; });
    std::partial_sum(gcell_start.begin(), gcell_start.end(),
                     gcell_start.begin());
    std::vector<std::uint32_t> gcell_nets(gcell_start[num_gcells]);
    {
      std::vector<std::uint32_t> fill(gcell_start.begin(),
                                      gcell_start.end() - 1);
      std::fill(last_writer.begin(), last_writer.end(), kNoWriter);
      for_each_listing([&](std::size_t c, std::uint32_t net) {
        gcell_nets[fill[c]++] = net;
      });
    }

    // Per-window net counts saturate at two, so they are two dense
    // bitmaps over net ids: listed once, and listed at least twice.
    const std::size_t words = (net_slots + 63) / 64;
    std::vector<std::uint64_t> listed_once(words), listed_twice(words);
    std::vector<std::uint32_t> inside;
    constexpr int kWindow = 4, kStride = 2;
    const double cap2 = 2.0 * routes.options.capacity_per_layer;
    for (int wy = 0; wy < gh; wy += kStride) {
      for (int wx = 0; wx < gw; wx += kStride) {
        const int x1 = std::min(wx + kWindow, gw);
        const int y1 = std::min(wy + kWindow, gh);
        double util = 0.0, wiring = 0.0;
        int cells = 0;
        for (int y = wy; y < y1; ++y) {
          for (int x = wx; x < x1; ++x) {
            const std::size_t c = routes.cell(x, y);
            util += occupancy[c];
            wiring += (routes.h_usage[c] + routes.v_usage[c]) / cap2;
            ++cells;
          }
        }
        util /= cells;
        wiring /= cells;

        const int fams[] = {
            tightest_family(GuidelineCategory::Density, 0, 3, util),
            tightest_family_low(GuidelineCategory::Density, 4, 7, util),
            tightest_family(GuidelineCategory::Density, 8, 10, wiring)};
        if (fams[0] < 0 && fams[1] < 0 && fams[2] < 0) continue;

        // Only wires really inside the window (listed in >= 2 of its
        // gcells) are faulted, in ascending net id order.
        for (int y = wy; y < y1; ++y) {
          for (int x = wx; x < x1; ++x) {
            const std::size_t c = routes.cell(x, y);
            for (std::uint32_t k = gcell_start[c]; k < gcell_start[c + 1];
                 ++k) {
              const std::uint32_t n = gcell_nets[k];
              const std::uint64_t bit = std::uint64_t{1} << (n & 63);
              listed_twice[n >> 6] |= listed_once[n >> 6] & bit;
              listed_once[n >> 6] |= bit;
            }
          }
        }
        inside.clear();
        for (std::size_t w = 0; w < words; ++w) {
          listed_once[w] = 0;
          for (std::uint64_t bits = std::exchange(listed_twice[w], 0);
               bits != 0; bits &= bits - 1) {
            inside.push_back(static_cast<std::uint32_t>(
                w * 64 + std::countr_zero(bits)));
          }
        }
        for (const int fam : fams) {
          if (fam < 0) continue;
          const std::uint16_t gid =
              guideline_id(GuidelineCategory::Density, fam);
          for (const std::uint32_t n : inside) {
            push_pair(FaultKind::Transition, NetId{n}, gid);
          }
        }
      }
    }
  }

  return universe;
}

}  // namespace dfmres
