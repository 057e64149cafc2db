#pragma once

#include "src/dfm/guidelines.hpp"
#include "src/faults/fault.hpp"
#include "src/faults/udfm_map.hpp"
#include "src/place/placement.hpp"
#include "src/route/router.hpp"

namespace dfmres {

/// Number of internal DFM faults one instance of `cell` contributes (the
/// selected subset of its enumerated defect sites). This is the quantity
/// the resynthesis procedure orders library cells by (Section III-B).
[[nodiscard]] std::size_t internal_fault_count(const Library& lib,
                                               const UdfmMap& udfm,
                                               CellId cell);

/// Internal (cell-aware) faults only — the layout-independent part of
/// the universe, used to gate PDesign() during resynthesis (paper
/// Section III-B: internal faults depend only on which cells are used).
[[nodiscard]] FaultUniverse extract_internal_faults(const Netlist& nl,
                                                    const UdfmMap& udfm);

/// Scans the placed-and-routed design against all 59 DFM guidelines and
/// translates every violation into logic faults:
///  - intra-cell violations -> cell-aware (UDFM) internal faults,
///  - via opens / weak vias  -> stuck-at and transition faults,
///  - metal spacing runs     -> 4-way dominant bridge faults,
///  - density windows        -> transition faults on crossing nets.
/// External faults are listed once per (net, guideline) target — once
/// per (net pair, guideline) for bridges — however many physical sites
/// violate it. Only charge-sharing-masked intra-cell sites repeat, once
/// per co-violated guideline of their family; ATPG collapses those
/// duplicates by fault key.
///
/// The order is canonical: a function of net ids and geometry only, so
/// equal inputs give the same universe fault for fault. Sections come
/// in this order: internal faults (live gates in id order), vias (in
/// `routes.vias` order), per-net rules (live nets in id order), bridges
/// by (lower net id, higher net id, guideline), density. Density windows
/// go row-major from the origin, and each firing rule emits the window's
/// nets by ascending id. A (net, guideline) target is listed where it
/// first occurs. Only this order is the implementation's choice: which
/// faults are emitted, and how many times, is fixed by the rules above,
/// and any rewrite of the scan must emit the same multiset
/// (tests/dfm_test.cpp pins it).
[[nodiscard]] FaultUniverse extract_dfm_faults(const Netlist& nl,
                                               const Placement& pl,
                                               const RoutingResult& routes,
                                               const UdfmMap& udfm);

}  // namespace dfmres
