#pragma once

#include <cstdint>
#include <vector>

#include "src/library/cell.hpp"
#include "src/switchlevel/switch_sim.hpp"

namespace dfmres {

/// One detecting condition of a cell-internal defect, expressed at the
/// cell boundary (user-defined fault model / cell-aware style, paper
/// refs [9-11]). Fully specified input minterms; two-pattern entries
/// carry the initializing minterm of the previous cycle.
struct UdfmPattern {
  std::uint32_t inputs = 0;       ///< frame-1 cell input minterm
  std::uint32_t prev_inputs = 0;  ///< frame-0 minterm (two-pattern only)
  bool has_prev = false;
  std::uint8_t output = 0;        ///< observing cell output pin
  bool faulty_value = false;      ///< value the output takes when defective

  friend bool operator==(const UdfmPattern&, const UdfmPattern&) = default;
};

/// A cell-internal DFM fault: a physical defect plus every boundary
/// pattern that detects it. An empty pattern list means the defect is
/// undetectable at the cell level (it is still counted in F).
struct CellInternalFault {
  CellDefect defect;
  std::vector<UdfmPattern> patterns;

  friend bool operator==(const CellInternalFault&,
                         const CellInternalFault&) = default;
};

/// Internal-fault universe of one library cell; extracted once and reused
/// for every instance (paper Section I: every instance of a cell
/// introduces the same internal faults).
struct CellUdfm {
  std::vector<CellInternalFault> faults;

  [[nodiscard]] std::size_t num_faults() const { return faults.size(); }

  friend bool operator==(const CellUdfm&, const CellUdfm&) = default;
};

/// Enumerates the intra-cell defect sites anticipated by DFM guidelines
/// on the cell's transistor network: contact/via opens per device and
/// input pin, gate/channel shorts per device, output-rail shorts,
/// adjacent-internal-node bridges, and per-finger drive opens for
/// multi-finger (higher-drive) cells.
[[nodiscard]] std::vector<CellDefect> enumerate_cell_defects(
    const CellSpec& cell);

/// Runs switch-level simulation of every defect against every (pair of)
/// input pattern(s) and records the detecting UDFM entries. Sequential
/// and network-less cells yield an empty universe.
[[nodiscard]] CellUdfm extract_cell_udfm(const CellSpec& cell);

}  // namespace dfmres
