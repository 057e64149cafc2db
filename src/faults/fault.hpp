#pragma once

#include <cstdint>
#include <vector>

#include "src/util/ids.hpp"

namespace dfmres {

class Netlist;

/// Logic fault models the DFM violations translate to (paper Section II):
/// stuck-at and transition faults for opens, 4-way dominant bridges for
/// shorts between nets, and UDFM cell-aware faults for defects inside
/// standard cells.
enum class FaultKind : std::uint8_t { StuckAt, Transition, Bridge, CellAware };

enum class FaultScope : std::uint8_t { Internal, External };

/// Dominant bridge flavor: the aggressor forces the victim when it holds
/// the dominant value (wired-AND: 0 dominates; wired-OR: 1 dominates).
enum class BridgeType : std::uint8_t { DomAnd, DomOr };

struct Fault {
  FaultKind kind = FaultKind::StuckAt;
  FaultScope scope = FaultScope::External;
  /// StuckAt/Transition/Bridge: the faulted net. CellAware: the first
  /// output net of the owning gate (anchor for clustering; per-pattern
  /// victims come from the UDFM).
  NetId victim;
  /// StuckAt: stuck value. Transition: the value the net is stuck at
  /// during the failing transition (0 = slow-to-rise). Bridge: unused.
  bool value = false;
  NetId aggressor;                       ///< Bridge only
  BridgeType bridge_type = BridgeType::DomAnd;
  GateId owner;                          ///< CellAware: owning gate
  std::uint8_t cell_output = 0;          ///< CellAware anchor output pin
  std::uint32_t udfm_index = 0;          ///< CellAware: index into CellUdfm
  std::uint16_t guideline = 0;           ///< producing DFM guideline id

  /// Identity for status caching: everything that determines
  /// detectability (guideline id excluded — the same logical fault can be
  /// flagged by several guidelines).
  struct Key {
    std::uint8_t kind, bridge_type;
    std::uint32_t victim, aggressor, owner, udfm_index;
    bool value;

    friend bool operator==(const Key&, const Key&) = default;
  };
  [[nodiscard]] Key key() const {
    return {static_cast<std::uint8_t>(kind),
            static_cast<std::uint8_t>(bridge_type),
            victim.value(),
            aggressor.value(),
            owner.value(),
            udfm_index,
            value};
  }
};

/// Gates that *correspond* to a fault (paper Section II): the owner for
/// an internal fault; the driver and sinks of the victim net (and the
/// aggressor net for bridges) for an external fault.
[[nodiscard]] std::vector<GateId> corresponding_gates(const Fault& fault,
                                                      const Netlist& nl);

/// The complete DFM fault universe of one placed-and-routed netlist.
struct FaultUniverse {
  std::vector<Fault> faults;

  [[nodiscard]] std::size_t size() const { return faults.size(); }
  [[nodiscard]] std::size_t count_internal() const;
  [[nodiscard]] std::size_t count_external() const;
  /// Faults per guideline id (index = guideline id).
  [[nodiscard]] std::vector<std::size_t> per_guideline(
      std::size_t num_guidelines) const;
};

}  // namespace dfmres
