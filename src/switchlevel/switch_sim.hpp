#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/library/transistor.hpp"

namespace dfmres {

/// Four-valued node state of a switch-level simulation.
enum class SwitchValue : std::uint8_t { Zero, One, X, Z };

/// Physical defect inside a standard cell, expressed on its transistor
/// network. These are the defect mechanisms DFM guidelines anticipate:
/// contact/via opens, gate/channel shorts, and metal bridges.
enum class DefectKind : std::uint8_t {
  TransistorStuckOpen,  ///< drain/source contact open: device never conducts
  TransistorStuckOn,    ///< gate-oxide / channel short: device always conducts
  PinOpen,              ///< input-pin contact open: gated devices float (X)
  NodeShortToVdd,       ///< node bridged to the supply rail
  NodeShortToGnd,       ///< node bridged to ground
  NodeBridge,           ///< two cell-internal nodes bridged
  DriveFingerOpen,      ///< one drive finger open: weak (slow) output
};

struct CellDefect {
  DefectKind kind;
  std::uint16_t a = 0;  ///< transistor index, pin index, or first node
  std::uint16_t b = 0;  ///< second node for NodeBridge

  friend bool operator==(const CellDefect&, const CellDefect&) = default;
};

/// Conservative switch-level simulator for static CMOS cell networks.
///
/// Semantics:
///  - A node definitely connected to exactly one rail takes that value.
///  - A node definitely connected to both rails (a fight) is X: the
///    voltage is ratio-dependent. UDFM extraction treats such an X as a
///    worst-case detection (faulty value = complement of good), matching
///    the usual cell-aware handling of stuck-on/bridge defects.
///  - A node whose rail connectivity depends on an X/floating gate is X.
///  - An isolated node retains its previous value when one is supplied
///    (charge retention, needed for two-pattern stuck-open detection),
///    otherwise it is Z.
///
/// Thread safety: eval() may run concurrently, on one SwitchSim or on
/// many. Its working buffers (node representatives, CSR device
/// adjacency, reach flags, BFS stack) are thread_local and reused from
/// call to call, so once a thread's buffers have grown to the largest
/// cell, the output-parameter eval() allocates nothing.
class SwitchSim {
 public:
  explicit SwitchSim(const TransistorNetwork& network);

  /// Evaluates the network for a fully specified input pattern (bit k of
  /// `pattern` = input pin k). `defect` may be null (good machine).
  /// `prev` (optional) supplies per-node retained charge from a previous
  /// evaluation. Returns all node values; read outputs via
  /// network().output_nodes.
  [[nodiscard]] std::vector<SwitchValue> eval(
      std::uint32_t pattern, const CellDefect* defect = nullptr,
      std::span<const SwitchValue> prev = {}) const;

  /// As above, writing the node values into `out` (resized to the node
  /// count).
  void eval(std::uint32_t pattern, const CellDefect* defect,
            std::span<const SwitchValue> prev,
            std::vector<SwitchValue>& out) const;

  [[nodiscard]] const TransistorNetwork& network() const { return network_; }

 private:
  const TransistorNetwork& network_;
};

}  // namespace dfmres
