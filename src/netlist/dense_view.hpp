#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace dfmres {

/// Structure-of-arrays snapshot of the hot netlist data the fault
/// simulator and the event-driven propagation walk touch: gate pin
/// connectivity and combinational fanout as CSR adjacency, per-gate cell
/// specs, topological order and levels, and per-net observability flags —
/// all indexed by the netlist's stable dense slot ids (gates and nets are
/// never renumbered by removal, so a slot means the same object in every
/// view built over descendants of one netlist).
///
/// A DenseView is immutable and self-contained after build(): it holds
/// no pointers into the Netlist it was built from (CellSpec pointers
/// target the shared Library, which outlives every view), so it can be
/// shared across simulator instances and outlive netlist copies. This is
/// what lets a committed baseline's good-value frames be reused by
/// speculative probes: the probe diffs its own view against the
/// baseline's view slot by slot (see build_cow_plan in atpg/fault_sim).
struct DenseView {
  static constexpr std::uint32_t kNoDriver = 0xFFFFFFFFu;

  std::size_t net_slots = 0;   ///< netlist.net_capacity() at build
  std::size_t gate_slots = 0;  ///< netlist.gate_capacity() at build

  // CSR: combinational sink gates per net slot (sequential sinks are
  // excluded — full-scan frames are independent, so propagation stops
  // at flop boundaries, exactly as the event walk wants it).
  std::vector<std::uint32_t> fanout_offset;  ///< net_slots + 1
  std::vector<std::uint32_t> fanout_gate;

  // CSR: pin rows over every gate slot (dead slots have empty rows).
  // Rows cover sequential gates too so a structural diff between two
  // views sees every kind of edit.
  std::vector<std::uint32_t> fanin_offset;   ///< gate_slots + 1
  std::vector<std::uint32_t> fanin_net;
  std::vector<std::uint32_t> output_offset;  ///< gate_slots + 1
  std::vector<std::uint32_t> output_net;

  std::vector<const CellSpec*> cell;        ///< per gate slot; null = dead
  std::vector<std::uint8_t> is_sequential;  ///< per gate slot
  std::vector<std::uint32_t> driver;        ///< per net slot; kNoDriver = none

  std::vector<std::uint32_t> order;  ///< comb gate slots, topological
  std::vector<std::uint32_t> level;  ///< per gate slot (CombView::level)
  std::size_t num_levels = 0;        ///< CombView::num_levels

  std::vector<std::uint8_t> net_alive;         ///< per net slot

  std::vector<std::uint32_t> sources;          ///< net slots (PIs + DFF Q)
  std::vector<std::uint8_t> observe_flag;      ///< per net slot
  std::vector<std::uint8_t> is_primary_output; ///< per net slot

  [[nodiscard]] static DenseView build(const Netlist& nl,
                                       const CombView& view);
  /// build() wrapped in a shared_ptr — the form the simulator arena and
  /// the probe-baseline machinery share.
  [[nodiscard]] static std::shared_ptr<const DenseView> build_shared(
      const Netlist& nl, const CombView& view);
};

}  // namespace dfmres
