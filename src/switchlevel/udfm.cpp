#include "src/switchlevel/udfm.hpp"

#include <algorithm>
#include <bit>
#include <optional>

namespace dfmres {

namespace {

bool is_input_node(const TransistorNetwork& nw, std::uint16_t node) {
  return std::find(nw.input_nodes.begin(), nw.input_nodes.end(), node) !=
         nw.input_nodes.end();
}

/// Boolean view of a switch value, if defined.
std::optional<bool> as_bool(SwitchValue v) {
  switch (v) {
    case SwitchValue::Zero: return false;
    case SwitchValue::One: return true;
    default: return std::nullopt;
  }
}

}  // namespace

std::vector<CellDefect> enumerate_cell_defects(const CellSpec& cell) {
  std::vector<CellDefect> defects;
  const TransistorNetwork& nw = cell.network;
  if (nw.empty() || cell.sequential) return defects;

  // Contact opens and channel shorts, one pair per device.
  for (std::uint16_t t = 0; t < nw.transistors.size(); ++t) {
    defects.push_back({DefectKind::TransistorStuckOpen, t, 0});
    defects.push_back({DefectKind::TransistorStuckOn, t, 0});
  }
  // Poly contact open per input pin.
  for (std::uint16_t pin = 0; pin < nw.input_nodes.size(); ++pin) {
    defects.push_back({DefectKind::PinOpen, pin, 0});
  }
  // Output-to-rail shorts per output pin.
  for (std::uint16_t out : nw.output_nodes) {
    defects.push_back({DefectKind::NodeShortToVdd, out, 0});
    defects.push_back({DefectKind::NodeShortToGnd, out, 0});
  }
  // Bridges between index-adjacent internal/output nodes, a proxy for
  // layout adjacency inside the cell. Pairs already joined by a device
  // channel are covered by TransistorStuckOn and skipped.
  for (std::uint16_t a = 2; a + 1 < nw.num_nodes; ++a) {
    const std::uint16_t b = a + 1;
    if (is_input_node(nw, a) || is_input_node(nw, b)) continue;
    const bool channel_pair = std::any_of(
        nw.transistors.begin(), nw.transistors.end(), [&](const Transistor& tr) {
          return (tr.source_node == a && tr.drain_node == b) ||
                 (tr.source_node == b && tr.drain_node == a);
        });
    if (!channel_pair) defects.push_back({DefectKind::NodeBridge, a, b});
  }
  // Extra contact sites per additional drive finger.
  for (std::uint16_t f = 1; f < cell.drive_fingers; ++f) {
    defects.push_back({DefectKind::DriveFingerOpen, f, 0});
  }
  return defects;
}

CellUdfm extract_cell_udfm(const CellSpec& cell) {
  CellUdfm udfm;
  const TransistorNetwork& nw = cell.network;
  if (nw.empty() || cell.sequential) return udfm;

  const SwitchSim sim(nw);
  const auto num_patterns = std::uint32_t{1} << cell.num_inputs;

  // Good-machine outputs per pattern (from the network, which tests verify
  // against the cell truth tables separately).
  std::vector<std::vector<SwitchValue>> good(num_patterns);
  for (std::uint32_t p = 0; p < num_patterns; ++p) {
    sim.eval(p, nullptr, {}, good[p]);
  }

  // Per-defect buffers, reused across defects.
  std::vector<std::vector<SwitchValue>> faulty(num_patterns);
  std::vector<SwitchValue> seq;

  for (const CellDefect& defect : enumerate_cell_defects(cell)) {
    CellInternalFault fault{defect, {}};

    if (defect.kind == DefectKind::DriveFingerOpen) {
      // One open finger of a multi-finger driver only weakens the drive:
      // the output still reaches the right rail, just slower. Static
      // scan patterns cannot detect it (it needs an at-speed test under
      // worst-case load), so the fault carries no UDFM patterns and is
      // undetectable wherever the cell is used -- until resynthesis
      // replaces the high-drive cell with a smaller one.
      udfm.faults.push_back(std::move(fault));
      continue;
    }

    // Static (single-pattern) detections. An X at the output under a
    // defined good value (a rail fight or floating-gate ambiguity) is
    // taken as a worst-case detection at the complement of the good
    // value, the standard cell-aware treatment of stuck-on and bridge
    // defects.
    std::vector<std::vector<bool>> static_detect(
        cell.num_outputs, std::vector<bool>(num_patterns, false));
    for (std::uint32_t p = 0; p < num_patterns; ++p) {
      sim.eval(p, &defect, {}, faulty[p]);
      for (std::uint8_t out = 0; out < cell.num_outputs; ++out) {
        const std::uint16_t node = nw.output_nodes[out];
        const auto fv = as_bool(faulty[p][node]);
        const auto gv = as_bool(good[p][node]);
        if (!gv) continue;
        const bool x_detect = faulty[p][node] == SwitchValue::X;
        if ((fv && *fv != *gv) || x_detect) {
          fault.patterns.push_back({p, 0, false, out, !*gv});
          static_detect[out][p] = true;
        }
      }
    }

    // Two-pattern detections (charge retention), for patterns that are not
    // already statically detecting. The initializing pattern must resolve
    // the faulty machine (no Z) so the retained state is known.
    for (std::uint32_t p0 = 0; p0 < num_patterns; ++p0) {
      const bool initialized = std::none_of(
          faulty[p0].begin(), faulty[p0].end(),
          [](SwitchValue v) { return v == SwitchValue::Z; });
      if (!initialized) continue;
      for (std::uint32_t p1 = 0; p1 < num_patterns; ++p1) {
        if (p1 == p0) continue;
        // Robust two-pattern tests only: a single input transitions, the
        // way production cell-aware UDFMs qualify open defects. This is
        // what makes internal-fault detection conditions strict.
        if (std::popcount(p0 ^ p1) != 1) continue;
        sim.eval(p1, &defect, faulty[p0], seq);
        for (std::uint8_t out = 0; out < cell.num_outputs; ++out) {
          if (static_detect[out][p1]) continue;
          const std::uint16_t node = nw.output_nodes[out];
          const auto fv = as_bool(seq[node]);
          const auto gv = as_bool(good[p1][node]);
          if (!gv) continue;
          if (fv && *fv != *gv) {
            fault.patterns.push_back({p1, p0, true, out, *fv});
          }
        }
      }
    }
    udfm.faults.push_back(std::move(fault));
  }
  return udfm;
}

}  // namespace dfmres
