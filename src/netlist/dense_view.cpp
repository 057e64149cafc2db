#include "src/netlist/dense_view.hpp"

namespace dfmres {

DenseView DenseView::build(const Netlist& nl, const CombView& view) {
  DenseView dv;
  dv.net_slots = nl.net_capacity();
  dv.gate_slots = nl.gate_capacity();

  dv.cell.assign(dv.gate_slots, nullptr);
  dv.is_sequential.assign(dv.gate_slots, 0);
  dv.driver.assign(dv.net_slots, kNoDriver);
  dv.observe_flag.assign(dv.net_slots, 0);
  dv.is_primary_output.assign(dv.net_slots, 0);

  // Pin rows (two-pass CSR: count, prefix-sum, fill).
  dv.fanin_offset.assign(dv.gate_slots + 1, 0);
  dv.output_offset.assign(dv.gate_slots + 1, 0);
  for (std::uint32_t g = 0; g < dv.gate_slots; ++g) {
    if (!nl.gate_alive(GateId{g})) continue;
    const auto& gate = nl.gate(GateId{g});
    dv.cell[g] = &nl.cell_of(GateId{g});
    dv.is_sequential[g] = dv.cell[g]->sequential ? 1 : 0;
    dv.fanin_offset[g + 1] = static_cast<std::uint32_t>(gate.fanin.size());
    dv.output_offset[g + 1] = static_cast<std::uint32_t>(gate.outputs.size());
  }
  for (std::uint32_t g = 0; g < dv.gate_slots; ++g) {
    dv.fanin_offset[g + 1] += dv.fanin_offset[g];
    dv.output_offset[g + 1] += dv.output_offset[g];
  }
  dv.fanin_net.resize(dv.fanin_offset.back());
  dv.output_net.resize(dv.output_offset.back());
  for (std::uint32_t g = 0; g < dv.gate_slots; ++g) {
    if (dv.cell[g] == nullptr) continue;
    const auto& gate = nl.gate(GateId{g});
    std::uint32_t fi = dv.fanin_offset[g];
    for (NetId f : gate.fanin) dv.fanin_net[fi++] = f.value();
    std::uint32_t oi = dv.output_offset[g];
    for (NetId o : gate.outputs) dv.output_net[oi++] = o.value();
  }

  // Combinational fanout per net: CSR over the sink lists, filtered to
  // live combinational gates (the only sinks event propagation visits).
  dv.fanout_offset.assign(dv.net_slots + 1, 0);
  dv.net_alive.assign(dv.net_slots, 0);
  for (std::uint32_t n = 0; n < dv.net_slots; ++n) {
    if (!nl.net_alive(NetId{n})) continue;
    dv.net_alive[n] = 1;
    const auto& net = nl.net(NetId{n});
    if (net.has_gate_driver()) dv.driver[n] = net.driver_gate.value();
    std::uint32_t count = 0;
    for (const PinRef& sink : net.sinks) {
      const std::uint32_t gs = sink.gate.value();
      if (dv.cell[gs] != nullptr && !dv.is_sequential[gs]) ++count;
    }
    dv.fanout_offset[n + 1] = count;
  }
  for (std::uint32_t n = 0; n < dv.net_slots; ++n) {
    dv.fanout_offset[n + 1] += dv.fanout_offset[n];
  }
  dv.fanout_gate.resize(dv.fanout_offset.back());
  for (std::uint32_t n = 0; n < dv.net_slots; ++n) {
    if (!nl.net_alive(NetId{n})) continue;
    std::uint32_t fi = dv.fanout_offset[n];
    for (const PinRef& sink : nl.net(NetId{n}).sinks) {
      const std::uint32_t gs = sink.gate.value();
      if (dv.cell[gs] != nullptr && !dv.is_sequential[gs]) {
        dv.fanout_gate[fi++] = gs;
      }
    }
  }

  dv.order.reserve(view.order.size());
  for (GateId g : view.order) dv.order.push_back(g.value());
  dv.level = view.level;
  dv.num_levels = view.num_levels;
  dv.sources.reserve(view.sources.size());
  for (NetId s : view.sources) dv.sources.push_back(s.value());
  for (NetId obs : view.observe) dv.observe_flag[obs.value()] = 1;
  for (std::uint32_t n = 0; n < dv.net_slots; ++n) {
    if (nl.net_alive(NetId{n}) && nl.net(NetId{n}).is_primary_output) {
      dv.is_primary_output[n] = 1;
    }
  }
  return dv;
}

std::shared_ptr<const DenseView> DenseView::build_shared(const Netlist& nl,
                                                         const CombView& view) {
  return std::make_shared<const DenseView>(build(nl, view));
}

}  // namespace dfmres
