#include "src/netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include "src/util/fmt.hpp"
#include "src/util/status.hpp"

#include "src/util/logging.hpp"

namespace dfmres {

Netlist::Netlist(std::shared_ptr<const Library> lib, std::string name)
    : lib_(std::move(lib)), name_(std::move(name)) {
  assert(lib_ != nullptr);
}

NetId Netlist::add_primary_input(std::string name) {
  const NetId id{static_cast<std::uint32_t>(nets_.size())};
  Net net;
  net.is_primary_input = true;
  nets_.push_back(std::move(net));
  ++live_nets_;
  primary_inputs_.push_back(id);
  input_names_.push_back(name.empty() ? strfmt("pi%u", id.value())
                                      : std::move(name));
  return id;
}

NetId Netlist::add_net() {
  const NetId id{static_cast<std::uint32_t>(nets_.size())};
  nets_.emplace_back();
  ++live_nets_;
  return id;
}

void Netlist::mark_primary_output(NetId net) {
  assert(net_alive(net));
  nets_[net.value()].is_primary_output = true;
  primary_outputs_.push_back(net);
}

GateId Netlist::add_gate(CellId cell, std::span<const NetId> fanins) {
  const CellSpec& spec = lib_->cell(cell);
  std::vector<NetId> outputs;
  outputs.reserve(spec.num_outputs);
  for (int k = 0; k < spec.num_outputs; ++k) outputs.push_back(add_net());
  return add_gate_driving(cell, fanins, outputs);
}

GateId Netlist::add_gate_driving(CellId cell, std::span<const NetId> fanins,
                                 std::span<const NetId> outputs) {
  [[maybe_unused]] const CellSpec& spec = lib_->cell(cell);
  assert(fanins.size() == spec.num_inputs);
  assert(outputs.size() == spec.num_outputs);
  const GateId id{static_cast<std::uint32_t>(gates_.size())};
  Gate gate;
  gate.cell = cell;
  gate.fanin.assign(fanins.begin(), fanins.end());
  gate.outputs.assign(outputs.begin(), outputs.end());
  for (std::uint16_t pin = 0; pin < fanins.size(); ++pin) {
    assert(net_alive(fanins[pin]));
    nets_[fanins[pin].value()].sinks.push_back({id, pin});
  }
  for (std::uint16_t k = 0; k < outputs.size(); ++k) {
    Net& out = nets_[outputs[k].value()];
    assert(!out.dead && !out.has_gate_driver() && !out.is_primary_input);
    out.driver_gate = id;
    out.driver_pin = k;
  }
  gates_.push_back(std::move(gate));
  ++live_gates_;
  return id;
}

void Netlist::detach_sink(NetId net, PinRef pin) {
  auto& sinks = nets_[net.value()].sinks;
  auto it = std::find(sinks.begin(), sinks.end(), pin);
  assert(it != sinks.end());
  *it = sinks.back();
  sinks.pop_back();
}

void Netlist::remove_gate(GateId id) {
  assert(gate_alive(id));
  Gate& gate = gates_[id.value()];
  for (std::uint16_t pin = 0; pin < gate.fanin.size(); ++pin) {
    detach_sink(gate.fanin[pin], {id, pin});
  }
  for (NetId out : gate.outputs) {
    Net& net = nets_[out.value()];
    net.driver_gate = GateId::invalid();
    net.driver_pin = 0;
    if (net.sinks.empty() && !net.is_primary_output) {
      net.dead = true;
      --live_nets_;
    }
  }
  gate.dead = true;
  gate.fanin.clear();
  gate.outputs.clear();
  --live_gates_;
}

void Netlist::remove_net(NetId id) {
  assert(net_alive(id));
  Net& net = nets_[id.value()];
  assert(net.sinks.empty() && !net.has_gate_driver() &&
         !net.is_primary_input && !net.is_primary_output);
  net.dead = true;
  --live_nets_;
}

void Netlist::rewire_fanin(GateId gate_id, int pin, NetId net) {
  assert(gate_alive(gate_id) && net_alive(net));
  Gate& gate = gates_[gate_id.value()];
  const auto upin = static_cast<std::uint16_t>(pin);
  detach_sink(gate.fanin[upin], {gate_id, upin});
  gate.fanin[upin] = net;
  nets_[net.value()].sinks.push_back({gate_id, upin});
}

void Netlist::retype_gate(GateId gate_id, CellId cell) {
  assert(gate_alive(gate_id));
  Gate& gate = gates_[gate_id.value()];
  [[maybe_unused]] const CellSpec& spec = lib_->cell(cell);
  assert(gate.fanin.size() == spec.num_inputs &&
         gate.outputs.size() == spec.num_outputs);
  gate.cell = cell;
}

void Netlist::merge_net_into(NetId victim, NetId target) {
  assert(net_alive(victim) && net_alive(target) && victim != target);
  Net& v = nets_[victim.value()];
  assert(!v.has_gate_driver() && !v.is_primary_input);
  // Rewire sinks (copy: rewire_fanin mutates the sink list).
  const std::vector<PinRef> sinks = v.sinks;
  for (const PinRef& sink : sinks) {
    rewire_fanin(sink.gate, sink.pin, target);
  }
  if (v.is_primary_output) {
    for (NetId& po : primary_outputs_) {
      if (po == victim) po = target;
    }
    nets_[target.value()].is_primary_output = true;
    v.is_primary_output = false;
  }
  v.dead = true;
  --live_nets_;
}

std::vector<GateId> Netlist::live_gates() const {
  std::vector<GateId> out;
  out.reserve(live_gates_);
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    if (!gates_[i].dead) out.emplace_back(i);
  }
  return out;
}

std::vector<NetId> Netlist::live_nets() const {
  std::vector<NetId> out;
  out.reserve(live_nets_);
  for (std::uint32_t i = 0; i < nets_.size(); ++i) {
    if (!nets_[i].dead) out.emplace_back(i);
  }
  return out;
}

double Netlist::total_area() const {
  double area = 0.0;
  for (const Gate& g : gates_) {
    if (!g.dead) area += lib_->cell(g.cell).area_um2;
  }
  return area;
}

std::vector<GateId> Netlist::kahn_order(std::size_t& num_comb) const {
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::vector<GateId> ready;
  num_comb = 0;
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.dead || lib_->cell(g.cell).sequential) continue;
    ++num_comb;
    std::uint32_t unresolved = 0;
    for (NetId in : g.fanin) {
      const Net& net = nets_[in.value()];
      if (net.has_gate_driver() &&
          !lib_->cell(gates_[net.driver_gate.value()].cell).sequential) {
        ++unresolved;
      }
    }
    pending[i] = unresolved;
    if (unresolved == 0) ready.emplace_back(i);
  }

  std::vector<GateId> order;
  order.reserve(num_comb);
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    order.push_back(g);
    for (NetId out : gates_[g.value()].outputs) {
      for (const PinRef& sink : nets_[out.value()].sinks) {
        const Gate& sg = gates_[sink.gate.value()];
        if (sg.dead || lib_->cell(sg.cell).sequential) continue;
        if (--pending[sink.gate.value()] == 0) ready.push_back(sink.gate);
      }
    }
  }
  return order;
}

std::vector<GateId> Netlist::topological_order() const {
  std::size_t num_comb = 0;
  std::vector<GateId> order = kahn_order(num_comb);
  if (order.size() != num_comb) {
    // Unreachable for validated netlists: validate() reports cycles, and
    // every construction path (parser, mapper, builder, resynthesis
    // splice) validates or rejects cycles before this is called.
    fatal_invariant(
        "netlist '%s': combinational cycle detected (%zu of %zu ordered)",
        name_.c_str(), order.size(), num_comb);
  }
  return order;
}

bool Netlist::has_combinational_cycle() const {
  std::size_t num_comb = 0;
  return kahn_order(num_comb).size() != num_comb;
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> problems;
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.dead) continue;
    const CellSpec& spec = lib_->cell(g.cell);
    if (g.fanin.size() != spec.num_inputs) {
      problems.push_back(strfmt("gate %u (%s): %zu fanins, expected %d",
                                  i, spec.name.c_str(), g.fanin.size(),
                                  int(spec.num_inputs)));
    }
    for (std::uint16_t pin = 0; pin < g.fanin.size(); ++pin) {
      const NetId in = g.fanin[pin];
      if (!net_alive(in)) {
        problems.push_back(strfmt("gate %u pin %u: dead fanin net %u", i,
                                  pin, in.value()));
        continue;
      }
      const auto& sinks = nets_[in.value()].sinks;
      if (std::find(sinks.begin(), sinks.end(), PinRef{GateId{i}, pin}) ==
          sinks.end()) {
        problems.push_back(
            strfmt("gate %u pin %u: missing back-reference on net %u", i,
                   pin, in.value()));
      }
    }
    for (std::uint16_t k = 0; k < g.outputs.size(); ++k) {
      const NetId out = g.outputs[k];
      if (!net_alive(out)) {
        problems.push_back(
            strfmt("gate %u output %u: dead net %u", i, k, out.value()));
        continue;
      }
      const Net& net = nets_[out.value()];
      if (net.driver_gate != GateId{i} || net.driver_pin != k) {
        problems.push_back(strfmt(
            "gate %u output %u: net %u driver mismatch", i, k, out.value()));
      }
    }
  }
  for (std::uint32_t i = 0; i < nets_.size(); ++i) {
    const Net& net = nets_[i];
    if (net.dead) continue;
    if (!net.is_primary_input && !net.has_gate_driver()) {
      problems.push_back(strfmt("net %u: undriven", i));
    }
    for (const PinRef& sink : net.sinks) {
      if (!gate_alive(sink.gate)) {
        problems.push_back(strfmt("net %u: dead sink gate %u", i,
                                  sink.gate.value()));
      } else if (gates_[sink.gate.value()].fanin[sink.pin] != NetId{i}) {
        problems.push_back(
            strfmt("net %u: sink (%u, %u) does not point back", i,
                   sink.gate.value(), sink.pin));
      }
    }
  }
  // Combinational cycles (only meaningful once the structure above is
  // consistent): the same Kahn peeling as topological_order(), reporting
  // how many gates never became ready. This is what makes cyclic
  // structural Verilog a parse error instead of a downstream abort.
  if (problems.empty()) {
    std::size_t num_comb = 0;
    const std::size_t ordered = kahn_order(num_comb).size();
    if (ordered != num_comb) {
      problems.push_back(strfmt("combinational cycle through %zu gate(s)",
                                num_comb - ordered));
    }
  }
  return problems;
}

Netlist Netlist::compact(std::vector<NetId>* net_map_out,
                         std::vector<GateId>* gate_map_out) const {
  Netlist out(lib_, name_);
  std::vector<NetId> net_map(nets_.size(), NetId::invalid());
  std::vector<GateId> gate_map(gates_.size(), GateId::invalid());

  for (std::size_t i = 0; i < primary_inputs_.size(); ++i) {
    const NetId old = primary_inputs_[i];
    net_map[old.value()] = out.add_primary_input(input_names_[i]);
  }
  // Create all remaining live nets first so gates can attach in any order.
  for (std::uint32_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i].dead || nets_[i].is_primary_input) continue;
    net_map[i] = out.add_net();
  }
  // Add gates in an order where sequential cells are fine anywhere; reuse
  // slot order for determinism.
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.dead) continue;
    std::vector<NetId> fanins, outputs;
    fanins.reserve(g.fanin.size());
    outputs.reserve(g.outputs.size());
    for (NetId in : g.fanin) fanins.push_back(net_map[in.value()]);
    for (NetId o : g.outputs) outputs.push_back(net_map[o.value()]);
    gate_map[i] = out.add_gate_driving(g.cell, fanins, outputs);
  }
  for (NetId po : primary_outputs_) {
    out.mark_primary_output(net_map[po.value()]);
  }
  if (net_map_out) *net_map_out = std::move(net_map);
  if (gate_map_out) *gate_map_out = std::move(gate_map);
  return out;
}

CombView CombView::build(const Netlist& nl) {
  CombView view;
  view.net_slots = nl.net_capacity();
  view.sources = nl.primary_inputs();
  view.observe = nl.primary_outputs();
  view.order = nl.topological_order();
  view.level.assign(nl.gate_capacity(), 0);
  for (GateId g : view.order) {
    std::uint32_t level = 0;
    for (NetId in : nl.gate(g).fanin) {
      const auto& net = nl.net(in);
      if (!net.has_gate_driver() || nl.cell_of(net.driver_gate).sequential) {
        continue;
      }
      level = std::max(level, view.level[net.driver_gate.value()] + 1);
    }
    view.level[g.value()] = level;
    view.num_levels = std::max<std::size_t>(view.num_levels, level + 1);
  }
  for (GateId g : nl.live_gates()) {
    if (!nl.cell_of(g).sequential) continue;
    for (NetId q : nl.gate(g).outputs) view.sources.push_back(q);
    for (NetId d : nl.gate(g).fanin) view.observe.push_back(d);
  }
  return view;
}

}  // namespace dfmres
