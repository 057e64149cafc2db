#include <algorithm>

#include "src/faults/fault.hpp"
#include "src/netlist/netlist.hpp"

namespace dfmres {

std::vector<GateId> corresponding_gates(const Fault& fault,
                                        const Netlist& nl) {
  std::vector<GateId> gates;
  const auto add_net_gates = [&](NetId net) {
    if (!net.valid() || !nl.net_alive(net)) return;
    const auto& n = nl.net(net);
    if (n.has_gate_driver()) gates.push_back(n.driver_gate);
    for (const PinRef& sink : n.sinks) gates.push_back(sink.gate);
  };
  if (fault.scope == FaultScope::Internal) {
    gates.push_back(fault.owner);  // internal faults affect exactly one gate
  } else {
    add_net_gates(fault.victim);
    if (fault.kind == FaultKind::Bridge) add_net_gates(fault.aggressor);
  }
  std::sort(gates.begin(), gates.end());
  gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
  return gates;
}

std::size_t FaultUniverse::count_internal() const {
  return static_cast<std::size_t>(
      std::count_if(faults.begin(), faults.end(), [](const Fault& f) {
        return f.scope == FaultScope::Internal;
      }));
}

std::size_t FaultUniverse::count_external() const {
  return faults.size() - count_internal();
}

std::vector<std::size_t> FaultUniverse::per_guideline(
    std::size_t num_guidelines) const {
  std::vector<std::size_t> counts(num_guidelines, 0);
  for (const Fault& f : faults) {
    if (f.guideline < num_guidelines) ++counts[f.guideline];
  }
  return counts;
}

}  // namespace dfmres
