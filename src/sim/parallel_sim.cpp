#include "src/sim/parallel_sim.hpp"

#include <cassert>

#include "src/sim/eval_kernel.hpp"

namespace dfmres {

ParallelSimulator::ParallelSimulator(const Netlist& nl, const CombView& view)
    : nl_(nl), view_(view), values_(view.net_slots, 0) {}

void ParallelSimulator::set_source(NetId net, std::uint64_t bits) {
  values_[net.value()] = bits;
}

void ParallelSimulator::randomize_sources(Rng& rng) {
  for (NetId src : view_.sources) values_[src.value()] = rng.next();
}

std::uint64_t ParallelSimulator::eval_cell(
    const CellSpec& cell, int output, std::span<const std::uint64_t> inputs) {
  assert(inputs.size() == cell.num_inputs);
  return eval_cell_word(cell, output, inputs.data(), inputs.size());
}

void ParallelSimulator::run() {
  std::uint64_t ins[kMaxCellInputs];
  for (GateId g : view_.order) {
    const auto& gate = nl_.gate(g);
    const CellSpec& cell = nl_.library().cell(gate.cell);
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      ins[i] = values_[gate.fanin[i].value()];
    }
    for (int k = 0; k < cell.num_outputs; ++k) {
      values_[gate.outputs[k].value()] =
          eval_cell(cell, k, {ins, gate.fanin.size()});
    }
  }
}

}  // namespace dfmres
