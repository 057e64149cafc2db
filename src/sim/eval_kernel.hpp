#pragma once

// THE cell word-evaluation kernel, shared by every bit-parallel
// simulator in the tree (ParallelSimulator's good-machine wave and the
// FaultSimulator load/overlay/propagation kernels). One 64-lane word per
// net: lane L of the result depends only on lane L of each input.

#include <cstddef>
#include <cstdint>

#include "src/library/cell.hpp"

namespace dfmres {

/// Evaluates one cell output from packed input lane words: sum over the
/// truth table's minterms of the AND of each input (or its complement).
[[nodiscard]] inline std::uint64_t eval_cell_word(const CellSpec& cell,
                                                  int output,
                                                  const std::uint64_t* inputs,
                                                  std::size_t num_inputs) {
  const std::uint64_t tt = cell.truth(output);
  const auto num_minterms = std::uint32_t{1} << num_inputs;
  std::uint64_t out = 0;
  for (std::uint32_t m = 0; m < num_minterms; ++m) {
    if (((tt >> m) & 1u) == 0) continue;
    std::uint64_t term = ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < num_inputs; ++i) {
      term &= ((m >> i) & 1u) ? inputs[i] : ~inputs[i];
    }
    out |= term;
  }
  return out;
}

}  // namespace dfmres
