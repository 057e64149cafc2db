#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/atpg/excitation.hpp"
#include "src/atpg/podem.hpp"
#include "src/atpg/region.hpp"
#include "src/atpg/sat.hpp"
#include "src/atpg/values.hpp"
#include "src/netlist/netlist.hpp"
#include "src/util/cancel.hpp"

namespace dfmres {

/// Complete SAT-based test generation (Larrabee, TCAD 1992) over the
/// RelevantRegion PODEM searched, for the calls PODEM gives up on.
///
/// detect() encodes a good/faulty miter: good-machine variables over the
/// region's relevant nets (the victim cone's nets and side inputs plus
/// the condition literals, closed backward over drivers), faulty copies
/// over the region's cone with the victim forced to its faulty value,
/// the literals and the victim's opposing good value as unit clauses,
/// and an OR of good != faulty over the cone's observation points.
/// justify() is the good-machine half alone. Both read the region's
/// lists and walk no netlist structure of their own. Cells are encoded
/// from their truth tables as prime-implicant clauses, so unit
/// propagation is as strong as three-valued simulation in both
/// directions. Nets with neither a source nor a combinational driver
/// are constant 0, as in the fault simulator.
///
/// One instance serves a whole ATPG run: the solver and every per-net
/// array are reused across calls. Not thread-safe.
class SatAtpg {
 public:
  struct Config {
    long conflict_limit = 4000;  ///< per call; past it the call aborts
    const CancelToken* cancel = nullptr;
  };

  /// Instrumentation totals across every call on this instance.
  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t detected = 0;
    std::uint64_t undetectable = 0;
    std::uint64_t aborted = 0;
    double seconds = 0.0;
  };

  SatAtpg(const Netlist& nl, const CombView& view, Config config);

  /// Same contract as Podem::search on a detect region: Detected with
  /// one V3 per source in `*test` (X = not in the region), Undetectable
  /// as a proof, or Aborted past the conflict limit or on cancellation.
  Podem::Outcome detect(const RelevantRegion& region, std::vector<V3>* test);

  /// Same contract as Podem::search on a justify region.
  Podem::Outcome justify(const RelevantRegion& region,
                         std::vector<V3>* test);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// One prime implicant of a cell output (or of its complement):
  /// inputs in `care` take the bits of `value`, then the output is `out`.
  struct Cube {
    std::uint8_t care;
    std::uint8_t value;
    bool out;
  };

  static constexpr std::uint32_t kNoVar = 0xffffffffu;

  void begin();
  Podem::Outcome finish(std::vector<V3>* test);
  [[nodiscard]] SatLit constant(bool value) const {
    return SatLit::of(const_var_, value);
  }
  /// Good-machine literal of `n` (true = net is 1), allocated on first
  /// request.
  SatLit good(NetId n);
  /// The good machine over the region: one variable per relevant net,
  /// its relevant gates' cells, and undriven nets tied to 0.
  void encode_good(const RelevantRegion& region);
  void encode_cell(GateId g, std::span<const SatLit> ins,
                   std::span<const SatLit> outs);
  const std::array<std::vector<Cube>, kMaxCellOutputs>& cover(CellId cell);

  const Netlist& nl_;
  const CombView& view_;
  Config config_;
  SatSolver solver_;
  Stats stats_;

  // Per-net state of the current instance, undone at the next begin()
  // through good_nets_ and cone_nets_.
  std::vector<std::uint32_t> good_var_;  // kNoVar when not encoded
  std::vector<std::uint32_t> cone_var_;  // first of 3; kNoVar off the cone
  std::uint32_t const_var_ = 0;
  std::vector<NetId> good_nets_;     // every good net of the instance
  std::vector<NetId> cone_nets_;     // every faulty cone net (victim aside)
  std::vector<SatLit> clause_;       // scratch
  std::vector<SatLit> observed_;     // differences at observed nets
  std::vector<SatLit> path_;         // active-path clause scratch
  std::vector<std::array<std::vector<Cube>, kMaxCellOutputs>> covers_;
  std::vector<std::uint8_t> cover_ready_;
};

}  // namespace dfmres
