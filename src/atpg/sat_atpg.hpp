#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
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
/// and an OR of good != faulty over the cone's observation points; the
/// literals and the victim's opposing good value are assumptions. It
/// first solves those assumptions on the good machine alone and encodes
/// the cone only if that does not refute them. justify() is the
/// good-machine half alone. Both read the region's lists and walk no
/// netlist structure of their own. Cells are encoded from their truth
/// tables as prime-implicant clauses, so unit propagation is as strong as
/// three-valued simulation in both directions. Nets with neither a
/// source nor a combinational driver are constant 0, as in the fault
/// simulator.
///
/// One instance and one solver serve a whole ATPG run (DESIGN.md §18):
/// a net's good variable and its driver's cell are encoded the first
/// time any call's region needs them and kept for the rest of the run.
/// A faulty cone is guarded by its own activation literal and retired
/// when a detect call needs another cone. Each solve decides only the
/// call's cone and region variables. Not thread-safe.
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
    std::uint64_t clauses = 0;  ///< added: good machine and cones
    double seconds = 0.0;
  };

  SatAtpg(const Netlist& nl, const CombView& view, Config config);

  /// Same contract as Podem::search on a detect region: Detected with
  /// one V3 per source in `*test` (X = not in the region), Undetectable
  /// as a proof, or Aborted past the conflict limit or on cancellation.
  Podem::Outcome detect(const RelevantRegion& region, std::vector<V3>* test);
  /// After a detect() that returned Undetectable: whether its refutation
  /// read none of the call's literals, only the cone's activation literal
  /// and the victim's good value. Then the call without its literals is
  /// Undetectable too, and so is every call on the same victim, faulty
  /// value and cone (RelevantRegion::cone_signature()).
  [[nodiscard]] bool proof_literal_free() const { return literal_free_; }

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

  /// Solves over decisions_ and assumptions_ within `budget` conflicts.
  SatSolver::Result solve(long budget);
  /// The call's outcome from its last solve; a Sat model's test is read
  /// from the region's sources.
  Podem::Outcome finish(SatSolver::Result r, const RelevantRegion& region,
                        std::vector<V3>* test);
  /// Retires the live cone and encodes the detect region's under a fresh
  /// act_: the cone copy, the difference and active-path clauses, and
  /// the observed clause.
  void encode_cone(const RelevantRegion& region);
  /// Retires the live cone, if any (SatSolver::retire).
  void retire_cone();
  [[nodiscard]] SatLit constant(bool value) const {
    return SatLit::of(const_var_, value);
  }
  /// Good-machine literal of `n` (true = net is 1), allocated on first
  /// request.
  SatLit good(NetId n);
  /// The good machine over the region: one variable per relevant net,
  /// its relevant gates' cells, and undriven nets tied to 0. Only what
  /// no earlier call of the run encoded is added. The region's nets
  /// become decisions of the call.
  void encode_good(const RelevantRegion& region);
  /// The cell of `g`; with `guarded`, each clause under act_.
  void encode_cell(GateId g, std::span<const SatLit> ins,
                   std::span<const SatLit> outs, bool guarded);
  /// Adds `clause`, under act_ if `guarded`.
  void add(std::vector<SatLit>& clause, bool guarded);
  void add_guarded(std::initializer_list<SatLit> lits);
  const std::array<std::vector<Cube>, kMaxCellOutputs>& cover(CellId cell);

  const Netlist& nl_;
  const CombView& view_;
  Config config_;
  SatSolver solver_;
  Stats stats_;

  // The run's good machine: per net slot, its variable (kNoVar until
  // a region needs it); per gate slot, whether its cell is encoded.
  std::vector<std::uint32_t> good_var_;
  std::vector<std::uint8_t> gate_encoded_;
  std::uint32_t const_var_ = 0;

  // The live faulty cone: the victim and faulty value of the detect
  // call that encoded it (invalid when none) and its activation literal.
  // A cone net n with cone_var_[n] = i has its faulty value, difference
  // d_n (good != faulty) and activity a_n in cone_vars_[3i], [3i + 1]
  // and [3i + 2]. A detect call on another victim or value retires it.
  NetId cone_victim_;
  bool cone_value_ = false;
  SatLit act_;
  std::vector<std::uint32_t> cone_var_;  // kNoVar off the cone
  std::vector<std::uint32_t> cone_vars_;
  std::vector<NetId> cone_nets_;     // every faulty cone net (victim aside)

  // The current call.
  std::vector<SatLit> assumptions_;  // [act_, victim's good value,] literals
  bool literal_free_ = false;        // see proof_literal_free()
  std::vector<std::uint32_t> decisions_;
  std::vector<SatLit> clause_;       // scratch
  std::vector<SatLit> observed_;     // differences at observed nets
  std::vector<SatLit> path_;         // active-path clause scratch
  std::vector<std::array<std::vector<Cube>, kMaxCellOutputs>> covers_;
  std::vector<std::uint8_t> cover_ready_;
};

}  // namespace dfmres
