#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "src/atpg/excitation.hpp"
#include "src/atpg/region.hpp"
#include "src/atpg/values.hpp"
#include "src/netlist/level_queue.hpp"
#include "src/netlist/netlist.hpp"
#include "src/util/cancel.hpp"

namespace dfmres {

/// PODEM test generator over the combinational (full-scan) view.
///
/// Handles every fault model through condition cubes: the engine
/// justifies the excitation literals on the good machine, forces the
/// victim to its faulty value, and propagates the composite D value to an
/// observation point, branching only on sources (PIs and flop outputs).
/// The search is complete: exhausting it proves undetectability (the
/// paper's U set); hitting the backtrack limit yields Aborted, which is
/// never counted as undetectable.
class Podem {
 public:
  struct Config {
    long backtrack_limit = 50000;
    /// Cooperative cancellation, polled every 64 backtracks inside the
    /// search loop; an expired token yields Outcome::Aborted (never
    /// Undetectable — a cut-short search proves nothing).
    const CancelToken* cancel = nullptr;
  };

  enum class Outcome { Detected, Undetectable, Aborted };

  Podem(const Netlist& nl, const CombView& view, Config config);
  Podem(const Netlist& nl, const CombView& view) : Podem(nl, view, Config{}) {}

  /// Searches the call `region` was last built for. A detect region
  /// (RelevantRegion::detect) justifies its frame-1 literals, makes the
  /// victim's good value oppose the forced value and propagates the
  /// difference to an observation point; a justify region
  /// (RelevantRegion::justify) only justifies its literals. On success
  /// `*test` receives one V3 per source (X = free). The region must be
  /// built over this instance's netlist and view, and stays borrowed for
  /// the call.
  Outcome search(const RelevantRegion& region, std::vector<V3>* test);

  [[nodiscard]] const CombView& view() const { return view_; }

  /// Total backtracks across every search on this instance
  /// (instrumentation for AtpgCounters).
  [[nodiscard]] std::uint64_t total_backtracks() const {
    return total_backtracks_;
  }

 private:
  struct Objective {
    NetId net;
    bool value;
  };
  struct Decision {
    std::size_t source;  // ordinal in view.sources
    bool value;
    bool flipped;
  };

  /// Base-3 index of `gate`'s fanin good values into its cell's LUTs.
  [[nodiscard]] std::size_t lut_index(const Netlist::Gate& gate) const;
  void simulate_good();
  /// Incremental decision handling: assigning a source propagates events
  /// through its fanout and records an undo trail. Propagation is pruned
  /// to the region's relevant gates — everything else is dead to the
  /// current search, a pure wall-clock pruning with identical outcomes.
  void assign_source(std::size_t source, V3 v);
  void undo_last_assignment();
  [[nodiscard]] V3 faulty_of(NetId n) const;
  /// Re-simulates the faulty machine over the victim cone and records
  /// whether a fault effect reached an observation point in observed_.
  void simulate_faulty(V3 excited);
  /// All literals hold / definitely broken / undecided on good values.
  [[nodiscard]] V3 excitation_state() const;
  [[nodiscard]] bool x_path_exists(NetId victim);
  [[nodiscard]] std::optional<Objective> pick_objective();
  /// Maps an objective to a source assignment, or nullopt on dead end.
  [[nodiscard]] std::optional<Decision> backtrace(Objective obj) const;

  const Netlist& nl_;
  const CombView& view_;
  Config config_;
  std::vector<V5> value_;           // per net slot
  std::vector<V3> source_assign_;   // per source ordinal
  std::vector<std::int32_t> source_ordinal_;  // net slot -> ordinal or -1
  // Ternary LUTs: lut_[cell][output][base-3 input index].
  std::vector<std::array<std::vector<std::uint8_t>, 2>> lut_;
  const RelevantRegion* region_ = nullptr;  // the current search's
  std::vector<std::uint32_t> visited_net_;
  std::uint32_t visit_epoch_ = 0;
  bool observed_ = false;  // set by simulate_faulty
  std::vector<NetId> scratch_queue_;
  std::vector<Decision> stack_;  // decision stack, reused across searches
  // Implication scratch, reused: pending gates by level, and per gate
  // slot the epoch of the wave that last scheduled it.
  LevelQueue queue_;
  std::vector<std::uint32_t> scheduled_;
  std::uint32_t schedule_epoch_ = 0;
  struct TrailEntry {
    NetId net;
    V3 old_good;
  };
  std::vector<TrailEntry> trail_;
  std::vector<std::size_t> trail_marks_;
  std::uint64_t total_backtracks_ = 0;
};

}  // namespace dfmres
