#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/faults/fault.hpp"

namespace dfmres {

enum class FaultStatus : std::uint8_t {
  Unknown = 0,
  Detected,
  Undetectable,
  Aborted,  ///< search budget exhausted; never counted as undetectable
};

/// How a Fault::Key maps onto net and gate ids, shared by the verdict
/// store and the engine's per-run duplicate marks. Net and gate ids are
/// dense and never reused (DESIGN.md §8), so an id indexes its slots
/// directly:
/// - stuck-at / transition: 4 slots per victim net, (kind, value);
/// - cell-aware: one slot per (owner gate, UDFM index); the key's victim
///   is always the owner's first output, so the slot drops it;
/// - bridge: per victim net, one entry per (aggressor, bridge type).
namespace verdict_index {

inline constexpr std::uint32_t kNone = NetId::kInvalid;
inline constexpr auto kTransition =
    static_cast<std::uint8_t>(FaultKind::Transition);
inline constexpr auto kBridge = static_cast<std::uint8_t>(FaultKind::Bridge);
inline constexpr auto kCellAware =
    static_cast<std::uint8_t>(FaultKind::CellAware);

/// Asserts the Fault invariants the layout relies on: `aggressor` and
/// the bridge type are set only on bridges, `owner` and `udfm_index`
/// only on cell-aware faults, and the stuck value only on stuck-at and
/// transition faults. Together with the cell-aware victim invariant
/// (asserted where the owner's block is kept) no two distinct keys share
/// a slot.
inline void check(const Fault::Key& k) {
  assert(k.kind <= kCellAware && k.bridge_type <= 1);
  assert(k.kind == kBridge || (k.aggressor == kNone && k.bridge_type == 0));
  assert(k.kind == kCellAware || (k.owner == kNone && k.udfm_index == 0));
  assert(k.kind <= kTransition || !k.value);
  (void)k;
}

/// The stuck-at / transition slot of `k`: 4 per victim net.
inline std::size_t net_slot(const Fault::Key& k) {
  return 4 * std::size_t{k.victim} + 2 * std::size_t{k.kind} +
         (k.value ? 1 : 0);
}

/// A bridge key's entry within its victim's slots: aggressor and type.
inline std::uint32_t bridge_partner(const Fault::Key& k) {
  assert(k.aggressor < (1u << 31));
  return k.aggressor << 1 | k.bridge_type;
}

}  // namespace verdict_index

/// Detectability memo across resynthesis iterations. Valid because the
/// procedure's rewrites are function-preserving and net/gate ids are
/// never reused: a fault outside the rewritten region keeps its
/// excitation, propagation, and therefore its status (see DESIGN.md).
///
/// An id-indexed store (verdict_index): stuck-at and transition verdicts
/// in 4 slots per net, cell-aware verdicts in one block per owner gate
/// sized by its cell's UDFM fault count, bridges in a per-victim list
/// sorted by (aggressor, type). Arrays are sized by the largest id
/// stored and grow on store; an id past them, like any absent key, reads
/// Unknown. Lookups never write, so any number of threads may read one
/// store while nobody stores into it.
class FaultStatusCache {
 public:
  [[nodiscard]] FaultStatus lookup(const Fault::Key& k) const {
    verdict_index::check(k);
    switch (k.kind) {
      case verdict_index::kBridge: {
        if (k.victim >= bridges_.size()) return FaultStatus::Unknown;
        const std::vector<BridgeEntry>& list = bridges_[k.victim];
        const std::uint32_t partner = verdict_index::bridge_partner(k);
        const std::size_t at = bridge_position(list, partner);
        return at < list.size() && list[at].partner == partner
                   ? list[at].status
                   : FaultStatus::Unknown;
      }
      case verdict_index::kCellAware: {
        if (k.owner >= gates_.size()) return FaultStatus::Unknown;
        const GateBlock& b = gates_[k.owner];
        assert(b.size == 0 || b.victim == k.victim);
        return k.udfm_index < b.size ? cell_aware_[b.offset + k.udfm_index]
                                     : FaultStatus::Unknown;
      }
      default: {
        const std::size_t j = verdict_index::net_slot(k);
        return j < net_.size() ? net_[j] : FaultStatus::Unknown;
      }
    }
  }

  /// Stores `s` under `k`; storing Unknown erases the verdict. For a
  /// cell-aware key, `cell_faults` is the owner cell's UDFM fault count:
  /// it sizes the gate's block when the block is first made (a block is
  /// regrown, never aliased, if a later index does not fit).
  void store(const Fault::Key& k, FaultStatus s, std::uint32_t cell_faults = 0);

  /// Folds every verdict of `delta` into this store, each key once.
  void merge(const FaultStatusCache& delta);

  /// Calls fn(key, status) once per stored verdict: stuck-at and
  /// transition by net, then cell-aware by gate, then bridges by victim.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit([&fn](const Fault::Key& k, FaultStatus s, std::uint32_t) {
      fn(k, s);
    });
  }

  /// Number of stored verdicts.
  [[nodiscard]] std::size_t size() const { return size_; }
  void clear();

 private:
  struct GateBlock {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;  ///< 0 = no block
    std::uint32_t victim = verdict_index::kNone;
  };
  struct BridgeEntry {
    std::uint32_t partner = 0;  ///< verdict_index::bridge_partner
    FaultStatus status = FaultStatus::Unknown;
  };

  /// Where `partner` is or would go in `list` (sorted by partner): a
  /// branch-free binary search, since list lengths and keys vary too
  /// much for the branch predictor.
  static std::size_t bridge_position(const std::vector<BridgeEntry>& list,
                                     std::uint32_t partner) {
    if (list.empty()) return 0;
    const BridgeEntry* base = list.data();
    for (std::size_t n = list.size(); n > 1; n -= n / 2) {
      base = base[n / 2].partner < partner ? base + n / 2 : base;
    }
    return static_cast<std::size_t>(base - list.data()) +
           (base->partner < partner ? 1 : 0);
  }

  /// fn(key, status, cell-aware block size or 0) per stored verdict.
  template <typename Fn>
  void visit(Fn&& fn) const;

  /// Writes `s` into `slot`, keeping size_.
  void put(FaultStatus& slot, FaultStatus s) {
    size_ += (s != FaultStatus::Unknown ? 1 : 0);
    size_ -= (slot != FaultStatus::Unknown ? 1 : 0);
    slot = s;
  }

  std::vector<FaultStatus> net_;
  std::vector<GateBlock> gates_;
  std::vector<FaultStatus> cell_aware_;  ///< the gate blocks' slots
  std::vector<std::vector<BridgeEntry>> bridges_;
  std::size_t size_ = 0;
};

template <typename Fn>
void FaultStatusCache::visit(Fn&& fn) const {
  constexpr std::uint32_t kNone = verdict_index::kNone;
  for (std::size_t j = 0; j < net_.size(); ++j) {
    if (net_[j] == FaultStatus::Unknown) continue;
    fn(Fault::Key{static_cast<std::uint8_t>((j >> 1) & 1), 0,
                  static_cast<std::uint32_t>(j >> 2), kNone, kNone, 0,
                  (j & 1) != 0},
       net_[j], 0);
  }
  for (std::uint32_t g = 0; g < gates_.size(); ++g) {
    const GateBlock& b = gates_[g];
    for (std::uint32_t u = 0; u < b.size; ++u) {
      const FaultStatus s = cell_aware_[b.offset + u];
      if (s == FaultStatus::Unknown) continue;
      fn(Fault::Key{verdict_index::kCellAware, 0, b.victim, kNone, g, u,
                    false},
         s, b.size);
    }
  }
  for (std::uint32_t v = 0; v < bridges_.size(); ++v) {
    for (const BridgeEntry& e : bridges_[v]) {
      fn(Fault::Key{verdict_index::kBridge,
                    static_cast<std::uint8_t>(e.partner & 1), v,
                    e.partner >> 1, kNone, 0, false},
         e.status, 0);
    }
  }
}

/// The engine's per-run duplicate check over the verdict_index layout:
/// the first (lowest-index) fault of a run with a given key is its
/// representative, and every later fault with that key maps to it.
/// Stuck-at, transition and cell-aware keys are marked as mark() meets
/// them. Bridge keys are marked up front by begin_run(), victim by
/// victim, over per-aggressor marks, so no victim's partners are ever
/// searched. Marks are stamped with an epoch, so starting a run or a
/// victim clears nothing; the arrays are sized to the netlist's id
/// capacity and reused across runs (FaultSimArena::representatives()).
class RepresentativeMarks {
 public:
  /// Starts a run over `universe`, whose ids are below the given
  /// capacities, and marks its bridge faults.
  void begin_run(const FaultUniverse& universe, std::size_t net_capacity,
                 std::size_t gate_capacity);

  /// The representative of universe fault `i`, whose key is `k`: the
  /// lowest index with an equal key. Call once per fault, in ascending
  /// index order. A cell-aware key calls `cell_faults(k)` on the first
  /// key of each owner gate in a run for the number of UDFM faults of the
  /// owner's cell, which sizes the gate's marks.
  template <typename CellFaults>
  std::uint32_t mark(const Fault::Key& k, std::uint32_t i,
                     CellFaults&& cell_faults) {
    verdict_index::check(k);
    switch (k.kind) {
      case verdict_index::kBridge: {
        assert(next_bridge_ < bridges_.size() &&
               bridges_[next_bridge_].fault == i);
        return bridges_[next_bridge_++].rep;
      }
      case verdict_index::kCellAware: {
        assert(k.owner < gate_marks_.size());
        GateMark& g = gate_marks_[k.owner];
        if (g.stamp != epoch_) {
          g = {epoch_, static_cast<std::uint32_t>(cell_aware_.size()),
               k.victim};
          cell_aware_.resize(cell_aware_.size() + cell_faults(k),
                             verdict_index::kNone);
        }
        // The slot drops the victim: every cell-aware key of one owner
        // names the owner's first output.
        assert(g.victim == k.victim);
        assert(g.offset + k.udfm_index < cell_aware_.size());
        std::uint32_t& rep = cell_aware_[g.offset + k.udfm_index];
        if (rep == verdict_index::kNone) rep = i;
        return rep;
      }
      default: {
        const std::size_t j = verdict_index::net_slot(k);
        assert(j < net_marks_.size());
        Mark& m = net_marks_[j];
        if (m.stamp != epoch_) m = {epoch_, i};
        return m.value;
      }
    }
  }

 private:
  /// Groups bridges_ by victim and fills in each one's representative.
  void mark_bridges();

  /// A value valid while its stamp equals the current epoch.
  struct Mark {
    std::uint32_t stamp = 0, value = 0;
  };
  struct GateMark {
    std::uint32_t stamp = 0, offset = 0, victim = 0;
  };

  std::uint32_t epoch_ = 0;
  // Stuck-at / transition: 4 representatives per net.
  std::vector<Mark> net_marks_;
  // Cell-aware: each owner seen this run gets a block of cell_aware_ at
  // `offset`, one representative (or kNone) per UDFM index.
  std::vector<GateMark> gate_marks_;
  std::vector<std::uint32_t> cell_aware_;
  // Bridges: the run's bridge faults in index order, each with its
  // representative once marked; mark() hands them out in turn.
  struct Bridge {
    std::uint32_t fault, victim, partner, rep;
  };
  std::vector<Bridge> bridges_;
  std::size_t next_bridge_ = 0;
  // Per victim net, the bridge count (then the end of its group); the
  // victims in order of first bridge; bridges_ positions grouped by
  // victim.
  std::vector<Mark> victim_marks_;
  std::vector<std::uint32_t> victims_;
  std::vector<std::uint32_t> grouped_;
  // Within a victim's group: 2 representatives per aggressor net (bridge
  // type), stamped with the group's epoch.
  std::uint32_t group_epoch_ = 0;
  std::vector<Mark> partner_marks_;
};

}  // namespace dfmres
