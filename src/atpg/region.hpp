#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "src/atpg/excitation.hpp"
#include "src/netlist/netlist.hpp"

namespace dfmres {

/// 128 bits: the key of one call (RelevantRegion::signature()), and the
/// function label of one net that keys are built from.
struct RegionSignature {
  std::uint64_t lo = 0, hi = 0;

  [[nodiscard]] bool operator==(const RegionSignature&) const = default;
};

/// The part of the combinational view one phase-2 justify/detect call
/// can read, shared by every engine the call runs (PODEM's shallow pass,
/// then SAT on its abort) and keyed for the proof memo.
///
/// - The cone: the victim's combinational fanout, gates in topological
///   order (detect only).
/// - The relevant nets: the call's literals, the victim, the cone's
///   outputs and side inputs, closed backward over combinational
///   drivers. The closure stops at sources (PIs and flop outputs) and at
///   undriven nets. Every value either engine reads lies in this set.
/// - The relevant gates: the combinational drivers of relevant nets.
///
/// detect()/justify() build the cone and the key; the backward closure
/// is built on first use of nets(), gates() or relevant_gate(), so a
/// call the memo answers never pays for it.
///
/// Not thread-safe; one instance serves a whole ATPG run (the per-net
/// marks are epoch-stamped, so a rebuild costs O(region), not
/// O(netlist)). The constructor labels every net once, O(netlist).
class RelevantRegion {
 public:
  RelevantRegion(const Netlist& nl, const CombView& view);

  /// Rebuilds the region of detecting `exc`: its frame-1 literals (the
  /// only ones detection reads; frame 0 is a separate justify call), the
  /// victim forced to its faulty value, and the victim's cone.
  const RelevantRegion& detect(const Excitation& exc);
  /// Rebuilds the region of justifying `lits`, every literal read as
  /// frame 1; no victim and no cone.
  const RelevantRegion& justify(std::span<const CondLiteral> lits);

  [[nodiscard]] bool is_detect() const { return detect_; }
  /// The literals the call must satisfy, all with frame == 1.
  [[nodiscard]] std::span<const CondLiteral> lits() const { return lits_; }
  /// Detect only: the victim and the value the fault forces on it.
  [[nodiscard]] NetId victim() const { return victim_; }
  [[nodiscard]] bool faulty_value() const { return faulty_value_; }

  /// The victim's combinational fanout cone, topologically ordered.
  [[nodiscard]] std::span<const GateId> cone_gates() const {
    return cone_gates_;
  }
  /// True for the victim and every output of a cone gate.
  [[nodiscard]] bool in_cone(NetId n) const {
    return cone_net_[n.value()] == cone_epoch_;
  }
  /// The relevant nets, each once, in walk order.
  [[nodiscard]] std::span<const NetId> nets() const {
    return closure().nets;
  }
  /// The relevant nets' combinational drivers, each once.
  [[nodiscard]] std::span<const GateId> gates() const {
    return closure().gates;
  }
  [[nodiscard]] bool relevant_gate(GateId g) const {
    const Closure& c = closure();
    return c.gate_mark[g.value()] == c.epoch;
  }
  [[nodiscard]] bool relevant_net(NetId n) const {
    const Closure& c = closure();
    return c.net_mark[n.value()] == c.epoch;
  }

  /// A PI or flop output (CombView::sources): a free input of the call.
  [[nodiscard]] bool is_source(NetId n) const { return source_[n.value()]; }
  /// A PO or a flop input (CombView::observe).
  [[nodiscard]] bool is_observed(NetId n) const { return observe_[n.value()]; }

  /// The call's key, built from function labels only:
  /// - detect: (label(victim), faulty value), each frame-1 literal as
  ///   (label, value), and each observed cone net o as (label(o),
  ///   faulty label(o)). The victim's faulty label is the constant of
  ///   its faulty value; a cone gate output's is (cell, pin, each
  ///   fanin's faulty label if the fanin is in the cone, else its
  ///   label).
  /// - justify: each literal as (label, value).
  /// Records are summed, so their order cannot matter. Each term of the
  /// call (the literals hold, good(victim) != faulty value, some
  /// observed net differs) is a function of the sources fixed by its
  /// labels, so equal keys pose the same satisfiability problem whatever
  /// ids the call touched, which is why a proven U can be reused
  /// (DESIGN.md §18). Never {0, 0}.
  [[nodiscard]] const RegionSignature& signature() const { return sig_; }
  /// Detect only: the key summed before the literal records, which is
  /// exactly signature() of a detect call on the same victim and faulty
  /// value with no frame-1 literals. A U proof of that call is a U proof
  /// of every call that adds literals to it, so a proof that read none
  /// of the literals is stored under this key too (DESIGN.md §18).
  [[nodiscard]] const RegionSignature& cone_signature() const {
    assert(detect_);
    return cone_sig_;
  }

  [[nodiscard]] const Netlist& netlist() const { return nl_; }

 private:
  /// The backward closure of the current call (see nets()).
  struct Closure {
    bool built = false;
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> net_mark;   // epoch-stamped
    std::vector<std::uint32_t> gate_mark;  // epoch-stamped
    std::vector<NetId> nets;
    std::vector<GateId> gates;
    std::vector<NetId> stack;
  };

  void begin();
  void add_literals();
  /// The closure of the current call, built on first use.
  const Closure& closure() const {
    if (!closure_.built) build_closure();
    return closure_;
  }
  void build_closure() const;

  const Netlist& nl_;
  std::vector<std::uint32_t> topo_pos_;  // gate slot -> topo position
  std::vector<std::uint8_t> observe_;    // net slot -> observation point
  std::vector<std::uint8_t> source_;     // net slot -> CombView source
  // Net slot -> the function the net computes over the sources: a
  // source is labelled by its id, an undriven net by the constant 0, a
  // gate output by (cell, output pin, ordered fanin labels). Equal labels
  // mean equal functions, whatever the nets' ids.
  std::vector<RegionSignature> label_;
  std::vector<RegionSignature> faulty_label_;  // valid on cone nets
  bool detect_ = false;
  NetId victim_;
  bool faulty_value_ = false;
  std::vector<CondLiteral> lits_;
  // Epoch-stamped marks (avoid clearing).
  std::vector<std::uint32_t> cone_net_;
  std::vector<std::uint32_t> cone_gate_;
  std::uint32_t cone_epoch_ = 0;
  std::vector<GateId> cone_gates_;
  std::vector<NetId> stack_;
  RegionSignature sig_;
  RegionSignature cone_sig_;  // detect only
  mutable Closure closure_;
};

/// Keys of calls proven undetectable: a flat open-addressing set of
/// 128-bit keys. It stores U outcomes only (a D or an abort is not a
/// fact of the region alone: a test is a model, an abort is a budget).
/// Bounded by a fixed entry cap: the insert that would pass it clears
/// the table first. Not thread-safe; each FaultSimArena owns one.
class ProofMemo {
 public:
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 16;

  [[nodiscard]] bool contains(const RegionSignature& s) const;
  void insert(const RegionSignature& s);
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  [[nodiscard]] std::size_t probe(const RegionSignature& s) const;
  void clear();
  void grow();

  std::vector<RegionSignature> slots_;  // {0, 0} = empty
  std::size_t size_ = 0;
};

}  // namespace dfmres
