#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/library/library.hpp"
#include "src/util/ids.hpp"

namespace dfmres {

/// Reference to one input pin of a gate (a net sink).
struct PinRef {
  GateId gate;
  std::uint16_t pin = 0;

  friend bool operator==(const PinRef&, const PinRef&) = default;
};

/// Gate-level, cell-based netlist. Gates instantiate cells of a Library;
/// nets connect one driver (a primary input or a gate output pin) to any
/// number of gate input pins. Primary outputs are markings on nets.
///
/// Gates and nets are never renumbered by removal (ids stay stable across
/// resynthesis splices); use compact() to rebuild a dense netlist.
class Netlist {
 public:
  struct Gate {
    CellId cell;
    std::vector<NetId> fanin;    // by cell input pin order
    std::vector<NetId> outputs;  // by cell output pin order
    bool dead = false;
  };

  struct Net {
    GateId driver_gate;           // invalid if primary input or undriven
    std::uint16_t driver_pin = 0; // output pin index of driver_gate
    bool is_primary_input = false;
    bool is_primary_output = false;
    bool dead = false;
    std::vector<PinRef> sinks;

    [[nodiscard]] bool has_gate_driver() const { return driver_gate.valid(); }
  };

  Netlist(std::shared_ptr<const Library> lib, std::string name);

  // ---- construction ----
  NetId add_primary_input(std::string name = {});
  /// Creates an undriven net (driver attached later via add_gate_driving).
  NetId add_net();
  /// Appends to the positional primary-output list. The list may contain
  /// the same net more than once (e.g. when mapping hashes two outputs to
  /// one signal); positional identity is what subcircuit replacement
  /// relies on.
  void mark_primary_output(NetId net);

  /// Adds a gate and creates one fresh output net per cell output.
  GateId add_gate(CellId cell, std::span<const NetId> fanins);
  /// Adds a gate that drives pre-existing (undriven) nets.
  GateId add_gate_driving(CellId cell, std::span<const NetId> fanins,
                          std::span<const NetId> outputs);

  /// Detaches and kills a gate. Its output nets lose their driver but stay
  /// alive if they still have sinks or are primary outputs; otherwise they
  /// are killed too.
  void remove_gate(GateId gate);
  /// Kills a net that has no driver and no sinks.
  void remove_net(NetId net);

  /// Reconnects input pin `pin` of `gate` to `net`.
  void rewire_fanin(GateId gate, int pin, NetId net);

  /// Swaps a gate's cell for another cell with identical pin counts
  /// (drive resizing).
  void retype_gate(GateId gate, CellId cell);

  /// Moves every sink and primary-output marking of `victim` onto
  /// `target`, then kills `victim`. `victim` must be undriven and not a
  /// primary input.
  void merge_net_into(NetId victim, NetId target);

  // ---- access ----
  [[nodiscard]] const Library& library() const { return *lib_; }
  [[nodiscard]] const std::shared_ptr<const Library>& library_ptr() const {
    return lib_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const Gate& gate(GateId id) const {
    return gates_[id.value()];
  }
  [[nodiscard]] const Net& net(NetId id) const { return nets_[id.value()]; }
  [[nodiscard]] const CellSpec& cell_of(GateId id) const {
    return lib_->cell(gate(id).cell);
  }
  [[nodiscard]] bool gate_alive(GateId id) const {
    return id.value() < gates_.size() && !gates_[id.value()].dead;
  }
  [[nodiscard]] bool net_alive(NetId id) const {
    return id.value() < nets_.size() && !nets_[id.value()].dead;
  }

  /// Number of slots (including dead ones); iterate with *_alive checks or
  /// use live_gates()/live_nets().
  [[nodiscard]] std::size_t gate_capacity() const { return gates_.size(); }
  [[nodiscard]] std::size_t net_capacity() const { return nets_.size(); }
  [[nodiscard]] std::size_t num_live_gates() const { return live_gates_; }
  [[nodiscard]] std::size_t num_live_nets() const { return live_nets_; }

  [[nodiscard]] std::vector<GateId> live_gates() const;
  [[nodiscard]] std::vector<NetId> live_nets() const;

  [[nodiscard]] const std::vector<NetId>& primary_inputs() const {
    return primary_inputs_;
  }
  [[nodiscard]] const std::vector<NetId>& primary_outputs() const {
    return primary_outputs_;
  }
  [[nodiscard]] const std::string& input_name(std::size_t i) const {
    return input_names_[i];
  }

  /// Sum of cell areas over live gates.
  [[nodiscard]] double total_area() const;

  /// Live gates in topological order, sequential cells excluded (their
  /// outputs act as sources). Aborts on a combinational cycle.
  [[nodiscard]] std::vector<GateId> topological_order() const;

  /// True when the combinational gates form a loop: the non-fatal form
  /// of the check topological_order() aborts on.
  [[nodiscard]] bool has_combinational_cycle() const;

  /// Structural sanity check; returns a human-readable list of problems
  /// (empty = valid).
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Rebuilds a dense copy (no dead slots). `net_map`/`gate_map`, when
  /// non-null, receive old-id -> new-id tables (invalid for dead slots).
  [[nodiscard]] Netlist compact(std::vector<NetId>* net_map = nullptr,
                                std::vector<GateId>* gate_map = nullptr) const;

 private:
  void detach_sink(NetId net, PinRef pin);
  /// Kahn's peeling of the live combinational gates (sequential outputs
  /// and primary inputs are sources): the gates it orders, in order.
  /// `num_comb` receives the combinational gate count; a shorter order
  /// means a cycle.
  std::vector<GateId> kahn_order(std::size_t& num_comb) const;

  std::shared_ptr<const Library> lib_;
  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Net> nets_;
  std::vector<NetId> primary_inputs_;
  std::vector<NetId> primary_outputs_;
  std::vector<std::string> input_names_;
  std::size_t live_gates_ = 0;
  std::size_t live_nets_ = 0;
};

/// Combinational view of a (possibly sequential, full-scan) netlist:
/// DFF outputs become pseudo primary inputs and DFF inputs pseudo primary
/// outputs, the standard full-scan test model.
struct CombView {
  std::vector<NetId> sources;       ///< PIs + DFF Q nets
  std::vector<NetId> observe;       ///< PO nets + DFF D nets
  std::vector<GateId> order;        ///< combinational gates, topological
  /// Per gate slot: 1 + the highest level among the gate's combinational
  /// drivers, 0 when it has none (and for sequential or dead slots).
  /// Strictly increasing along every combinational edge, so visiting
  /// gates by ascending level is a topological order (LevelQueue).
  std::vector<std::uint32_t> level;
  std::size_t num_levels = 0;       ///< highest level + 1; 0 if no gates
  std::size_t net_slots = 0;        ///< == netlist.net_capacity() at build

  [[nodiscard]] static CombView build(const Netlist& nl);
};

}  // namespace dfmres
