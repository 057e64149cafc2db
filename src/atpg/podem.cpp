#include "src/atpg/podem.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace dfmres {

namespace {
constexpr int kPow3[7] = {1, 3, 9, 27, 81, 243, 729};
}

Podem::Podem(const Netlist& nl, const CombView& view, Config config)
    : nl_(nl), view_(view), config_(config) {
  value_.resize(view.net_slots);
  source_assign_.resize(view.sources.size());
  source_ordinal_.assign(view.net_slots, -1);
  for (std::size_t i = 0; i < view.sources.size(); ++i) {
    source_ordinal_[view.sources[i].value()] = static_cast<std::int32_t>(i);
  }
  // Precompute ternary evaluation LUTs per cell output: index is the
  // base-3 encoding of the input values (0, 1, X). This makes the full
  // forward implication pass ~10x cheaper than enumerating X inputs.
  const Library& lib = nl.library();
  lut_.resize(lib.num_cells());
  for (std::uint32_t c = 0; c < lib.num_cells(); ++c) {
    const CellSpec& cell = lib.cell(CellId{c});
    if (cell.sequential) continue;
    const int n = cell.num_inputs;
    const int combos = kPow3[n];
    for (int out = 0; out < cell.num_outputs; ++out) {
      auto& table = lut_[c][static_cast<std::size_t>(out)];
      table.resize(static_cast<std::size_t>(combos));
      V3 ins[kMaxCellInputs];
      for (int idx = 0; idx < combos; ++idx) {
        int rest = idx;
        for (int i = 0; i < n; ++i) {
          ins[i] = static_cast<V3>(rest % 3);
          rest /= 3;
        }
        table[static_cast<std::size_t>(idx)] = static_cast<std::uint8_t>(
            eval_cell_v3(cell, out, {ins, static_cast<std::size_t>(n)}));
      }
    }
  }
  visited_net_.assign(view.net_slots, 0);
  queue_.reset(view.num_levels);
  scheduled_.assign(view.level.size(), 0);
}

std::size_t Podem::lut_index(const Netlist::Gate& gate) const {
  int idx = 0;
  for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
    idx += static_cast<int>(value_[gate.fanin[i].value()].good) * kPow3[i];
  }
  return static_cast<std::size_t>(idx);
}

void Podem::simulate_good() {
  // Baseline pass for the current search. Only the region's relevant
  // gates are evaluated, in level order: every net the search reads is a
  // source or the output of a relevant gate (the region closes backward
  // over drivers), so the skipped gates' stale values are unobservable.
  for (std::size_t i = 0; i < view_.sources.size(); ++i) {
    value_[view_.sources[i].value()].good = source_assign_[i];
  }
  for (GateId g : region_->gates()) {
    queue_.push(view_.level[g.value()], g.value());
  }
  while (!queue_.empty()) {
    const auto& gate = nl_.gate(GateId{queue_.pop()});
    const auto& luts = lut_[gate.cell.value()];
    const std::size_t idx = lut_index(gate);
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      value_[gate.outputs[k].value()].good = static_cast<V3>(luts[k][idx]);
    }
  }
}

V3 Podem::faulty_of(NetId n) const {
  return region_->in_cone(n) ? value_[n.value()].faulty
                              : value_[n.value()].good;
}

void Podem::simulate_faulty(V3 excited) {
  // Victim injection on the faulty side; everything outside the victim's
  // fanout cone equals the good machine by construction. Observation is
  // checked in the same pass (one cone walk instead of two).
  const NetId victim = region_->victim();
  const V3 forced = v3_of(region_->faulty_value());
  V5& v = value_[victim.value()];
  if (excited == V3::One) {
    v.faulty = forced;
  } else if (excited == V3::X && v.good != forced) {
    v.faulty = V3::X;
  } else {
    v.faulty = v.good;
  }
  observed_ = region_->is_observed(victim) && v.has_fault_effect();
  for (GateId g : region_->cone_gates()) {
    const auto& gate = nl_.gate(g);
    const auto& luts = lut_[gate.cell.value()];
    int idx = 0;
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      idx += static_cast<int>(faulty_of(gate.fanin[i])) * kPow3[i];
    }
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      const NetId out = gate.outputs[k];
      V5& ov = value_[out.value()];
      ov.faulty = static_cast<V3>(luts[k][static_cast<std::size_t>(idx)]);
      observed_ |= region_->is_observed(out) && ov.has_fault_effect();
    }
  }
}

V3 Podem::excitation_state() const {
  bool any_x = false;
  for (const CondLiteral& lit : region_->lits()) {
    const V3 v = value_[lit.net.value()].good;
    if (v == V3::X) {
      any_x = true;
    } else if (v != v3_of(lit.value)) {
      return V3::Zero;  // definitely broken
    }
  }
  return any_x ? V3::X : V3::One;
}

bool Podem::x_path_exists(NetId victim) {
  // Forward BFS inside the cone through nets that could still carry the
  // fault effect.
  ++visit_epoch_;
  const auto passable = [&](NetId n) {
    const V5 v{value_[n.value()].good, faulty_of(n)};
    return v.has_fault_effect() || v.faulty == V3::X || v.good == V3::X;
  };
  if (!passable(victim)) return false;
  scratch_queue_.clear();
  scratch_queue_.push_back(victim);
  visited_net_[victim.value()] = visit_epoch_;
  while (!scratch_queue_.empty()) {
    const NetId n = scratch_queue_.back();
    scratch_queue_.pop_back();
    if (nl_.net(n).is_primary_output) return true;
    for (const PinRef& sink : nl_.net(n).sinks) {
      if (nl_.cell_of(sink.gate).sequential) return true;  // reaches a flop
      for (NetId out : nl_.gate(sink.gate).outputs) {
        if (visited_net_[out.value()] != visit_epoch_ && passable(out)) {
          visited_net_[out.value()] = visit_epoch_;
          scratch_queue_.push_back(out);
        }
      }
    }
  }
  return false;
}

std::optional<Podem::Objective> Podem::pick_objective() {
  // 1. Unjustified condition literal.
  for (const CondLiteral& lit : region_->lits()) {
    if (value_[lit.net.value()].good == V3::X) {
      return Objective{lit.net, lit.value};
    }
  }
  if (!region_->is_detect()) return std::nullopt;  // justified: done

  // 2. Victim good value must oppose the forced value.
  const NetId victim = region_->victim();
  if (value_[victim.value()].good == V3::X) {
    return Objective{victim, !region_->faulty_value()};
  }

  // 3. D-frontier inside the victim cone: a gate with a fault effect on
  // an input whose output is still undecided; set one X input to help.
  for (GateId g : region_->cone_gates()) {
    const auto& gate = nl_.gate(g);
    bool has_d_input = false;
    for (NetId in : gate.fanin) {
      const V5 iv{value_[in.value()].good, faulty_of(in)};
      if (iv.has_fault_effect()) {
        has_d_input = true;
        break;
      }
    }
    if (!has_d_input) continue;
    bool output_undecided = false;
    for (NetId out : gate.outputs) {
      const V5 ov{value_[out.value()].good, faulty_of(out)};
      if (!ov.has_fault_effect() &&
          (ov.faulty == V3::X || ov.good == V3::X)) {
        output_undecided = true;
      }
    }
    if (!output_undecided) continue;
    // Choose an X input; prefer the value that exposes the effect.
    const CellSpec& cell = nl_.cell_of(g);
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      if (value_[gate.fanin[i].value()].good != V3::X) continue;
      V3 goods[kMaxCellInputs], faults[kMaxCellInputs];
      for (std::size_t j = 0; j < gate.fanin.size(); ++j) {
        goods[j] = value_[gate.fanin[j].value()].good;
        faults[j] = faulty_of(gate.fanin[j]);
      }
      for (const bool candidate : {true, false}) {
        goods[i] = v3_of(candidate);
        faults[i] = v3_of(candidate);
        for (int k = 0; k < cell.num_outputs; ++k) {
          const V3 go = eval_cell_v3(cell, k, {goods, gate.fanin.size()});
          const V3 fo = eval_cell_v3(cell, k, {faults, gate.fanin.size()});
          if (is_definite(go) && is_definite(fo) && go != fo) {
            return Objective{gate.fanin[i], candidate};
          }
        }
      }
      // Neither value provably propagates; still try one (search explores
      // the other on backtrack).
      return Objective{gate.fanin[i], true};
    }
  }
  return std::nullopt;
}

std::optional<Podem::Decision> Podem::backtrace(Objective obj) const {
  NetId net = obj.net;
  bool want = obj.value;
  for (;;) {
    if (source_ordinal_[net.value()] >= 0) {
      return Decision{static_cast<std::size_t>(source_ordinal_[net.value()]),
                      want, false};
    }
    const auto& n = nl_.net(net);
    if (!n.has_gate_driver()) return std::nullopt;  // undriven: dead end
    const GateId g = n.driver_gate;
    const auto& gate = nl_.gate(g);
    const CellSpec& cell = nl_.cell_of(g);
    const int out_pin = n.driver_pin;

    // Pick an X input; choose the value most likely to produce `want`.
    int chosen = -1;
    bool chosen_value = want;
    V3 ins[kMaxCellInputs];
    for (std::size_t j = 0; j < gate.fanin.size(); ++j) {
      ins[j] = value_[gate.fanin[j].value()].good;
    }
    for (std::size_t i = 0; i < gate.fanin.size() && chosen < 0; ++i) {
      if (ins[i] != V3::X) continue;
      for (const bool candidate : {true, false}) {
        V3 trial[kMaxCellInputs];
        std::copy(ins, ins + gate.fanin.size(), trial);
        trial[i] = v3_of(candidate);
        const V3 out =
            eval_cell_v3(cell, out_pin, {trial, gate.fanin.size()});
        if (out == v3_of(want) || out == V3::X) {
          chosen = static_cast<int>(i);
          chosen_value = candidate;
          if (out == v3_of(want)) break;  // exact justification preferred
        }
      }
    }
    if (chosen < 0) {
      // Every input definite yet output X is impossible; definite output
      // means the objective is already decided against us.
      return std::nullopt;
    }
    net = gate.fanin[static_cast<std::size_t>(chosen)];
    want = chosen_value;
  }
}

void Podem::assign_source(std::size_t source, V3 v) {
  trail_marks_.push_back(trail_.size());
  source_assign_[source] = v;
  const NetId src_net = view_.sources[source];
  if (value_[src_net.value()].good == v) return;
  trail_.push_back({src_net, value_[src_net.value()].good});
  value_[src_net.value()].good = v;
  // Event-driven propagation in level order, pruned to the gates the
  // current search can observe (see RelevantRegion). Each gate runs at
  // most once per assignment, after every scheduled predecessor; the
  // queue and the marks are members so this hot path never allocates.
  if (schedule_epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Clear the marks before epoch numbers repeat.
    std::fill(scheduled_.begin(), scheduled_.end(), 0);
    schedule_epoch_ = 0;
  }
  ++schedule_epoch_;
  const auto schedule_sinks = [&](NetId n) {
    for (const PinRef& sink : nl_.net(n).sinks) {
      const std::uint32_t gs = sink.gate.value();
      if (scheduled_[gs] == schedule_epoch_ ||
          !region_->relevant_gate(sink.gate)) {
        continue;
      }
      scheduled_[gs] = schedule_epoch_;
      queue_.push(view_.level[gs], gs);
    }
  };
  schedule_sinks(src_net);
  while (!queue_.empty()) {
    const auto& gate = nl_.gate(GateId{queue_.pop()});
    const auto& luts = lut_[gate.cell.value()];
    const std::size_t idx = lut_index(gate);
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      const NetId out = gate.outputs[k];
      const V3 nv = static_cast<V3>(luts[k][idx]);
      if (value_[out.value()].good != nv) {
        trail_.push_back({out, value_[out.value()].good});
        value_[out.value()].good = nv;
        schedule_sinks(out);
      }
    }
  }
}

void Podem::undo_last_assignment() {
  const std::size_t mark = trail_marks_.back();
  trail_marks_.pop_back();
  while (trail_.size() > mark) {
    value_[trail_.back().net.value()].good = trail_.back().old_good;
    trail_.pop_back();
  }
}

Podem::Outcome Podem::search(const RelevantRegion& region,
                             std::vector<V3>* test) {
  assert(&region.netlist() == &nl_);
  region_ = &region;
  const bool detect = region.is_detect();
  std::fill(source_assign_.begin(), source_assign_.end(), V3::X);
  std::vector<Decision>& stack = stack_;
  stack.clear();
  long backtracks = 0;
  trail_.clear();
  trail_marks_.clear();
  simulate_good();  // all-X baseline; decisions propagate incrementally

  for (;;) {
    const V3 excited = excitation_state();
    bool need_backtrack = false;

    if (excited == V3::Zero) {
      need_backtrack = true;  // a condition literal is definitely broken
    } else if (detect) {
      const V5& v = value_[region.victim().value()];
      if (v.good == v3_of(region.faulty_value())) {
        need_backtrack = true;  // victim cannot oppose the forced value
      } else {
        simulate_faulty(excited);
        if (observed_) {
          if (test) *test = source_assign_;
          return Outcome::Detected;
        }
        if (!x_path_exists(region.victim())) need_backtrack = true;
      }
    } else if (excited == V3::One) {
      if (test) *test = source_assign_;
      return Outcome::Detected;  // justification complete
    }

    if (!need_backtrack) {
      const auto obj = pick_objective();
      if (!obj) {
        need_backtrack = true;
      } else {
        const auto decision = backtrace(*obj);
        if (!decision) {
          need_backtrack = true;
        } else {
          assign_source(decision->source, v3_of(decision->value));
          stack.push_back(*decision);
          continue;
        }
      }
    }

    // Backtrack: flip the deepest unflipped decision.
    ++total_backtracks_;
    if (++backtracks > config_.backtrack_limit) return Outcome::Aborted;
    if ((backtracks & 63) == 0 && cancel_expired(config_.cancel)) {
      return Outcome::Aborted;
    }
    while (!stack.empty() && stack.back().flipped) {
      undo_last_assignment();
      source_assign_[stack.back().source] = V3::X;
      stack.pop_back();
    }
    if (stack.empty()) return Outcome::Undetectable;
    undo_last_assignment();
    stack.back().flipped = true;
    stack.back().value = !stack.back().value;
    assign_source(stack.back().source, v3_of(stack.back().value));
  }
}

}  // namespace dfmres
