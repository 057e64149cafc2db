#include "src/atpg/sat_atpg.hpp"

#include <cassert>
#include <chrono>

namespace dfmres {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Minterms of an n-input truth table where input `i` equals `bit`.
std::uint64_t input_mask(int i, bool bit, std::uint64_t full) {
  std::uint64_t m = 0;
  for (int p = 0; p < 64; ++p) {
    if (((p >> i) & 1) == static_cast<int>(bit)) m |= 1ull << p;
  }
  return m & full;
}

}  // namespace

SatAtpg::SatAtpg(const Netlist& nl, const CombView& view, Config config)
    : nl_(nl), view_(view), config_(config) {
  good_var_.assign(view.net_slots, kNoVar);
  gate_encoded_.assign(nl.gate_capacity(), 0);
  cone_var_.assign(view.net_slots, kNoVar);
  covers_.resize(nl.library().num_cells());
  cover_ready_.assign(nl.library().num_cells(), 0);
  const_var_ = solver_.new_var();
  solver_.add_clause({constant(true)});
}

const std::array<std::vector<SatAtpg::Cube>, kMaxCellOutputs>& SatAtpg::cover(
    CellId cell) {
  auto& covers = covers_[cell.value()];
  if (cover_ready_[cell.value()]) return covers;
  cover_ready_[cell.value()] = 1;
  const CellSpec& spec = nl_.library().cell(cell);
  const int n = spec.num_inputs;
  const std::uint64_t full = n >= 6 ? ~0ull : (1ull << (1u << n)) - 1;
  std::uint64_t masks[kMaxCellInputs][2];
  for (int i = 0; i < n; ++i) {
    masks[i][0] = input_mask(i, false, full);
    masks[i][1] = input_mask(i, true, full);
  }
  const auto minterms = [&](unsigned care, unsigned value) {
    std::uint64_t m = full;
    for (int i = 0; i < n; ++i) {
      if ((care >> i) & 1u) m &= masks[i][(value >> i) & 1u];
    }
    return m;
  };
  // Every cube whose minterms all give `out` and none of whose literals
  // can be dropped: the prime implicants of the output and of its
  // complement. Together they make unit propagation exact per cell.
  for (int k = 0; k < spec.num_outputs; ++k) {
    const std::uint64_t on = spec.truth(k) & full;
    for (const bool out : {true, false}) {
      const std::uint64_t target = out ? on : ~on & full;
      for (unsigned care = 0; care < (1u << n); ++care) {
        unsigned value = care;
        for (;;) {
          if ((minterms(care, value) & ~target) == 0) {
            bool prime = true;
            for (int i = 0; i < n && prime; ++i) {
              if (!((care >> i) & 1u)) continue;
              const unsigned wider = care & ~(1u << i);
              prime = (minterms(wider, value & wider) & ~target) != 0;
            }
            if (prime) {
              covers[static_cast<std::size_t>(k)].push_back(
                  {static_cast<std::uint8_t>(care),
                   static_cast<std::uint8_t>(value), out});
            }
          }
          if (value == 0) break;
          value = (value - 1) & care;
        }
      }
    }
  }
  return covers;
}

void SatAtpg::add(std::vector<SatLit>& clause, bool guarded) {
  if (guarded) clause.push_back(~act_);
  ++stats_.clauses;
  solver_.add_clause(clause);
}

void SatAtpg::add_guarded(std::initializer_list<SatLit> lits) {
  clause_.assign(lits);
  add(clause_, true);
}

void SatAtpg::encode_cell(GateId g, std::span<const SatLit> ins,
                          std::span<const SatLit> outs, bool guarded) {
  const auto& covers = cover(nl_.gate(g).cell);
  for (std::size_t k = 0; k < outs.size(); ++k) {
    for (const Cube& cube : covers[k]) {
      clause_.clear();
      for (std::size_t i = 0; i < ins.size(); ++i) {
        if (!((cube.care >> i) & 1u)) continue;
        const bool bit = ((cube.value >> i) & 1u) != 0;
        clause_.push_back(bit ? ~ins[i] : ins[i]);
      }
      clause_.push_back(cube.out ? outs[k] : ~outs[k]);
      add(clause_, guarded);
    }
  }
}

SatLit SatAtpg::good(NetId n) {
  std::uint32_t& var = good_var_[n.value()];
  if (var == kNoVar) var = solver_.new_var();
  return SatLit::pos(var);
}

void SatAtpg::encode_good(const RelevantRegion& region) {
  for (const NetId n : region.nets()) {
    if (good_var_[n.value()] == kNoVar) {
      const SatLit g = good(n);
      // Undriven: the fault simulator reads such nets as 0. Sources are
      // free variables.
      if (!region.is_source(n) && !nl_.net(n).has_gate_driver()) {
        clause_.assign(1, ~g);
        add(clause_, false);
      }
    }
    decisions_.push_back(good_var_[n.value()]);
  }
  SatLit ins[kMaxCellInputs];
  SatLit outs[kMaxCellOutputs];
  for (const GateId g : region.gates()) {
    if (gate_encoded_[g.value()]) continue;
    gate_encoded_[g.value()] = 1;
    const auto& gate = nl_.gate(g);
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      ins[i] = good(gate.fanin[i]);
    }
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      outs[k] = good(gate.outputs[k]);
    }
    encode_cell(g, {ins, gate.fanin.size()}, {outs, gate.outputs.size()},
                false);
  }
}

SatSolver::Result SatAtpg::solve(long budget) {
  const SatSolver::Result r =
      solver_.solve(assumptions_, decisions_, budget, config_.cancel);
  stats_.conflicts += solver_.conflicts();
  return r;
}

Podem::Outcome SatAtpg::finish(SatSolver::Result r,
                               const RelevantRegion& region,
                               std::vector<V3>* test) {
  if (r == SatSolver::Result::Unsat) {
    ++stats_.undetectable;
    return Podem::Outcome::Undetectable;
  }
  if (r == SatSolver::Result::Unknown) {
    ++stats_.aborted;
    return Podem::Outcome::Aborted;
  }
  ++stats_.detected;
  // The region's sources are decisions, so all of them are assigned,
  // and the assignment extends to a model (DESIGN.md §18).
  if (test != nullptr) {
    test->assign(view_.sources.size(), V3::X);
    for (std::size_t i = 0; i < view_.sources.size(); ++i) {
      const NetId src = view_.sources[i];
      if (region.relevant_net(src)) {
        (*test)[i] = v3_of(solver_.model_value(good_var_[src.value()]));
      }
    }
  }
  return Podem::Outcome::Detected;
}

void SatAtpg::retire_cone() {
  if (!cone_victim_.valid()) return;
  solver_.retire(act_, cone_vars_);
  for (const NetId n : cone_nets_) cone_var_[n.value()] = kNoVar;
  cone_nets_.clear();
  cone_vars_.clear();
  cone_victim_ = NetId::invalid();
}

void SatAtpg::encode_cone(const RelevantRegion& region) {
  retire_cone();
  const NetId victim = region.victim();
  const bool faulty_value = region.faulty_value();
  cone_victim_ = victim;
  cone_value_ = faulty_value;
  act_ = SatLit::pos(solver_.new_var());
  // Each cone net gets three variables: its faulty value, its difference
  // d_n (good != faulty) and its activity a_n (see the path clauses
  // below). The victim's are constants: faulty = faulty_value, d = a = 1.
  for (GateId g : region.cone_gates()) {
    for (NetId out : nl_.gate(g).outputs) {
      cone_var_[out.value()] =
          static_cast<std::uint32_t>(cone_vars_.size() / 3);
      for (int k = 0; k < 3; ++k) cone_vars_.push_back(solver_.new_var());
      cone_nets_.push_back(out);
    }
  }
  const auto cone_lit = [&](NetId n, int k) {
    return SatLit::pos(cone_vars_[3 * cone_var_[n.value()] + k]);
  };
  const auto faulty = [&](NetId n) {
    if (n == victim) return constant(faulty_value);
    return region.in_cone(n) ? cone_lit(n, 0) : good(n);
  };
  const auto diff = [&](NetId n) {
    return n == victim ? constant(true) : cone_lit(n, 1);
  };
  const auto active = [&](NetId n) {
    return n == victim ? constant(true) : cone_lit(n, 2);
  };
  // The faulty cone, then Larrabee's active-path clauses, all under the
  // cone's activation literal. A net differs only if a cone fanin
  // differs. An active net lies on one chosen propagation path: it
  // differs, and unless it is observed the path goes on through one of
  // its sinks. The victim is active, so the path must reach an
  // observation point. All of this is implied by the miter, but it lets
  // the solver refute propagation structurally instead of by
  // enumerating side-input values. (The path needs its own variable: a
  // difference may die out on a reconvergent branch.)
  SatLit ins[kMaxCellInputs];
  SatLit outs[kMaxCellOutputs];
  observed_.clear();
  const auto extend = [&](NetId n) {
    if (region.is_observed(n)) {
      observed_.push_back(diff(n));
      return;
    }
    path_.assign(1, ~active(n));
    for (const PinRef& sink : nl_.net(n).sinks) {
      if (nl_.cell_of(sink.gate).sequential) continue;
      for (NetId out : nl_.gate(sink.gate).outputs) {
        path_.push_back(active(out));
      }
    }
    add(path_, true);
  };
  extend(victim);
  for (GateId g : region.cone_gates()) {
    const auto& gate = nl_.gate(g);
    for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
      ins[i] = faulty(gate.fanin[i]);
    }
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      outs[k] = faulty(gate.outputs[k]);
    }
    encode_cell(g, {ins, gate.fanin.size()}, {outs, gate.outputs.size()},
                true);
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      const NetId out = gate.outputs[k];
      const SatLit d = diff(out), gd = good(out), f = outs[k];
      add_guarded({~d, gd, f});
      add_guarded({~d, ~gd, ~f});
      add_guarded({d, ~gd, f});
      add_guarded({d, gd, ~f});
      add_guarded({~active(out), d});
      path_.assign(1, ~d);
      for (NetId in : gate.fanin) {
        if (region.in_cone(in)) path_.push_back(diff(in));
      }
      add(path_, true);
      extend(out);
    }
  }
  add(observed_, true);  // just ~act: no observation point reachable
}

Podem::Outcome SatAtpg::justify(const RelevantRegion& region,
                                std::vector<V3>* test) {
  assert(!region.is_detect());
  const auto start = Clock::now();
  ++stats_.calls;
  decisions_.clear();
  encode_good(region);
  assumptions_.clear();
  for (const CondLiteral& lit : region.lits()) {
    assumptions_.push_back(SatLit::of(good(lit.net).var(), lit.value));
  }
  const Podem::Outcome r = finish(solve(config_.conflict_limit), region, test);
  stats_.seconds += seconds_since(start);
  return r;
}

Podem::Outcome SatAtpg::detect(const RelevantRegion& region,
                               std::vector<V3>* test) {
  assert(region.is_detect());
  const auto start = Clock::now();
  ++stats_.calls;
  const NetId victim = region.victim();
  const bool faulty_value = region.faulty_value();
  // The excitation first: the literals and the victim's good value on
  // the good machine alone, by propagation only (a zero conflict
  // budget). Most undetectable calls end here, with no faulty cone
  // encoded; a conflict leaves a learnt good-machine clause behind.
  decisions_.clear();
  encode_good(region);
  assumptions_.clear();
  assumptions_.push_back(SatLit::of(good(victim).var(), !faulty_value));
  for (const CondLiteral& lit : region.lits()) {
    assumptions_.push_back(SatLit::of(good(lit.net).var(), lit.value));
  }
  SatSolver::Result result = solve(0);
  // The assumptions before the literals: the victim's good value here,
  // the cone's activation literal too in the miter.
  std::size_t literal_free_depth = 1;
  if (result != SatSolver::Result::Unsat) {
    // Then the miter. The cone of the previous detect call is reused
    // by a call on the same victim and faulty value. That is rare: an
    // unobservable victim's calls alternate faulty values, and a
    // literal-free U proof answers the later ones from the proof memo.
    // Over `flow aes_core` the reuse hit 8 of 101 miter solves (43 of 196
    // before the memo's cone key; EXPERIMENTS.md, "Literal-free U
    // proofs").
    if (victim != cone_victim_ || faulty_value != cone_value_) {
      encode_cone(region);
    }
    // The cone's variables are the first decisions, so the solver's
    // initial decisions are on the propagation path, which refutes
    // unobservable faults in fewer conflicts than branching on the good
    // machine first.
    decisions_.insert(decisions_.begin(), cone_vars_.begin(),
                      cone_vars_.end());
    assumptions_.insert(assumptions_.begin(), act_);
    // The call's budget counts the first solve's conflicts too.
    result = solve(config_.conflict_limit -
                   static_cast<long>(solver_.conflicts()));
    literal_free_depth = 2;
  }
  literal_free_ = result == SatSolver::Result::Unsat &&
                  solver_.core_depth() <= literal_free_depth;
  const Podem::Outcome r = finish(result, region, test);
  stats_.seconds += seconds_since(start);
  return r;
}

}  // namespace dfmres
