#include "src/atpg/double_fault.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/netlist/level_queue.hpp"
#include "src/sim/parallel_sim.hpp"

#include "src/util/rng.hpp"

namespace dfmres {

namespace {

/// Lane mask where a pair of faults, both present, is detected.
/// Propagation reuses the single-fault simulator by injecting the second
/// victim's forced value as an extra excitation alternative is NOT sound;
/// instead we run a tiny dedicated two-victim forward pass here.
class PairSimulator {
 public:
  PairSimulator(const Netlist& nl, const CombView& view)
      : nl_(nl), view_(view), faulty_(view.net_slots), stamp_(view.net_slots, 0),
        scheduled_(view.level.size(), 0), good0_(view.net_slots),
        good1_(view.net_slots) {
    queue_.reset(view.num_levels);
  }

  void load(std::span<const TestPattern> tests, std::size_t first,
            std::size_t count) {
    lanes_ = static_cast<int>(std::min<std::size_t>(count, 64));
    const std::size_t num_sources = view_.sources.size();
    const auto run = [&](bool frame1, std::vector<std::uint64_t>& out) {
      for (std::size_t s = 0; s < num_sources; ++s) {
        std::uint64_t w = 0;
        for (int lane = 0; lane < lanes_; ++lane) {
          const TestPattern& t = tests[first + lane];
          if ((frame1 ? t.frame1 : t.frame0)[s]) w |= std::uint64_t{1} << lane;
        }
        out[view_.sources[s].value()] = w;
      }
      std::uint64_t ins[kMaxCellInputs];
      for (GateId g : view_.order) {
        const auto& gate = nl_.gate(g);
        const CellSpec& cell = nl_.cell_of(g);
        for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
          ins[i] = out[gate.fanin[i].value()];
        }
        for (int k = 0; k < cell.num_outputs; ++k) {
          out[gate.outputs[static_cast<std::size_t>(k)].value()] =
              ParallelSimulator::eval_cell(cell, k, {ins, gate.fanin.size()});
        }
      }
    };
    run(false, good0_);
    run(true, good1_);
  }

  /// Lanes where an excitation's condition cube holds. Unlike single-
  /// fault detection, the victim's good value is NOT required to oppose
  /// the forced value: the defect is physically present either way, and
  /// a forced-equal victim simply contributes no local difference.
  std::uint64_t condition_lanes(const Excitation& exc) const {
    std::uint64_t e = lanes_ == 64 ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << lanes_) - 1);
    for (const CondLiteral& lit : exc.lits) {
      const std::uint64_t v =
          (lit.frame == 0 ? good0_ : good1_)[lit.net.value()];
      e &= lit.value ? v : ~v;
      if (e == 0) return 0;
    }
    return e;
  }

  /// Detection lanes with BOTH faults injected at once.
  std::uint64_t detect_pair(const Excitation& a, std::uint64_t ea,
                            const Excitation& b, std::uint64_t eb) {
    ++epoch_;
    const auto fv_of = [&](NetId n) {
      return stamp_[n.value()] == epoch_ ? faulty_[n.value()]
                                         : good1_[n.value()];
    };
    const auto set_fv = [&](NetId n, std::uint64_t v) {
      faulty_[n.value()] = v;
      stamp_[n.value()] = epoch_;
    };
    const auto inject = [&](const Excitation& exc, std::uint64_t e) {
      const std::uint64_t cur = fv_of(exc.victim);
      set_fv(exc.victim,
             (cur & ~e) | (exc.faulty_value ? e : std::uint64_t{0}));
    };
    inject(a, ea);
    inject(b, eb);

    const auto schedule = [&](NetId n) {
      for (const PinRef& sink : nl_.net(n).sinks) {
        if (nl_.cell_of(sink.gate).sequential) continue;
        const std::uint32_t gs = sink.gate.value();
        if (scheduled_[gs] != epoch_) {
          scheduled_[gs] = epoch_;
          queue_.push(view_.level[gs], gs);
        }
      }
    };
    schedule(a.victim);
    schedule(b.victim);
    const auto reinject = [&](NetId out, std::uint64_t value) {
      // Keep the victims forced where excited even inside the cone.
      if (out == a.victim) {
        value = (value & ~ea) | (a.faulty_value ? ea : std::uint64_t{0});
      }
      if (out == b.victim) {
        value = (value & ~eb) | (b.faulty_value ? eb : std::uint64_t{0});
      }
      return value;
    };
    while (!queue_.empty()) {
      const GateId g{queue_.pop()};
      const auto& gate = nl_.gate(g);
      const CellSpec& cell = nl_.cell_of(g);
      std::uint64_t ins[kMaxCellInputs];
      for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
        ins[i] = fv_of(gate.fanin[i]);
      }
      for (int k = 0; k < cell.num_outputs; ++k) {
        const NetId out = gate.outputs[static_cast<std::size_t>(k)];
        const std::uint64_t nv = reinject(
            out,
            ParallelSimulator::eval_cell(cell, k, {ins, gate.fanin.size()}));
        if (nv != fv_of(out)) {
          set_fv(out, nv);
          schedule(out);
        }
      }
    }

    std::uint64_t detected = 0;
    for (NetId obs : view_.observe) {
      if (stamp_[obs.value()] == epoch_) {
        detected |= faulty_[obs.value()] ^ good1_[obs.value()];
      }
    }
    for (const Excitation* exc : {&a, &b}) {
      if (nl_.net(exc->victim).is_primary_output) {
        detected |= fv_of(exc->victim) ^ good1_[exc->victim.value()];
      }
    }
    return detected & (ea | eb);
  }

 private:
  const Netlist& nl_;
  const CombView& view_;
  int lanes_ = 0;
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> scheduled_;  // epoch-stamped, per gate slot
  LevelQueue queue_;
  std::vector<std::uint64_t> good0_, good1_;
};

std::uint64_t pair_detect_mask(PairSimulator& sim,
                               std::span<const Excitation> a,
                               std::span<const Excitation> b) {
  std::uint64_t detected = 0;
  if (a.empty() || b.empty()) {
    // A cell-level-undetectable partner never activates; the double
    // fault behaves like the other fault alone.
    const std::span<const Excitation> active = a.empty() ? b : a;
    for (const Excitation& e : active) {
      const std::uint64_t le = sim.condition_lanes(e);
      if (le != 0) detected |= sim.detect_pair(e, le, e, 0);
    }
    return detected;
  }
  for (const Excitation& ea : a) {
    const std::uint64_t la = sim.condition_lanes(ea);
    if (la == 0) continue;
    for (const Excitation& eb : b) {
      const std::uint64_t lb = sim.condition_lanes(eb);
      // Both defects are present; each is injected wherever its own
      // condition holds, and any resulting output difference counts.
      if ((la | lb) == 0) continue;
      detected |= sim.detect_pair(ea, la, eb, lb);
    }
  }
  return detected;
}

}  // namespace

std::vector<DoubleFaultTarget> enumerate_double_faults(
    const Netlist& nl, const FaultUniverse& universe,
    std::span<const FaultStatus> status, std::size_t max_per_fault) {
  // Per-gate lists of detectable faults.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> det_by_gate;
  for (std::uint32_t i = 0; i < universe.size(); ++i) {
    if (status[i] != FaultStatus::Detected) continue;
    for (GateId g : corresponding_gates(universe.faults[i], nl)) {
      det_by_gate[g.value()].push_back(i);
    }
  }
  std::vector<DoubleFaultTarget> targets;
  for (std::uint32_t i = 0; i < universe.size(); ++i) {
    if (status[i] != FaultStatus::Undetectable) continue;
    std::unordered_set<std::uint32_t> partners;
    const auto add_gate = [&](GateId g) {
      if (auto it = det_by_gate.find(g.value()); it != det_by_gate.end()) {
        for (std::uint32_t d : it->second) {
          if (partners.size() >= max_per_fault) return;
          partners.insert(d);
        }
      }
    };
    for (GateId g : corresponding_gates(universe.faults[i], nl)) {
      add_gate(g);
      // Adjacent gates: drivers of fanins and sinks of outputs.
      if (!nl.gate_alive(g)) continue;
      for (NetId in : nl.gate(g).fanin) {
        if (nl.net(in).has_gate_driver()) add_gate(nl.net(in).driver_gate);
      }
      for (NetId out : nl.gate(g).outputs) {
        for (const PinRef& sink : nl.net(out).sinks) add_gate(sink.gate);
      }
    }
    for (std::uint32_t d : partners) targets.push_back({i, d});
  }
  return targets;
}

DoubleFaultCoverage evaluate_double_fault_coverage(
    const Netlist& nl, const FaultUniverse& universe, const UdfmMap& udfm,
    std::span<const DoubleFaultTarget> targets,
    std::span<const TestPattern> tests) {
  DoubleFaultCoverage out;
  out.total = targets.size();
  if (targets.empty() || tests.empty()) return out;

  const CombView view = CombView::build(nl);
  PairSimulator sim(nl, view);
  std::vector<bool> covered(targets.size(), false);
  std::unordered_map<std::uint32_t, std::vector<Excitation>> exc_cache;
  const auto excs_of = [&](std::uint32_t fi) -> std::span<const Excitation> {
    auto [it, inserted] = exc_cache.try_emplace(fi);
    if (inserted) {
      it->second = build_excitations(universe.faults[fi], nl, udfm);
    }
    return it->second;
  };

  for (std::size_t first = 0; first < tests.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - first);
    sim.load(tests, first, count);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (covered[t]) continue;
      if (pair_detect_mask(sim, excs_of(targets[t].undetectable),
                           excs_of(targets[t].detectable)) != 0) {
        covered[t] = true;
        ++out.covered;
      }
    }
  }
  return out;
}

std::size_t augment_tests_for_double_faults(
    const Netlist& nl, const FaultUniverse& universe, const UdfmMap& udfm,
    std::span<const DoubleFaultTarget> targets, double goal,
    std::size_t max_new, std::uint64_t seed,
    std::vector<TestPattern>* tests) {
  const CombView view = CombView::build(nl);
  PairSimulator sim(nl, view);
  Rng rng(seed);
  std::vector<bool> covered(targets.size(), false);
  std::unordered_map<std::uint32_t, std::vector<Excitation>> exc_cache;
  const auto excs_of = [&](std::uint32_t fi) -> std::span<const Excitation> {
    auto [it, inserted] = exc_cache.try_emplace(fi);
    if (inserted) {
      it->second = build_excitations(universe.faults[fi], nl, udfm);
    }
    return it->second;
  };

  // Baseline coverage from the existing tests.
  std::size_t num_covered = 0;
  for (std::size_t first = 0; first < tests->size(); first += 64) {
    const std::size_t count =
        std::min<std::size_t>(64, tests->size() - first);
    sim.load(*tests, first, count);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (covered[t]) continue;
      if (pair_detect_mask(sim, excs_of(targets[t].undetectable),
                           excs_of(targets[t].detectable)) != 0) {
        covered[t] = true;
        ++num_covered;
      }
    }
  }

  std::size_t added = 0;
  const std::size_t num_sources = view.sources.size();
  while (added < max_new &&
         static_cast<double>(num_covered) <
             goal * static_cast<double>(targets.size())) {
    // One random batch; keep only lanes that newly cover a target.
    std::vector<TestPattern> batch;
    for (int lane = 0; lane < 64; ++lane) {
      TestPattern t;
      for (std::size_t s = 0; s < num_sources; ++s) {
        t.frame0.push_back(rng.flip());
        t.frame1.push_back(rng.flip());
      }
      batch.push_back(std::move(t));
    }
    sim.load(batch, 0, 64);
    std::uint64_t useful = 0;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (covered[t]) continue;
      const std::uint64_t mask =
          pair_detect_mask(sim, excs_of(targets[t].undetectable),
                           excs_of(targets[t].detectable));
      if (mask != 0) {
        covered[t] = true;
        ++num_covered;
        useful |= mask & (~mask + 1);
      }
    }
    if (useful == 0) break;  // random patterns stopped helping
    for (int lane = 0; lane < 64 && added < max_new; ++lane) {
      if ((useful >> lane) & 1) {
        tests->push_back(batch[static_cast<std::size_t>(lane)]);
        ++added;
      }
    }
  }
  return added;
}

}  // namespace dfmres
