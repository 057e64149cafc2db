#pragma once

// Width-generic implementation of the fault-simulation hot paths,
// instantiated once per SimWord type in the ISA-flagged kernel
// translation units (see fault_sim_kernel.hpp for the registry). The
// logic is a lane-for-lane widening of the historical 64-lane kernel:
// every operation is bitwise and lane-local, and event scheduling fires
// on whole-Word inequality, so the wide event wave is the union of the
// per-64-lane-group scalar waves and each group's stamped values match
// a scalar run over that group's patterns exactly. That is the
// bit-identity contract tests/simd_kernel_test.cpp sweeps.
//
// Detection queries share work per victim net: the first excitation
// that reaches a victim in a loaded batch runs one propagation wave
// with the victim flipped in every active lane and memoizes the lanes
// in which an observation point changed; every later excitation of that
// victim costs only its condition literals plus one AND. The memo is
// exact (lane-local evaluation makes a lane's outcome independent of the
// other lanes), so masks equal a per-excitation propagation bit for bit.
//
// Only fault_sim_kernel_*.cpp may include this header: Kernel<Word> is
// a friend of FaultSimulator and reaches straight into the frame and
// scratch members.

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/atpg/fault_sim.hpp"
#include "src/atpg/fault_sim_kernel.hpp"
#include "src/netlist/dense_view.hpp"
#include "src/sim/eval_kernel.hpp"
#include "src/sim/sim_word.hpp"

namespace dfmres::fsim {

template <class Word>
struct Kernel {
  static constexpr int W = Word::kWords;

  // ---- frame accessors (overlay indirection) ----
  // In full mode dirty_ is null and values come straight from the bound
  // frames; in overlay mode a marked slot reads its materialized words.

  static Word g0(const FaultSimulator& s, std::uint32_t n) {
    const std::uint64_t* f =
        (s.dirty_ != nullptr && s.dirty_[n]) ? s.o0_ : s.g0_;
    return Word::load(f + static_cast<std::size_t>(n) * W);
  }
  static Word g1(const FaultSimulator& s, std::uint32_t n) {
    const std::uint64_t* f =
        (s.dirty_ != nullptr && s.dirty_[n]) ? s.o1_ : s.g1_;
    return Word::load(f + static_cast<std::size_t>(n) * W);
  }

  // ---- SoA event heap ----
  // Min-heap on topological position with the gate slot riding along in
  // a parallel array: the sift compares touch only the position lane.
  // Topo positions are unique per gate, so the pop order is exactly the
  // old pair-heap's order.

  static void push_event(std::vector<std::uint32_t>& pos,
                         std::vector<std::uint32_t>& gate, std::uint32_t p,
                         std::uint32_t g) {
    pos.push_back(p);
    gate.push_back(g);
    std::size_t i = pos.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (pos[parent] <= pos[i]) break;
      std::swap(pos[parent], pos[i]);
      std::swap(gate[parent], gate[i]);
      i = parent;
    }
  }

  static std::uint32_t pop_event(std::vector<std::uint32_t>& pos,
                                 std::vector<std::uint32_t>& gate) {
    const std::uint32_t top = gate[0];
    pos[0] = pos.back();
    gate[0] = gate.back();
    pos.pop_back();
    gate.pop_back();
    const std::size_t n = pos.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t m = i;
      if (l < n && pos[l] < pos[m]) m = l;
      if (r < n && pos[r] < pos[m]) m = r;
      if (m == i) break;
      std::swap(pos[m], pos[i]);
      std::swap(gate[m], gate[i]);
      i = m;
    }
    return top;
  }

  // ---- good-machine evaluation ----

  /// Packs tests[first..first+lanes) into per-source W-word lane
  /// vectors: lane L lands in bit L%64 of word s*W + L/64.
  static void pack_sources(const DenseView& v,
                           std::span<const TestPattern> tests,
                           std::size_t first, int lanes,
                           std::vector<std::uint64_t>& src0,
                           std::vector<std::uint64_t>& src1) {
    const std::size_t num_sources = v.sources.size();
    src0.assign(num_sources * W, 0);
    src1.assign(num_sources * W, 0);
    for (int lane = 0; lane < lanes; ++lane) {
      const TestPattern& t = tests[first + static_cast<std::size_t>(lane)];
      const std::size_t g = static_cast<std::size_t>(lane) >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
      for (std::size_t s = 0; s < num_sources; ++s) {
        if (t.frame0[s]) src0[s * W + g] |= bit;
        if (t.frame1[s]) src1[s * W + g] |= bit;
      }
    }
  }

  /// Full good-machine evaluation of BOTH frames in one fused
  /// topological pass: the CSR rows and cell metadata stream through
  /// the cache once and serve 2*W*64 pattern lanes in lock-step (the
  /// cache-blocked wave — blocking over patterns, not gates, because
  /// the traversal itself is already a single linear sweep of the SoA
  /// arrays). Slots never written (dead or undriven nets) keep their
  /// prior contents, so callers zero-fill once at rebind.
  static void eval_frames_fused(const DenseView& v, const std::uint64_t* src0,
                                const std::uint64_t* src1, std::uint64_t* f0,
                                std::uint64_t* f1) {
    for (std::size_t s = 0; s < v.sources.size(); ++s) {
      const std::size_t slot = static_cast<std::size_t>(v.sources[s]) * W;
      for (int i = 0; i < W; ++i) {
        f0[slot + i] = src0[s * W + i];
        f1[slot + i] = src1[s * W + i];
      }
    }
    Word in0[kMaxCellInputs], in1[kMaxCellInputs];
    for (std::uint32_t gs : v.order) {
      const CellSpec& cell = *v.cell[gs];
      const std::uint32_t fb = v.fanin_offset[gs];
      const std::size_t nin = v.fanin_offset[gs + 1] - fb;
      for (std::size_t i = 0; i < nin; ++i) {
        const std::size_t slot =
            static_cast<std::size_t>(v.fanin_net[fb + i]) * W;
        in0[i] = Word::load(f0 + slot);
        in1[i] = Word::load(f1 + slot);
      }
      const std::uint32_t ob = v.output_offset[gs];
      for (int k = 0; k < cell.num_outputs; ++k) {
        const std::size_t slot =
            static_cast<std::size_t>(
                v.output_net[ob + static_cast<std::uint32_t>(k)]) *
            W;
        eval_cell_word(cell, k, in0, nin).store(f0 + slot);
        eval_cell_word(cell, k, in1, nin).store(f1 + slot);
      }
    }
  }

  // ---- KernelOps entry points ----

  static void load(FaultSimulator& s, std::span<const TestPattern> tests,
                   std::size_t first, std::size_t count) {
    pack_sources(*s.view_, tests, first, s.lanes_, s.src0_, s.src1_);
    eval_frames_fused(*s.view_, s.src0_.data(), s.src1_.data(),
                      s.good0_.data(), s.good1_.data());
    s.bind_own_frames();
    (void)count;
  }

  static void load_overlay(FaultSimulator& s, const GoodFrames& gf,
                           const CowPlan& plan, std::size_t count) {
    const DenseView& v = *s.view_;
    assert(gf.lanes == s.lanes_ && gf.words == W);
    assert(plan.valid && plan.dirty.size() == v.net_slots);
    s.g0_ = gf.good0.data();
    s.g1_ = gf.good1.data();
    s.o0_ = s.ov0_.data();
    s.o1_ = s.ov1_.data();
    // Undo the previous batch's marks instead of clearing O(netlist).
    for (std::uint32_t n : s.ov_dirty_list_) s.ov_dirty_[n] = 0;
    s.ov_dirty_list_.clear();
    s.dirty_ = s.ov_dirty_.data();

    // Event-driven replay with value cutoff: re-evaluate the edited
    // gates, record an output slot only when its recomputed Word
    // differs from the baseline frames, and wake a reader only for
    // recorded slots. For a function-preserving rewrite the wave dies
    // at the region boundary, so the materialized slots track the edit,
    // not its structural fanout cone. Soundness: a non-seed gate has
    // identical pin rows in both designs, so if its input slots carry
    // the baseline values its stored outputs are already correct.
    const auto mark = [&](std::uint32_t n, Word w0, Word w1) {
      if (!s.ov_dirty_[n]) {
        s.ov_dirty_[n] = 1;
        s.ov_dirty_list_.push_back(n);
      }
      w0.store(s.ov0_.data() + static_cast<std::size_t>(n) * W);
      w1.store(s.ov1_.data() + static_cast<std::size_t>(n) * W);
    };
    s.event_pos_.clear();
    s.event_gate_.clear();
    s.touched_gates_.clear();
    const auto schedule = [&](std::uint32_t gs) {
      if (!s.scheduled_[gs]) {
        s.scheduled_[gs] = 1;
        s.touched_gates_.push_back(gs);
        push_event(s.event_pos_, s.event_gate_, v.topo_pos[gs], gs);
      }
    };
    // Slots the baseline frames cannot answer for start at 0 — the
    // value a full load leaves in slots nothing writes — and wake their
    // readers; a live driver (always a seed gate) overwrites them below.
    for (std::uint32_t n : plan.seed_nets) {
      mark(n, Word::zero(), Word::zero());
      for (std::uint32_t i = v.fanout_offset[n]; i < v.fanout_offset[n + 1];
           ++i) {
        schedule(v.fanout_gate[i]);
      }
    }
    for (std::uint32_t gs : plan.seed_gates) schedule(gs);
    Word in0[kMaxCellInputs], in1[kMaxCellInputs];
    while (!s.event_pos_.empty()) {
      const std::uint32_t gs = pop_event(s.event_pos_, s.event_gate_);
      const CellSpec& cell = *v.cell[gs];
      const std::uint32_t fb = v.fanin_offset[gs];
      const std::size_t nin = v.fanin_offset[gs + 1] - fb;
      for (std::size_t i = 0; i < nin; ++i) {
        const std::uint32_t n = v.fanin_net[fb + i];
        in0[i] = g0(s, n);
        in1[i] = g1(s, n);
      }
      const std::uint32_t ob = v.output_offset[gs];
      for (int k = 0; k < cell.num_outputs; ++k) {
        const std::uint32_t out =
            v.output_net[ob + static_cast<std::uint32_t>(k)];
        const Word w0 = eval_cell_word(cell, k, in0, nin);
        const Word w1 = eval_cell_word(cell, k, in1, nin);
        const std::size_t slot = static_cast<std::size_t>(out) * W;
        if (s.ov_dirty_[out]) {
          // Preset slot (no baseline value): store unconditionally; its
          // readers were woken when it was preset.
          w0.store(s.ov0_.data() + slot);
          w1.store(s.ov1_.data() + slot);
        } else if (!(w0 == Word::load(s.g0_ + slot) &&
                     w1 == Word::load(s.g1_ + slot))) {
          mark(out, w0, w1);
          for (std::uint32_t i = v.fanout_offset[out];
               i < v.fanout_offset[out + 1]; ++i) {
            schedule(v.fanout_gate[i]);
          }
        }
        // else: bit-identical to the baseline — the wave stops here.
      }
    }
    // Scheduled flags persist across the pop (each gate runs once);
    // reset them for the detect queries that share the scratch.
    for (std::uint32_t gs : s.touched_gates_) s.scheduled_[gs] = 0;
    s.touched_gates_.clear();
    (void)count;
  }

  /// Lanes of the loaded batch in which flipping `victim` changes an
  /// observation point — the victim's observability, memoized per batch.
  /// A miss flips the victim in every active lane and runs one
  /// event-driven wave through its fanout cone; the entry then answers
  /// every later excitation of that victim until the next load.
  static Word observability(FaultSimulator& s, std::uint32_t victim) {
    const std::size_t vslot = static_cast<std::size_t>(victim) * W;
    if (s.obs_stamp_[victim] == s.obs_epoch_) {
      return Word::load(s.obs_.data() + vslot);
    }
    ++s.obs_propagations_;
    const DenseView& v = *s.view_;
    const Word lane_mask = Word::load(s.lane_mask_);

    // Event-driven forward propagation of the flip (frame 1 only).
    if (s.epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      // Epoch wraparound: a stale stamp equal to the restarted epoch
      // would silently resurrect old faulty values, so clear the
      // stamps before reusing epoch numbers.
      std::fill(s.stamp_.begin(), s.stamp_.end(), 0);
      s.epoch_ = 0;
    }
    ++s.epoch_;
    const auto fv_of = [&](std::uint32_t n) {
      return s.stamp_[n] == s.epoch_
                 ? Word::load(s.faulty_.data() +
                              static_cast<std::size_t>(n) * W)
                 : g1(s, n);
    };
    const auto set_fv = [&](std::uint32_t n, Word val) {
      val.store(s.faulty_.data() + static_cast<std::size_t>(n) * W);
      s.stamp_[n] = s.epoch_;
      s.touched_nets_.push_back(n);
      ++s.propagation_events_;
    };
    s.touched_nets_.clear();
    set_fv(victim, g1(s, victim) ^ lane_mask);

    // SoA min-heap of gates by topological position (reused buffers).
    // Sinks come from the view's combinational fanout CSR, which
    // already excludes sequential gates.
    s.event_pos_.clear();
    s.event_gate_.clear();
    s.touched_gates_.clear();
    const auto schedule_sinks = [&](std::uint32_t n) {
      for (std::uint32_t i = v.fanout_offset[n]; i < v.fanout_offset[n + 1];
           ++i) {
        const std::uint32_t gs = v.fanout_gate[i];
        if (!s.scheduled_[gs]) {
          s.scheduled_[gs] = 1;
          s.touched_gates_.push_back(gs);
          push_event(s.event_pos_, s.event_gate_, v.topo_pos[gs], gs);
        }
      }
    };
    schedule_sinks(victim);
    Word ins[kMaxCellInputs];
    while (!s.event_pos_.empty()) {
      const std::uint32_t gs = pop_event(s.event_pos_, s.event_gate_);
      const CellSpec& cell = *v.cell[gs];
      const std::uint32_t fb = v.fanin_offset[gs];
      const std::size_t nin = v.fanin_offset[gs + 1] - fb;
      for (std::size_t i = 0; i < nin; ++i) {
        ins[i] = fv_of(v.fanin_net[fb + i]);
      }
      const std::uint32_t ob = v.output_offset[gs];
      for (int k = 0; k < cell.num_outputs; ++k) {
        const std::uint32_t outn =
            v.output_net[ob + static_cast<std::uint32_t>(k)];
        const Word nv = eval_cell_word(cell, k, ins, nin);
        if (!(nv == fv_of(outn))) {
          set_fv(outn, nv);
          schedule_sinks(outn);
        }
      }
    }
    for (std::uint32_t gs : s.touched_gates_) s.scheduled_[gs] = 0;

    // Only nets stamped this epoch can disagree with the good machine,
    // so scan the touched set instead of every observation point. A
    // primary-output victim is observed directly in every flipped lane.
    Word obs = v.is_primary_output[victim] ? lane_mask : Word::zero();
    for (std::uint32_t ns : s.touched_nets_) {
      if (v.observe_flag[ns]) {
        const Word fv = Word::load(s.faulty_.data() +
                                   static_cast<std::size_t>(ns) * W);
        obs = obs | (fv ^ g1(s, ns));
      }
    }
    obs = obs & lane_mask;
    obs.store(s.obs_.data() + vslot);
    s.obs_stamp_[victim] = s.obs_epoch_;
    return obs;
  }

  static void detect(FaultSimulator& s,
                     std::span<const Excitation> excitations,
                     std::uint64_t* out) {
    for (int g = 0; g < s.groups_; ++g) out[g] = 0;
    if (cancel_expired(s.cancel_)) return;
    ++s.detect_mask_calls_;
    const Word lane_mask = Word::load(s.lane_mask_);
    Word detected = Word::zero();

    for (const Excitation& exc : excitations) {
      // Lanes where every condition literal holds and the victim's good
      // value opposes the forced value.
      Word e = lane_mask;
      for (const CondLiteral& lit : exc.lits) {
        const Word val =
            lit.frame == 0 ? g0(s, lit.net.value()) : g1(s, lit.net.value());
        e = lit.value ? (e & val) : e.andnot(val);
        if (e.none()) break;
      }
      if (e.none()) continue;
      const std::uint32_t victim = exc.victim.value();
      const Word victim_good = g1(s, victim);
      e = exc.faulty_value ? e.andnot(victim_good) : (e & victim_good);
      if (e.none()) continue;

      // In lanes e the faulty machine differs from the good one only at
      // the victim, and every gate evaluation is lane-local, so lane L of
      // e detects exactly when the all-lane flip is observed in lane L.
      detected = detected | (e & observability(s, victim));
      // All active lanes of every group detected: later excitations
      // cannot add bits in any group, exactly like the scalar early
      // exit (a full group stays full, so per-group results agree even
      // though the scalar kernel may stop after fewer excitations).
      if (detected == lane_mask) break;
    }
    std::uint64_t tmp[kMaxSimWords];
    detected.store(tmp);
    for (int g = 0; g < s.groups_; ++g) out[g] = tmp[g];
  }

  static void simulate_batch(const DenseView& dv,
                             std::span<const TestPattern> patterns,
                             std::size_t first, int lanes, GoodFrames* out,
                             std::vector<std::uint64_t>& src0,
                             std::vector<std::uint64_t>& src1) {
    out->lanes = lanes;
    out->words = W;
    out->good0.assign(static_cast<std::size_t>(dv.net_slots) * W, 0);
    out->good1.assign(static_cast<std::size_t>(dv.net_slots) * W, 0);
    pack_sources(dv, patterns, first, lanes, src0, src1);
    eval_frames_fused(dv, src0.data(), src1.data(), out->good0.data(),
                      out->good1.data());
  }

  /// Recomputes exactly the plan's dirty slots in place over full frame
  /// arrays (the rebase fold): zero the dirty slots, then evaluate the
  /// dirty gates in topological order. Clean inputs already hold
  /// correct values; dirty inputs were either written by an earlier
  /// dirty gate or are undriven and stay zero — the same contract a
  /// full load leaves behind.
  static void refresh_dirty(const DenseView& v, const CowPlan& plan,
                            std::uint64_t* f0, std::uint64_t* f1) {
    for (std::uint32_t n : plan.dirty_nets) {
      const std::size_t slot = static_cast<std::size_t>(n) * W;
      for (int i = 0; i < W; ++i) {
        f0[slot + i] = 0;
        f1[slot + i] = 0;
      }
    }
    Word in0[kMaxCellInputs], in1[kMaxCellInputs];
    for (std::uint32_t gs : plan.dirty_gates) {
      const CellSpec& cell = *v.cell[gs];
      const std::uint32_t fb = v.fanin_offset[gs];
      const std::size_t nin = v.fanin_offset[gs + 1] - fb;
      for (std::size_t i = 0; i < nin; ++i) {
        const std::size_t slot =
            static_cast<std::size_t>(v.fanin_net[fb + i]) * W;
        in0[i] = Word::load(f0 + slot);
        in1[i] = Word::load(f1 + slot);
      }
      const std::uint32_t ob = v.output_offset[gs];
      for (int k = 0; k < cell.num_outputs; ++k) {
        const std::size_t slot =
            static_cast<std::size_t>(
                v.output_net[ob + static_cast<std::uint32_t>(k)]) *
            W;
        eval_cell_word(cell, k, in0, nin).store(f0 + slot);
        eval_cell_word(cell, k, in1, nin).store(f1 + slot);
      }
    }
  }
};

/// Builds the ops table of one kernel instantiation; `name` is the
/// resolved-mode spelling the binding reports.
template <class Word>
[[nodiscard]] inline KernelOps make_kernel_ops(const char* name) {
  KernelOps ops;
  ops.name = name;
  ops.words = Word::kWords;
  ops.load = &Kernel<Word>::load;
  ops.load_overlay = &Kernel<Word>::load_overlay;
  ops.detect = &Kernel<Word>::detect;
  ops.simulate_batch = &Kernel<Word>::simulate_batch;
  ops.refresh_dirty = &Kernel<Word>::refresh_dirty;
  return ops;
}

}  // namespace dfmres::fsim
