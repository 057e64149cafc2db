#include "src/atpg/fault_sim.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>

#include "src/atpg/fault_sim_kernel.hpp"
#include "src/util/trace.hpp"

namespace dfmres {
namespace {

SimBaseline build_baseline_over(std::shared_ptr<const DenseView> dv,
                                std::span<const TestPattern> seeds,
                                std::uint64_t random_seed,
                                int random_batches) {
  const fsim::KernelOps* ops = fsim::active_kernel_ops();
  const std::size_t capacity = 64 * static_cast<std::size_t>(ops->words);
  SimBaseline out;
  out.num_patterns = seeds.size();
  out.frame_width = dv->sources.size();
  out.seeds_hash = seed_tests_hash(seeds);
  out.words = ops->words;
  std::vector<std::uint64_t> src0, src1;
  for (std::size_t first = 0; first < seeds.size(); first += capacity) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(seeds.size() - first, capacity));
    GoodFrames gf;
    ops->simulate_batch(*dv, seeds, first, lanes, &gf, src0, src1);
    out.batches.push_back(std::move(gf));
  }
  // Phase-1 random batches: draw exactly as the engine does (64 pattern
  // pairs per engine batch, frame0 then frame1) from a fresh rng at the
  // given seed — the draws are rng-sequential, so drawing every batch up
  // front leaves the identical stream — then simulate them packed
  // `words` engine batches per wide batch, matching the engine's own
  // wide chunking.
  out.random_seed = random_seed;
  out.random_batch_count = random_batches;
  Rng rng(random_seed);
  const std::size_t total = 64 * static_cast<std::size_t>(random_batches);
  for (std::size_t i = 0; i < total; ++i) {
    out.random_patterns.push_back({random_sim_frame(out.frame_width, rng),
                                   random_sim_frame(out.frame_width, rng)});
  }
  for (std::size_t first = 0; first < total; first += capacity) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(total - first, capacity));
    GoodFrames gf;
    ops->simulate_batch(*dv, out.random_patterns, first, lanes, &gf, src0,
                        src1);
    out.random_batches.push_back(std::move(gf));
  }
  out.view = std::move(dv);
  return out;
}

}  // namespace

std::vector<std::uint8_t> random_sim_frame(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) v = rng.flip() ? 1 : 0;
  return out;
}

std::uint64_t seed_tests_hash(std::span<const TestPattern> seeds) {
  // FNV-1a over pattern count, frame widths, and frame bytes in order.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  const auto mix_frame = [&](const std::vector<std::uint8_t>& f) {
    mix(f.size());
    for (std::uint8_t b : f) mix(b);
  };
  mix(seeds.size());
  for (const TestPattern& t : seeds) {
    mix_frame(t.frame0);
    mix_frame(t.frame1);
  }
  return h;
}

SimBaseline build_sim_baseline(const Netlist& nl,
                               std::span<const TestPattern> seeds,
                               std::uint64_t random_seed,
                               int random_batches) {
  if (seeds.empty()) return {};
  const CombView view = CombView::build(nl);
  return build_baseline_over(DenseView::build_shared(nl, view), seeds,
                             random_seed, random_batches);
}

void rebase_sim_baseline(SimBaseline& base, const Netlist& nl,
                         std::span<const TestPattern> seeds,
                         std::uint64_t random_seed, int random_batches) {
  if (seeds.empty()) {
    base.clear();
    return;
  }
  TraceSpan span("fsim.rebase", "fsim");
  const CombView view = CombView::build(nl);
  auto dv = DenseView::build_shared(nl, view);
  const fsim::KernelOps* ops = fsim::active_kernel_ops();
  // The random patterns are a function of (seed, frame width), so an
  // unchanged width keeps them valid through a fold; a changed random
  // configuration — or a changed SimWord width, which changes the frame
  // layout itself — forces the full rebuild below.
  if (base.valid() && base.seeds_hash == seed_tests_hash(seeds) &&
      base.num_patterns == seeds.size() &&
      base.frame_width == dv->sources.size() &&
      base.random_seed == random_seed &&
      base.random_batch_count == random_batches &&
      base.words == ops->words) {
    const CowPlan plan = build_cow_plan(*dv, *base.view);
    if (plan.valid) {
      if (span.active()) {
        span.arg("fold_dirty_nets", static_cast<int>(plan.dirty_nets.size()));
      }
      const std::size_t slots =
          static_cast<std::size_t>(dv->net_slots) * ops->words;
      const auto fold = [&](GoodFrames& gf) {
        // resize() zero-fills slots the old design did not have; the
        // plan marks all of them dirty anyway.
        gf.good0.resize(slots, 0);
        gf.good1.resize(slots, 0);
        ops->refresh_dirty(*dv, plan, gf.good0.data(), gf.good1.data());
      };
      for (GoodFrames& gf : base.batches) fold(gf);
      for (GoodFrames& gf : base.random_batches) fold(gf);
      base.view = std::move(dv);
      return;
    }
  }
  base = build_baseline_over(std::move(dv), seeds, random_seed,
                             random_batches);
}

CowPlan build_cow_plan(const DenseView& cand, const DenseView& base) {
  CowPlan plan;
  // The overlay contract needs identical source vectors (baseline frames
  // are reused without re-packing the scan loads).
  if (cand.sources != base.sources) return plan;

  const auto row_differs = [](const std::vector<std::uint32_t>& off_a,
                              const std::vector<std::uint32_t>& net_a,
                              const std::vector<std::uint32_t>& off_b,
                              const std::vector<std::uint32_t>& net_b,
                              std::uint32_t g) {
    const std::uint32_t ba = off_a[g], bb = off_b[g];
    const std::uint32_t la = off_a[g + 1] - ba, lb = off_b[g + 1] - bb;
    if (la != lb) return true;
    for (std::uint32_t i = 0; i < la; ++i) {
      if (net_a[ba + i] != net_b[bb + i]) return true;
    }
    return false;
  };

  // Seed set: gates that structurally differ between the two views.
  std::vector<std::uint8_t> gate_dirty(cand.gate_slots, 0);
  for (std::uint32_t g = 0; g < cand.gate_slots; ++g) {
    bool differs;
    if (g >= base.gate_slots) {
      differs = cand.cell[g] != nullptr;
    } else {
      differs = cand.cell[g] != base.cell[g] ||
                row_differs(cand.fanin_offset, cand.fanin_net,
                            base.fanin_offset, base.fanin_net, g) ||
                row_differs(cand.output_offset, cand.output_net,
                            base.output_offset, base.output_net, g);
    }
    if (!differs) continue;
    // An edited sequential gate changes a frame source; the overlay
    // replays sources verbatim, so bail out to full loads.
    if (cand.is_sequential[g] ||
        (g < base.gate_slots && base.cell[g] != nullptr &&
         base.is_sequential[g])) {
      return plan;
    }
    if (cand.cell[g] != nullptr) gate_dirty[g] = 1;
  }
  // The seeds themselves, before closure expansion, in candidate topo
  // order — the start set of the value-cutoff overlay replay.
  std::vector<std::uint8_t> seed_gate = gate_dirty;

  // Seed dirty nets: slots the baseline frames do not cover, nets whose
  // driver changed (covers gate removal), and outputs of dirty gates.
  plan.dirty.assign(cand.net_slots, 0);
  std::vector<std::uint32_t> worklist;
  const auto mark_net = [&](std::uint32_t n) {
    if (!plan.dirty[n]) {
      plan.dirty[n] = 1;
      worklist.push_back(n);
    }
  };
  for (std::uint32_t n = 0; n < cand.net_slots; ++n) {
    if (n >= base.net_slots || cand.driver[n] != base.driver[n]) {
      mark_net(n);
      // The overlay can read every other slot straight from the baseline
      // frames and let seed-gate evaluation decide what changed; these
      // it must preset (no baseline value, or newly undriven — the
      // full-load contract leaves unwritten slots at zero). Dead slots
      // are exempt: fault universes, observe sets, and fanout rows all
      // come from live nets only, so nothing ever reads their frames.
      if ((n >= base.net_slots || cand.driver[n] == DenseView::kNoDriver) &&
          cand.net_alive[n]) {
        plan.seed_nets.push_back(n);
      }
    }
  }
  for (std::uint32_t g = 0; g < cand.gate_slots; ++g) {
    if (!gate_dirty[g]) continue;
    for (std::uint32_t i = cand.output_offset[g];
         i < cand.output_offset[g + 1]; ++i) {
      mark_net(cand.output_net[i]);
    }
  }

  // Forward combinational closure: any gate reading a dirty net must be
  // re-evaluated, which dirties its outputs in turn. This is purely
  // structural — no functional-equivalence assumption — so clean slots
  // provably carry identical values in both designs.
  while (!worklist.empty()) {
    const std::uint32_t n = worklist.back();
    worklist.pop_back();
    for (std::uint32_t i = cand.fanout_offset[n]; i < cand.fanout_offset[n + 1];
         ++i) {
      const std::uint32_t gs = cand.fanout_gate[i];
      if (gate_dirty[gs]) continue;
      gate_dirty[gs] = 1;
      for (std::uint32_t o = cand.output_offset[gs];
           o < cand.output_offset[gs + 1]; ++o) {
        mark_net(cand.output_net[o]);
      }
    }
  }

  // Sources must stay clean (they are read from the baseline frames).
  for (std::uint32_t s : cand.sources) {
    if (plan.dirty[s]) return plan;
  }

  for (std::uint32_t n = 0; n < cand.net_slots; ++n) {
    if (plan.dirty[n]) plan.dirty_nets.push_back(n);
  }
  for (std::uint32_t gs : cand.order) {
    if (gate_dirty[gs]) plan.dirty_gates.push_back(gs);
    if (seed_gate[gs]) plan.seed_gates.push_back(gs);
  }
  plan.valid = true;
  return plan;
}

FaultSimulator::FaultSimulator(std::shared_ptr<const DenseView> view) {
  rebind(std::move(view));
}

FaultSimulator::FaultSimulator(const Netlist& nl, const CombView& view)
    : FaultSimulator(DenseView::build_shared(nl, view)) {}

void FaultSimulator::rebind(std::shared_ptr<const DenseView> view) {
  view_ = std::move(view);
  // The kernel is re-resolved per binding: a mode change between runs
  // (or a DFMRES_SIMD override in a child tool) takes effect here, and
  // every frame below is sized for the new kernel's W.
  ops_ = fsim::active_kernel_ops();
  const std::size_t net_slots = view_->net_slots;
  const std::size_t slots = net_slots * static_cast<std::size_t>(ops_->words);
  // assign() reuses capacity, so rebinding an arena slot to a
  // similar-sized netlist performs no allocation. Stamps must be zeroed
  // together with the epoch reset or stale stamps from a previous
  // binding could alias the restarted epoch numbers.
  good0_.assign(slots, 0);
  good1_.assign(slots, 0);
  ov0_.assign(slots, 0);
  ov1_.assign(slots, 0);
  ov_dirty_.assign(net_slots, 0);
  ov_dirty_list_.clear();
  faulty_.assign(slots, 0);
  stamp_.assign(net_slots, 0);
  epoch_ = 0;
  obs_.assign(slots, 0);
  obs_stamp_.assign(net_slots, 0);
  obs_epoch_ = 0;
  set_lanes(0);
  scheduled_.assign(view_->gate_slots, 0);
  // Event scratch left over from an interrupted query against a previous
  // binding would index into the wrong design — drop it with the rest of
  // the per-binding state.
  event_pos_.clear();
  event_gate_.clear();
  touched_gates_.clear();
  touched_nets_.clear();
  bind_own_frames();
  patterns_simulated_ = 0;
  detect_mask_calls_ = 0;
  propagation_events_ = 0;
  obs_propagations_ = 0;
  frame_bytes_materialized_ = 0;
  full_loads_ = 0;
  overlay_loads_ = 0;
  overlay_dirty_nets_ = 0;
  load_seconds_ = 0.0;
  cancel_ = nullptr;
}

void FaultSimulator::rebind(const Netlist& nl, const CombView& view) {
  rebind(DenseView::build_shared(nl, view));
}

int FaultSimulator::words() const { return ops_->words; }

int FaultSimulator::lane_capacity() const { return 64 * ops_->words; }

const char* FaultSimulator::kernel_name() const { return ops_->name; }

void FaultSimulator::bind_own_frames() {
  g0_ = good0_.data();
  g1_ = good1_.data();
  o0_ = nullptr;
  o1_ = nullptr;
  dirty_ = nullptr;
}

void FaultSimulator::set_lanes(std::size_t count) {
  lanes_ = static_cast<int>(
      std::min<std::size_t>(count, static_cast<std::size_t>(lane_capacity())));
  groups_ = (lanes_ + 63) / 64;
  for (int g = 0; g < kMaxSimWords; ++g) {
    const int rem = lanes_ - g * 64;
    lane_mask_[g] = rem >= 64 ? ~std::uint64_t{0}
                    : rem > 0 ? (std::uint64_t{1} << rem) - 1
                              : 0;
  }
  invalidate_obs();
}

void FaultSimulator::invalidate_obs() {
  // Same wraparound rule as the propagation epoch: clear the stamps
  // before epoch numbers repeat.
  if (obs_epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(obs_stamp_.begin(), obs_stamp_.end(), 0);
    obs_epoch_ = 0;
  }
  ++obs_epoch_;
}

void FaultSimulator::load(std::span<const TestPattern> tests,
                          std::size_t first, std::size_t count) {
  // One span per batch load (detect_mask itself is far too hot to trace
  // per call; the enclosing atpg.sweep span covers the query side).
  TraceSpan span("fsim.load", "fsim");
  if (span.active()) span.arg("lanes", static_cast<int>(count));
  const auto t0 = std::chrono::steady_clock::now();
  set_lanes(count);
  ops_->load(*this, tests, first, count);
  patterns_simulated_ += 2 * static_cast<std::uint64_t>(lanes_);
  ++full_loads_;
  frame_bytes_materialized_ += 2 * sizeof(std::uint64_t) *
                               static_cast<std::uint64_t>(ops_->words) *
                               static_cast<std::uint64_t>(view_->net_slots);
  load_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void FaultSimulator::load_from(const FaultSimulator& other) {
  // Zero-copy adoption: alias whatever frames `other` has bound (its own
  // arrays after a full load, or baseline + overlay after a CoW load).
  // Frame layout is per-kernel, so the widths must agree; instances
  // rebound under the same global mode (the sweep contract) always do.
  assert(ops_->words == other.ops_->words);
  lanes_ = other.lanes_;
  groups_ = other.groups_;
  for (int g = 0; g < kMaxSimWords; ++g) lane_mask_[g] = other.lane_mask_[g];
  g0_ = other.g0_;
  g1_ = other.g1_;
  o0_ = other.o0_;
  o1_ = other.o1_;
  dirty_ = other.dirty_;
  invalidate_obs();
}

void FaultSimulator::load_baseline(const SimBaseline& base, const CowPlan& plan,
                                   std::size_t batch, std::size_t count) {
  load_overlay_frames(base.batches[batch], plan, count);
}

void FaultSimulator::load_baseline_random(const SimBaseline& base,
                                          const CowPlan& plan,
                                          std::size_t batch,
                                          std::size_t count) {
  load_overlay_frames(base.random_batches[batch], plan, count);
}

void FaultSimulator::load_overlay_frames(const GoodFrames& gf,
                                         const CowPlan& plan,
                                         std::size_t count) {
  TraceSpan span("fsim.load", "fsim");
  if (span.active()) span.arg("lanes", static_cast<int>(count));
  const auto t0 = std::chrono::steady_clock::now();
  set_lanes(count);
  ops_->load_overlay(*this, gf, plan, count);
  // Same pattern accounting as a full load: the batch's test frames are
  // (re)played against this design either way.
  patterns_simulated_ += 2 * static_cast<std::uint64_t>(lanes_);
  ++overlay_loads_;
  overlay_dirty_nets_ += ov_dirty_list_.size();
  frame_bytes_materialized_ +=
      2 * sizeof(std::uint64_t) * static_cast<std::uint64_t>(ops_->words) *
      static_cast<std::uint64_t>(ov_dirty_list_.size());
  load_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void FaultSimulator::detect_masks(std::span<const Excitation> excitations,
                                  std::uint64_t* out) {
  ops_->detect(*this, excitations, out);
}

FaultSimulator& FaultSimArena::acquire(std::size_t index,
                                       std::shared_ptr<const DenseView> view) {
#ifndef NDEBUG
  // Slots must be acquired serially by the run's calling thread (the
  // vector resize below and the rebind are unsynchronized). Different
  // runs may live on different threads — slot 0 re-pins the owner.
  if (index == 0) {
    owner_ = std::this_thread::get_id();
  } else {
    assert(owner_ == std::this_thread::get_id() &&
           "FaultSimArena slots acquired from a different thread than the "
           "run master");
  }
#endif
  if (index >= slots_.size()) slots_.resize(index + 1);
  if (!slots_[index]) {
    slots_[index] = std::make_unique<FaultSimulator>(std::move(view));
  } else {
    slots_[index]->rebind(std::move(view));
  }
  return *slots_[index];
}

}  // namespace dfmres
