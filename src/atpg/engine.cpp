#include "src/atpg/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>

#include "src/atpg/sat_atpg.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/trace.hpp"

namespace dfmres {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Completes a V3 source assignment into a fully specified frame,
/// randomizing the don't-cares.
std::vector<std::uint8_t> concretize(std::span<const V3> assign, Rng& rng) {
  std::vector<std::uint8_t> out(assign.size());
  for (std::size_t i = 0; i < assign.size(); ++i) {
    switch (assign[i]) {
      case V3::Zero: out[i] = 0; break;
      case V3::One: out[i] = 1; break;
      case V3::X: out[i] = rng.flip() ? 1 : 0; break;
    }
  }
  return out;
}

/// Phase-1 random frames come from the generator shared with the
/// baseline builder (random_sim_frame), so a SimBaseline built at the
/// same rng seed holds exactly the patterns drawn here.
std::vector<std::uint8_t> random_frame(std::size_t n, Rng& rng) {
  return random_sim_frame(n, rng);
}

}  // namespace

AtpgResult run_atpg_overlay(const Netlist& nl, const FaultUniverse& universe,
                            const UdfmMap& udfm, const AtpgOptions& options,
                            const FaultStatusCache* base,
                            FaultStatusCache* updates) {
  TraceSpan run_span("atpg.run", "atpg");
  if (run_span.active()) {
    run_span.arg("faults", static_cast<std::uint64_t>(universe.size()));
    run_span.arg("warm_start", options.seed_tests != nullptr ? 1 : 0);
  }

  AtpgResult result;
  result.status.assign(universe.size(), FaultStatus::Unknown);

  const CombView view = CombView::build(nl);
  // The SoA snapshot every simulator of this run shares: built once,
  // handed to the arena slots, and diffed against the caller's baseline
  // view for the copy-on-write replay plan.
  auto dense = DenseView::build_shared(nl, view);
  const std::size_t num_sources = view.sources.size();
  Rng rng(options.seed);

  // All simulators (and the duplicate marks below) come from the arena; a
  // DesignFlow passes a persistent arena so the frame/scratch buffers
  // survive between calls instead of being reallocated per candidate.
  FaultSimArena local_arena;
  FaultSimArena& arena = options.arena ? *options.arena : local_arena;

  // run_atpg reads and writes one store, so a lookup reads it once; an
  // overlay run reads its private delta first, then the shared base.
  const auto cached_lookup = [&](const Fault::Key& k) {
    if (updates != nullptr && updates != base) {
      const FaultStatus s = updates->lookup(k);
      if (s != FaultStatus::Unknown) return s;
    }
    return base ? base->lookup(k) : FaultStatus::Unknown;
  };
  const bool have_seeds = options.seed_tests != nullptr &&
                          !options.seed_tests->empty() &&
                          options.seed_tests->front().frame0.size() ==
                              num_sources;

  // Pre-build excitations; resolve trivially undetectable and cached
  // faults immediately. Distinct physical violations can induce the same
  // logic fault (e.g. several weak vias on one net); classify one
  // representative per key and mirror the verdict onto the duplicates at
  // the end.
  RepresentativeMarks& marks = arena.representatives();
  marks.begin_run(universe, nl.net_capacity(), nl.gate_capacity());
  // The owner cell's UDFM fault count, which sizes a gate's cell-aware
  // slots. A cell-aware key's victim is the owner's first output, so the
  // slots leave it out.
  const auto cell_faults = [&](const Fault::Key& k) {
    const auto& owner = nl.gate(GateId{k.owner});
    assert(owner.outputs.front().value() == k.victim);
    return static_cast<std::uint32_t>(udfm.of(owner.cell).num_faults());
  };
  // The faults phases 0-3 classify, ascending by fault index; the work
  // lists below hold positions in it.
  struct Target {
    std::uint32_t fault;
    FaultStatus prior;  ///< the cache's verdict before this run
    std::vector<Excitation> excitations;
  };
  std::vector<Target> work;
  const auto status_of = [&](std::uint32_t t) -> FaultStatus& {
    return result.status[work[t].fault];
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> duplicates;  // (i, rep)
  // Representatives found unexcitable; the cache never read them as
  // Undetectable (that is a memo hit), so each verdict is a change.
  std::vector<std::uint32_t> unexcitable;
  for (std::uint32_t i = 0; i < universe.size(); ++i) {
    const Fault& f = universe.faults[i];
    const Fault::Key key = f.key();
    const std::uint32_t rep = marks.mark(key, i, cell_faults);
    if (rep != i) {
      duplicates.emplace_back(i, rep);
      continue;
    }
    const FaultStatus cached = cached_lookup(key);
    // A cached Aborted proves nothing, so it is retargeted like Unknown.
    if (cached == FaultStatus::Undetectable ||
        (cached == FaultStatus::Detected && !options.generate_tests)) {
      result.status[i] = cached;
      ++result.counters.memo_hits;
      continue;
    }
    std::vector<Excitation> excitations = build_excitations(f, nl, udfm);
    if (excitations.empty()) {
      // Not excitable even at the cell boundary: undetectable by
      // construction (counted in U like any other fault).
      result.status[i] = FaultStatus::Undetectable;
      unexcitable.push_back(i);
      continue;
    }
    work.push_back({i, cached, std::move(excitations)});
  }
  std::vector<std::uint32_t> targets(work.size());  // positions still open
  std::iota(targets.begin(), targets.end(), 0);
  if (run_span.active()) {
    run_span.arg("targets", static_cast<std::uint64_t>(work.size()));
    run_span.arg("duplicates", static_cast<std::uint64_t>(duplicates.size()));
  }

  std::vector<TestPattern> tests;

  // Fault-simulation sweeps fan out over the shared thread pool. Each
  // extra lane owns a private FaultSimulator (detect_mask mutates the
  // faulty/stamp/scheduled scratch) that adopts the master's good-value
  // frames via load_from; the sweep writes each fault's mask into its
  // own slot and every reduction below runs serially in fault order, so
  // results are bit-identical for any thread count.
  const int num_workers = ThreadPool::resolve_threads(options.num_threads);
  result.counters.threads_used = num_workers;
  ThreadPool& pool = ThreadPool::shared();
  FaultSimulator& simulator = arena.acquire(0, dense);
  simulator.set_cancel(options.cancel);
  std::vector<FaultSimulator*> worker_sims;
  for (int w = 1; w < num_workers; ++w) {
    worker_sims.push_back(&arena.acquire(static_cast<std::size_t>(w), dense));
    worker_sims.back()->set_cancel(options.cancel);
  }

  // Copy-on-write seed replay: when the caller supplies baseline frames
  // for this seed set, diff this design against the baseline design and
  // replay each batch by materializing only the dirty slots. The plan is
  // structural, so an invalid plan (changed sources, a sequential edit)
  // just falls back to full loads — never a wrong answer.
  CowPlan cow_plan;
  bool use_overlay = false;
  if (have_seeds && options.baseline != nullptr && options.baseline->valid() &&
      options.baseline->num_patterns == options.seed_tests->size() &&
      options.baseline->frame_width == num_sources) {
    cow_plan = build_cow_plan(*dense, *options.baseline->view);
    use_overlay = cow_plan.valid;
  }
  if (run_span.active()) run_span.arg("overlay", use_overlay ? 1 : 0);

  // One load carries up to 64 pattern lanes.
  constexpr std::size_t kBatch = FaultSimulator::lane_capacity();

  // masks[k] = detect_mask of target items[k] for the currently
  // loaded batch, computed across the pool.
  const auto sweep_masks = [&](std::span<const std::uint32_t> items,
                               std::vector<std::uint64_t>& masks) {
    TraceSpan span("atpg.sweep", "atpg");
    if (span.active()) {
      span.arg("items", static_cast<std::uint64_t>(items.size()));
    }
    // Zero-fill, not resize: a cancelled sweep leaves unvisited slots
    // untouched, and a stale mask must read "not detected".
    masks.assign(items.size(), 0);
    const auto run_range = [&](int lane, std::size_t begin, std::size_t end) {
      FaultSimulator& sim = lane == 0 ? simulator : *worker_sims[lane - 1];
      for (std::size_t k = begin; k < end; ++k) {
        masks[k] = sim.detect_mask(work[items[k]].excitations);
      }
    };
    // Below this, the per-worker good-frame copies cost more than the
    // sweep itself.
    constexpr std::size_t kMinParallelItems = 32;
    if (num_workers <= 1 || items.size() < kMinParallelItems) {
      run_range(0, 0, items.size());
      return;
    }
    for (auto* sim : worker_sims) sim->load_from(simulator);
    const std::size_t grain = std::clamp<std::size_t>(
        items.size() / (4 * static_cast<std::size_t>(num_workers)), 1, 32);
    pool.parallel_for(items.size(), grain, num_workers, run_range,
                      options.cancel);
  };

  std::vector<std::uint64_t> sweep_scratch;
  // Drops every target the loaded batch detects (masks in sweep_scratch)
  // and returns the useful lanes. Each newly detected fault credits
  // exactly one lane — the lowest set bit of its mask — so a lane
  // survives iff it is some fault's first detector, matching the classic
  // serial-simulation rule independent of sweep order.
  const auto drop_from_masks = [&]() {
    std::uint64_t useful = 0;
    std::vector<std::uint32_t> still;
    for (std::size_t k = 0; k < targets.size(); ++k) {
      const std::uint64_t mask = sweep_scratch[k];
      if (mask != 0) {
        status_of(targets[k]) = FaultStatus::Detected;
        useful |= mask & (~mask + 1);
      } else {
        still.push_back(targets[k]);
      }
    }
    targets = std::move(still);
    return useful;
  };
  const auto drop_with_batch = [&](std::span<const TestPattern> from,
                                   std::size_t first, std::size_t count) {
    simulator.load(from, first, count);
    sweep_masks(targets, sweep_scratch);
    return drop_from_masks();
  };
  // Overlay-path twin of drop_with_batch over baseline batch `batch`
  // (seed or pre-simulated random, per `random`). In verify mode the
  // batch is re-swept under a full load of from[first, first + count)
  // and the run continues with the full-load masks, so a mismatch is
  // counted but never changes the outcome.
  const auto drop_with_baseline_batch = [&](bool random,
                                            std::span<const TestPattern> from,
                                            std::size_t first,
                                            std::size_t batch,
                                            std::size_t count) {
    if (random) {
      simulator.load_baseline_random(*options.baseline, cow_plan, batch,
                                     count);
    } else {
      simulator.load_baseline(*options.baseline, cow_plan, batch, count);
    }
    sweep_masks(targets, sweep_scratch);
    if (options.verify_overlays) {
      const std::vector<std::uint64_t> overlay_masks = sweep_scratch;
      simulator.load(from, first, count);
      sweep_masks(targets, sweep_scratch);
      ++result.counters.overlay_verified_batches;
      if (overlay_masks != sweep_scratch) {
        ++result.counters.overlay_verify_mismatches;
      }
    }
    return drop_from_masks();
  };

  // ---- phase 0: warm-start replay of the seed test set ----
  // One drop sweep over the previous run's compacted patterns detects
  // (and drops) every fault those tests still cover — for a
  // function-preserving rewrite that is all previously-detected faults
  // outside the rewritten cone — before any random batch or PODEM call.
  const auto phase0_start = Clock::now();
  // Phase spans use optional emplace/reset so the span boundaries track
  // the existing phaseN_start/phaseN_seconds markers exactly.
  std::optional<TraceSpan> phase_span;
  phase_span.emplace("atpg.phase0.replay", "atpg");
  if (have_seeds && !targets.empty() && !cancel_expired(options.cancel)) {
    const std::vector<TestPattern>& seeds = *options.seed_tests;
    const std::size_t before = targets.size();
    for (std::size_t first = 0;
         first < seeds.size() && !targets.empty() &&
         !cancel_expired(options.cancel);
         first += kBatch) {
      const std::size_t count = std::min(kBatch, seeds.size() - first);
      const std::uint64_t useful =
          use_overlay ? drop_with_baseline_batch(false, seeds, first,
                                                 first / kBatch, count)
                      : drop_with_batch(seeds, first, count);
      if (options.generate_tests) {
        // Useful seed patterns join the candidate pool so the phase-3
        // compaction keeps covering the faults they detect.
        for (std::size_t lane = 0; lane < count; ++lane) {
          if ((useful >> lane) & 1) tests.push_back(seeds[first + lane]);
        }
      }
    }
    result.counters.replay_drops +=
        static_cast<std::uint64_t>(before - targets.size());
  }
  phase_span.reset();
  result.counters.phase0_seconds = seconds_since(phase0_start);

  // ---- phase 1: random pattern pairs with fault dropping ----
  const auto phase1_start = Clock::now();
  phase_span.emplace("atpg.phase1.random", "atpg");
  // One 64-pattern batch per iteration; drawing stops the moment targets
  // run dry, and the rng then feeds PODEM's concretize. A baseline drawn
  // at this run's seed, frame width and batch count already holds these
  // patterns (phase 0 draws nothing), so each batch is copied from it and
  // the rng restored to the state after that batch. When the probe's
  // overlay plan is valid, the batch's pre-simulated frames replay
  // through it too.
  const SimBaseline* drawn =
      options.baseline != nullptr &&
              options.baseline->random_seed == options.seed &&
              options.baseline->frame_width == num_sources &&
              options.baseline->random_batch_count == options.random_batches
          ? options.baseline
          : nullptr;
  for (int batch = 0; batch < options.random_batches && !targets.empty() &&
                      !cancel_expired(options.cancel);
       ++batch) {
    const std::size_t first = tests.size();
    if (drawn != nullptr) {
      const auto at = drawn->random_patterns.begin() +
                      static_cast<std::ptrdiff_t>(batch) *
                          static_cast<std::ptrdiff_t>(kBatch);
      tests.insert(tests.end(), at, at + static_cast<std::ptrdiff_t>(kBatch));
      rng = drawn->random_rng_after[static_cast<std::size_t>(batch)];
    } else {
      for (std::size_t lane = 0; lane < kBatch; ++lane) {
        tests.push_back({random_frame(num_sources, rng),
                         random_frame(num_sources, rng)});
      }
    }
    const bool batch_cached = use_overlay && drawn != nullptr;
    const std::uint64_t useful =
        batch_cached
            ? drop_with_baseline_batch(true, tests, first,
                                       static_cast<std::size_t>(batch), kBatch)
            : drop_with_batch(tests, first, kBatch);
    // Keep only lanes that first-detected something; discard the rest.
    std::vector<TestPattern> kept;
    for (std::size_t lane = 0; lane < kBatch; ++lane) {
      if ((useful >> lane) & 1) kept.push_back(std::move(tests[first + lane]));
    }
    tests.resize(first);
    for (auto& t : kept) tests.push_back(std::move(t));
  }
  phase_span.reset();
  result.counters.phase1_seconds = seconds_since(phase1_start);

  // ---- phase 2: proof memo, PODEM first pass, SAT on its aborts ----
  const auto phase2_start = Clock::now();
  phase_span.emplace("atpg.phase2.podem", "atpg");
  Podem podem(nl, view, {kPodemHandoff, options.cancel});
  // Built on the first handoff; one solver serves the whole run.
  std::optional<SatAtpg> sat;
  RelevantRegion region(nl, view);
  ProofMemo& proofs = arena.proof_memo();
  // One justify/detect call over the region just keyed; PODEM and SAT
  // build its backward closure only on a miss. A memo hit is final: a U
  // outcome draws no rng and leaves no engine state behind, so skipping
  // the search changes no status and no test. Only U outcomes are
  // stored, and each is a complete proof: a search cut short by the
  // budget or the cancel token ends Aborted.
  const auto solve = [&](std::vector<V3>* test) {
    if (proofs.contains(region.signature())) {
      ++result.counters.proof_memo_hits;
      return Podem::Outcome::Undetectable;
    }
    Podem::Outcome r = podem.search(region, test);
    if (r == Podem::Outcome::Aborted && !cancel_expired(options.cancel)) {
      ++result.counters.podem_handoffs;
      if (!sat) sat.emplace(nl, view, SatAtpg::Config{options.backtrack_limit,
                                                      options.cancel});
      r = region.is_detect() ? sat->detect(region, test)
                             : sat->justify(region, test);
    }
    if (r == Podem::Outcome::Undetectable) proofs.insert(region.signature());
    return r;
  };
  // Process remaining targets; each generated test also drops others.
  std::vector<std::uint32_t> queue = std::move(targets);
  targets.clear();
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    if (cancel_expired(options.cancel)) break;
    const std::uint32_t t = queue[qi];
    if (status_of(t) != FaultStatus::Unknown) continue;

    bool any_aborted = false;
    bool detected = false;
    for (const Excitation& exc : work[t].excitations) {
      // Frame-0 cube first: an unjustifiable initialization kills the
      // whole excitation.
      std::vector<CondLiteral> frame0;
      for (const CondLiteral& lit : exc.lits) {
        if (lit.frame == 0) frame0.push_back(lit);
      }
      std::vector<V3> assign0;
      if (!frame0.empty()) {
        region.justify(frame0);
        const auto r = solve(&assign0);
        if (r == Podem::Outcome::Undetectable) continue;
        if (r == Podem::Outcome::Aborted) {
          any_aborted = true;
          continue;
        }
      }
      std::vector<V3> assign1;
      region.detect(exc);
      const auto r = solve(&assign1);
      if (r == Podem::Outcome::Aborted) {
        any_aborted = true;
        continue;
      }
      if (r == Podem::Outcome::Undetectable) continue;

      detected = true;
      status_of(t) = FaultStatus::Detected;
      if (options.generate_tests) {
        TestPattern t;
        t.frame0 = assign0.empty() ? random_frame(num_sources, rng)
                                   : concretize(assign0, rng);
        t.frame1 = concretize(assign1, rng);
        tests.push_back(std::move(t));
        // Drop other queued faults with the fresh test.
        targets.clear();
        for (std::size_t qj = qi + 1; qj < queue.size(); ++qj) {
          if (status_of(queue[qj]) == FaultStatus::Unknown) {
            targets.push_back(queue[qj]);
          }
        }
        simulator.load(tests, tests.size() - 1, 1);
        sweep_masks(targets, sweep_scratch);
        for (std::size_t k = 0; k < targets.size(); ++k) {
          if (sweep_scratch[k] != 0) {
            status_of(targets[k]) = FaultStatus::Detected;
          }
        }
      }
      break;
    }
    if (!detected) {
      status_of(t) =
          any_aborted ? FaultStatus::Aborted : FaultStatus::Undetectable;
    }
  }
  phase_span.reset();
  result.counters.phase2_seconds = seconds_since(phase2_start);

  result.cancelled = cancel_expired(options.cancel);

  // ---- phase 3: reverse-order test compaction ----
  const auto phase3_start = Clock::now();
  phase_span.emplace("atpg.phase3.compact", "atpg");
  if (options.generate_tests && !tests.empty() && !result.cancelled) {
    std::vector<std::uint32_t> uncovered;
    for (std::uint32_t t = 0; t < work.size(); ++t) {
      if (status_of(t) == FaultStatus::Detected) uncovered.push_back(t);
    }
    std::vector<TestPattern> compacted;
    std::vector<TestPattern> reversed(tests.rbegin(), tests.rend());
    for (std::size_t first = 0; first < reversed.size() && !uncovered.empty();
         first += kBatch) {
      const std::size_t count = std::min(kBatch, reversed.size() - first);
      simulator.load(reversed, first, count);
      std::vector<std::uint64_t> masks;
      sweep_masks(uncovered, masks);
      // Lanes run in order, and the masks are compacted alongside the
      // uncovered list (a fault's mask does not depend on which faults
      // remain), so one sweep serves the whole batch.
      for (std::size_t lane = 0; lane < count; ++lane) {
        bool useful = false;
        std::vector<std::uint32_t> still;
        std::vector<std::uint64_t> still_masks;
        for (std::size_t u = 0; u < uncovered.size(); ++u) {
          if ((masks[u] >> lane) & 1) {
            useful = true;
          } else {
            still.push_back(uncovered[u]);
            still_masks.push_back(masks[u]);
          }
        }
        if (useful) {
          compacted.push_back(reversed[first + lane]);
          uncovered = std::move(still);
          masks = std::move(still_masks);
        }
      }
    }
    result.tests = std::move(compacted);
  }
  phase_span.reset();
  result.counters.phase3_seconds = seconds_since(phase3_start);

  // Fold the per-worker instrumentation into the result. The counters
  // live on each private simulator (never shared across threads), so
  // the hot loops stay free of contended atomics and this serial merge
  // is the only synchronization the instrumentation needs.
  result.counters.podem_backtracks = podem.total_backtracks();
  if (sat) {
    const SatAtpg::Stats& st = sat->stats();
    result.counters.sat_calls = st.calls;
    result.counters.sat_conflicts = st.conflicts;
    result.counters.sat_detected = st.detected;
    result.counters.sat_undetectable = st.undetectable;
    result.counters.sat_aborted = st.aborted;
    result.counters.sat_clauses = st.clauses;
    result.counters.sat_seconds = st.seconds;
  }
  result.counters.patterns_simulated = simulator.patterns_simulated();
  result.counters.detect_mask_calls = simulator.detect_mask_calls();
  result.counters.propagation_events = simulator.propagation_events();
  result.counters.obs_propagations = simulator.obs_propagations();
  result.counters.frame_bytes_materialized =
      simulator.frame_bytes_materialized();
  result.counters.full_loads = simulator.full_loads();
  result.counters.overlay_loads = simulator.overlay_loads();
  result.counters.overlay_dirty_nets = simulator.overlay_dirty_nets();
  result.counters.load_seconds = simulator.load_seconds();
  for (const auto* sim : worker_sims) {
    result.counters.patterns_simulated += sim->patterns_simulated();
    result.counters.detect_mask_calls += sim->detect_mask_calls();
    result.counters.propagation_events += sim->propagation_events();
    result.counters.obs_propagations += sim->obs_propagations();
    result.counters.frame_bytes_materialized +=
        sim->frame_bytes_materialized();
    result.counters.full_loads += sim->full_loads();
    result.counters.overlay_loads += sim->overlay_loads();
    result.counters.overlay_dirty_nets += sim->overlay_dirty_nets();
    result.counters.load_seconds += sim->load_seconds();
  }

  // ---- bookkeeping ----
  for (const auto& [i, rep] : duplicates) result.status[i] = result.status[rep];
  for (const FaultStatus s : result.status) {
    switch (s) {
      case FaultStatus::Detected: ++result.num_detected; break;
      case FaultStatus::Undetectable: ++result.num_undetectable; break;
      case FaultStatus::Aborted: ++result.num_aborted; break;
      case FaultStatus::Unknown: ++result.counters.cancelled_targets; break;
    }
  }
  // A cancelled run stores nothing: its Unknowns (and any Aborted
  // produced by the cut-short searches) must not clobber cached verdicts
  // from complete runs. Duplicates share their representative's key, and
  // a verdict equal to the one read before the run (every memo hit) is
  // already what `updates` over `base` returns, so only changed verdicts
  // are written.
  if (updates && !result.cancelled) {
    const auto store = [&](std::uint32_t i) {
      const Fault::Key key = universe.faults[i].key();
      updates->store(key, result.status[i],
                     key.kind == verdict_index::kCellAware ? cell_faults(key)
                                                           : 0);
      ++result.counters.verdict_stores;
    };
    for (const std::uint32_t i : unexcitable) store(i);
    for (const Target& t : work) {
      if (result.status[t.fault] != t.prior) store(t.fault);
    }
  }
  return result;
}

AtpgResult run_atpg(const Netlist& nl, const FaultUniverse& universe,
                    const UdfmMap& udfm, const AtpgOptions& options,
                    FaultStatusCache* cache) {
  return run_atpg_overlay(nl, universe, udfm, options, cache, cache);
}

}  // namespace dfmres
