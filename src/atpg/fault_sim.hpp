#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#ifndef NDEBUG
#include <thread>
#endif

#include "src/atpg/excitation.hpp"
#include "src/atpg/region.hpp"
#include "src/atpg/verdict_store.hpp"
#include "src/netlist/dense_view.hpp"
#include "src/netlist/level_queue.hpp"
#include "src/netlist/netlist.hpp"
#include "src/util/cancel.hpp"
#include "src/util/rng.hpp"

namespace dfmres {

/// 64-lane words per fault-simulation batch: one, so a batch is one
/// std::uint64_t of pattern lanes per net. Sizes detect_masks buffers.
inline constexpr int kMaxSimWords = 1;

/// One test: a fully specified assignment per source (PIs and flop
/// outputs) for the initialization frame and the detection frame. In the
/// full-scan model the two frames are independent scan loads.
struct TestPattern {
  std::vector<std::uint8_t> frame0;
  std::vector<std::uint8_t> frame1;

  [[nodiscard]] bool operator==(const TestPattern&) const = default;
};

/// One fully random frame of `n` source bits — THE generator shared by
/// the ATPG engine's phase-1 batches and the baseline builder, so both
/// draw identical patterns from identically seeded rngs.
[[nodiscard]] std::vector<std::uint8_t> random_sim_frame(std::size_t n,
                                                         Rng& rng);

/// One batch of good-machine net values, both frames, one word per net
/// slot of the view they were simulated over: lane L of the batch in bit
/// L of the slot's word. A batch carries up to 64 lanes.
struct GoodFrames {
  int lanes = 0;
  std::vector<std::uint64_t> good0, good1;  ///< net_slots each
};

/// Committed-baseline good frames for copy-on-write probe replay: the
/// seed test set simulated once, per lane batch, over the committed
/// design. Speculative probes of candidates derived from that design
/// share these frames read-only and materialize only the slots their
/// edit dirties (see CowPlan / FaultSimulator::load_baseline).
struct SimBaseline {
  std::shared_ptr<const DenseView> view;  ///< the committed design's view
  std::vector<GoodFrames> batches;  ///< seeds packed 64 per batch
  std::size_t num_patterns = 0;
  std::size_t frame_width = 0;   ///< sources per pattern at build
  std::uint64_t seeds_hash = 0;  ///< digest of the seed patterns

  /// The engine's phase-1 random batches, pre-simulated as well: the
  /// patterns are a pure function of (rng seed, frame width) — phase 0
  /// never draws from the engine rng — so a run at the same seed, frame
  /// width and batch count would draw exactly these patterns. It copies
  /// them instead, restores the rng from `random_rng_after` (the state
  /// after drawing each batch), and, when its diff keeps the sources
  /// intact (CowPlan validity), overlays these frames.
  /// `random_batch_count` is the configured number of 64-pattern engine
  /// batches, one GoodFrames and one rng state each.
  std::uint64_t random_seed = 0;
  int random_batch_count = 0;
  std::vector<TestPattern> random_patterns;  ///< 64 per engine batch
  std::vector<GoodFrames> random_batches;
  std::vector<Rng> random_rng_after;

  [[nodiscard]] bool valid() const {
    return view != nullptr && num_patterns > 0;
  }
  void clear() {
    view.reset();
    batches.clear();
    num_patterns = 0;
    frame_width = 0;
    seeds_hash = 0;
    random_seed = 0;
    random_batch_count = 0;
    random_patterns.clear();
    random_batches.clear();
    random_rng_after.clear();
  }
};

/// Order-sensitive digest of a seed test set; pins a SimBaseline to the
/// exact patterns its frames were simulated from.
[[nodiscard]] std::uint64_t seed_tests_hash(std::span<const TestPattern> seeds);

/// Simulates `seeds` over `nl` once (64 lanes per batch, both frames)
/// into a shareable baseline.
/// `random_batches` > 0 additionally generates and simulates the
/// engine's deterministic phase-1 batches for `random_seed` (the
/// AtpgOptions seed the probes will run with).
[[nodiscard]] SimBaseline build_sim_baseline(
    const Netlist& nl, std::span<const TestPattern> seeds,
    std::uint64_t random_seed = 0, int random_batches = 0);

/// Re-anchors `base` onto `nl` (the new committed design) for the same
/// seed set: folds the structural diff into the stored frames when the
/// copy-on-write plan allows (O(cone) per batch), otherwise re-simulates
/// from scratch. When `seeds` differs from the set the baseline was
/// built from (hash mismatch), or the random-batch configuration
/// changed, the rebuild is always full.
void rebase_sim_baseline(SimBaseline& base, const Netlist& nl,
                         std::span<const TestPattern> seeds,
                         std::uint64_t random_seed = 0,
                         int random_batches = 0);

/// The structural diff of a candidate design against a baseline design,
/// over their DenseViews.
///
/// Two granularities, for two consumers:
///
/// - `seed_gates`/`seed_nets` are just the *edit itself*: gates whose
///   pin rows or cell changed (or are new), and net slots the baseline
///   frames cannot answer for (past their capacity, or newly undriven).
///   Overlay loads start an event-driven re-simulation from these and
///   stop wherever recomputed values equal the baseline frames — for a
///   function-preserving rewrite the wave dies at the region boundary,
///   so the materialized slots are O(edit), not O(fanout cone).
/// - `dirty`/`dirty_nets`/`dirty_gates` are the full forward
///   combinational closure of the seeds — the slots that could
///   *possibly* change. The rebase fold uses these to refresh committed
///   frames in place, and every value the overlay materializes provably
///   lies inside this set.
///
/// Both are purely structural — no functional-equivalence assumption —
/// so replaying them reproduces a full simulation bit for bit: a net
/// outside the closure (or inside it but with equal recomputed values
/// upstream) carries the same value in both designs.
///
/// `valid` is false when the overlay contract does not hold (source
/// vectors differ, or a sequential gate changed) and the caller must
/// fall back to full loads.
struct CowPlan {
  bool valid = false;
  std::vector<std::uint8_t> dirty;        ///< closure, per cand net slot
  std::vector<std::uint32_t> dirty_nets;  ///< slots with dirty == 1
  std::vector<std::uint32_t> dirty_gates; ///< closure gate slots, topo order
  std::vector<std::uint32_t> seed_gates;  ///< edited gate slots, topo order
  std::vector<std::uint32_t> seed_nets;   ///< slots with no baseline value
};

[[nodiscard]] CowPlan build_cow_plan(const DenseView& cand,
                                     const DenseView& base);

/// Bit-parallel single-fault simulator with event-driven cone
/// propagation: up to 64 pattern lanes per batch, one std::uint64_t per
/// net slot. Load a batch of tests, then query detection masks fault by
/// fault (the engine drops detected faults as it goes).
///
/// Detection queries share work per victim net: the first excitation
/// that reaches a victim in a loaded batch runs one propagation wave
/// with the victim flipped in every active lane and memoizes the lanes
/// in which an observation point changed; every later excitation of that
/// victim costs only its condition literals plus one AND. The memo is
/// exact (lane-local evaluation makes a lane's outcome independent of the
/// other lanes), so masks equal a per-excitation propagation bit for bit.
///
/// Good-value frames are bound, not owned: a full `load` simulates into
/// this instance's own frame arrays; `load_from` aliases another
/// instance's bound frames (zero copies); `load_baseline` aliases a
/// SimBaseline batch plus a private overlay holding only the dirty
/// slots. Aliased frames stay valid until their owner's next
/// load/rebind (or destruction) — the engine's master/worker sweep
/// contract (master loads, workers adopt, nobody loads mid-sweep)
/// satisfies this by construction.
///
/// Threading model: `detect_mask` reads the bound good-value frames but
/// mutates the `faulty_`/`stamp_`/`scheduled_` scratch and the
/// observability memo (`obs_`/`obs_stamp_`), so a simulator
/// instance must never be shared between threads. Concurrent instances
/// may read the same bound frames (nobody writes them during a sweep).
class FaultSimulator {
 public:
  explicit FaultSimulator(std::shared_ptr<const DenseView> view);
  /// Convenience: builds a private DenseView over (nl, view).
  FaultSimulator(const Netlist& nl, const CombView& view);

  /// Re-targets this simulator at another design, reusing the
  /// already-allocated frame and scratch buffers (they only grow).
  /// Resets lanes, epochs, stale event/touched scratch, and the
  /// per-instance counters, so a rebound simulator reports counters for
  /// the new binding only.
  void rebind(std::shared_ptr<const DenseView> view);
  void rebind(const Netlist& nl, const CombView& view);

  /// Packs tests[first..first+count) into the lanes (up to 64) and
  /// simulates the good machine for both frames in one fused topological
  /// pass (a full O(netlist) materialization).
  void load(std::span<const TestPattern> tests, std::size_t first,
            std::size_t count);

  /// Adopts another simulator's bound batch (frames + lane count)
  /// without copying. Both instances must be bound to the same design;
  /// the adopted frames alias `other`'s and follow its lifetime rules.
  void load_from(const FaultSimulator& other);

  /// Copy-on-write batch load: binds baseline batch `batch` read-only
  /// and event-drives a re-simulation from `plan.seed_gates` into a
  /// private overlay, cutting off wherever recomputed values equal the
  /// baseline frames — O(values actually changed) materialized frame
  /// bytes instead of O(netlist). `plan` must have been built from this
  /// simulator's view against `base.view` and is borrowed until the next
  /// load/rebind; `count` must equal the batch's lane count.
  void load_baseline(const SimBaseline& base, const CowPlan& plan,
                     std::size_t batch, std::size_t count);

  /// Same, over the baseline's pre-simulated phase-1 random batch
  /// `batch` (see SimBaseline::random_batches). The caller must have
  /// checked that its regenerated patterns equal the stored ones.
  void load_baseline_random(const SimBaseline& base, const CowPlan& plan,
                            std::size_t batch, std::size_t count);

  /// Lane mask of the loaded tests that detect a fault with the given
  /// excitations (bit L = lane L). With an expired cancel token the
  /// query short-circuits to zero ("not detected") — only valid when the
  /// caller discards cancelled runs.
  [[nodiscard]] std::uint64_t detect_mask(
      std::span<const Excitation> excitations);

  /// detect_mask in the per-group form: writes groups() words to `out`
  /// (at most kMaxSimWords).
  void detect_masks(std::span<const Excitation> excitations,
                    std::uint64_t* out) {
    if (groups() > 0) out[0] = detect_mask(excitations);
  }

  /// Installs a cooperative cancel token polled at detect_mask entry
  /// (nullptr = never cancelled). Sweep workers inherit it via the
  /// options of the run that acquired them, not via load_from.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  [[nodiscard]] int lanes() const { return lanes_; }
  /// Active 64-lane groups in the current batch: 1, or 0 before a load.
  [[nodiscard]] int groups() const { return lanes_ > 0 ? 1 : 0; }
  /// Lanes one batch can carry.
  [[nodiscard]] static constexpr int lane_capacity() { return 64; }
  [[nodiscard]] const DenseView& view() const { return *view_; }
  [[nodiscard]] const std::shared_ptr<const DenseView>& view_ptr() const {
    return view_;
  }

  /// Test frames simulated by `load`/`load_baseline` on this instance
  /// (2 per pattern).
  [[nodiscard]] std::uint64_t patterns_simulated() const {
    return patterns_simulated_;
  }
  /// `detect_mask` queries answered by this instance.
  [[nodiscard]] std::uint64_t detect_mask_calls() const {
    return detect_mask_calls_;
  }
  /// Faulty-value net updates during event-driven propagation (one per
  /// word update, covering all active lanes at once).
  [[nodiscard]] std::uint64_t propagation_events() const {
    return propagation_events_;
  }
  /// Observability waves run by `detect_mask` — memo misses, at most
  /// one per victim net per loaded batch.
  [[nodiscard]] std::uint64_t obs_propagations() const {
    return obs_propagations_;
  }
  /// Good-frame bytes written by loads on this instance: 16 per net
  /// slot for a full load, 16 per dirty slot for an overlay load,
  /// zero for load_from. The bytes-per-probe number the overlay work is
  /// about.
  [[nodiscard]] std::uint64_t frame_bytes_materialized() const {
    return frame_bytes_materialized_;
  }
  [[nodiscard]] std::uint64_t full_loads() const { return full_loads_; }
  [[nodiscard]] std::uint64_t overlay_loads() const { return overlay_loads_; }
  /// Sum of dirty-slot counts over the overlay loads.
  [[nodiscard]] std::uint64_t overlay_dirty_nets() const {
    return overlay_dirty_nets_;
  }
  /// Wall time spent inside load/load_baseline.
  [[nodiscard]] double load_seconds() const { return load_seconds_; }

 private:
  void bind_own_frames();
  /// Sets lanes_ and the active-lane mask lane_mask_. Every batch change
  /// passes through here (or load_from), so it also invalidates the
  /// observability memo.
  void set_lanes(std::size_t count);
  /// Drops every observability memo entry by advancing obs_epoch_.
  void invalidate_obs();
  /// Shared body of the two baseline loads: bind `gf` read-only and
  /// materialize the plan's dirty slots into the private overlay.
  void load_overlay_frames(const GoodFrames& gf, const CowPlan& plan,
                           std::size_t count);
  /// Event-driven replay with value cutoff from the plan's seeds over
  /// the bound baseline frames (the body of load_overlay_frames).
  void replay_overlay(const CowPlan& plan);
  /// Good-machine value of slot `n` in frame 0 / frame 1, through the
  /// overlay when one is bound.
  [[nodiscard]] std::uint64_t g0(std::uint32_t n) const {
    return (dirty_ != nullptr && dirty_[n]) ? o0_[n] : g0_[n];
  }
  [[nodiscard]] std::uint64_t g1(std::uint32_t n) const {
    return (dirty_ != nullptr && dirty_[n]) ? o1_[n] : g1_[n];
  }
  /// Lanes of the loaded batch in which flipping `victim` changes an
  /// observation point, memoized per batch.
  std::uint64_t observability(std::uint32_t victim);

  std::shared_ptr<const DenseView> view_;
  int lanes_ = 0;
  /// Active lanes of the batch (low lanes_ bits set): masks tail lanes
  /// and ends a query once every lane detected.
  std::uint64_t lane_mask_ = 0;
  // Owned frame storage (full loads) and overlay storage (CoW loads),
  // one word per net slot.
  std::vector<std::uint64_t> good0_, good1_;
  std::vector<std::uint64_t> ov0_, ov1_;
  // Source-packing scratch reused across loads (one word per source).
  std::vector<std::uint64_t> src0_, src1_;
  // Active bindings: base frames, overlay frames, dirty flags
  // (dirty_ == nullptr means full mode — no overlay indirection).
  const std::uint64_t* g0_ = nullptr;
  const std::uint64_t* g1_ = nullptr;
  const std::uint64_t* o0_ = nullptr;
  const std::uint64_t* o1_ = nullptr;
  const std::uint8_t* dirty_ = nullptr;
  // Per-batch dynamic dirty set of the current overlay load (the slots
  // whose recomputed values actually differ from the baseline frames);
  // the list undoes the flags on the next load without an O(netlist)
  // clear. dirty_ points at ov_dirty_ in overlay mode.
  std::vector<std::uint8_t> ov_dirty_;
  std::vector<std::uint32_t> ov_dirty_list_;
  // Copy-on-write faulty values (one word per net slot) with per-slot epoch
  // stamps (avoids clearing).
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  // Gate slot scratch; uint8_t instead of vector<bool> because the
  // bit-proxy read-modify-write sits on the event-propagation hot path.
  std::vector<std::uint8_t> scheduled_;
  // Per-batch observability memo (one word per net slot): lanes in which
  // flipping the net changes an observation point, valid for slots whose
  // obs_stamp_ equals obs_epoch_. Private to this instance like the rest
  // of the scratch, so sweep workers each fill their own.
  std::vector<std::uint64_t> obs_;
  std::vector<std::uint32_t> obs_stamp_;
  std::uint32_t obs_epoch_ = 0;
  // Per-wave event scratch reused across waves: pending gates wait in
  // the level queue, and the nets whose faulty value was stamped this
  // epoch live in touched_nets_ (the only nets that can disagree with
  // the good machine at an observation point).
  LevelQueue queue_;
  std::vector<std::uint32_t> touched_gates_;
  std::vector<std::uint32_t> touched_nets_;
  std::uint64_t patterns_simulated_ = 0;
  std::uint64_t detect_mask_calls_ = 0;
  std::uint64_t propagation_events_ = 0;
  std::uint64_t obs_propagations_ = 0;
  std::uint64_t frame_bytes_materialized_ = 0;
  std::uint64_t full_loads_ = 0;
  std::uint64_t overlay_loads_ = 0;
  std::uint64_t overlay_dirty_nets_ = 0;
  double load_seconds_ = 0.0;
  const CancelToken* cancel_ = nullptr;
};

/// Pool of reusable FaultSimulator instances, one per engine lane
/// (slot 0 = master, slots 1..N = parallel sweep workers). A DesignFlow
/// keeps one arena alive across `run_atpg` calls so the inner loop of
/// resynthesis stops paying a fresh round of frame/scratch allocations
/// per candidate evaluation. All slots of one run share the run's
/// DenseView (built once by the engine).
///
/// Not thread-safe: acquire all slots serially on the run's calling
/// thread (before fanning out) and hand each worker its own
/// `FaultSimulator&`. Debug builds assert the contract: worker slots
/// must be acquired from the same thread that last acquired slot 0.
class FaultSimArena {
 public:
  /// Returns the simulator in slot `index` rebound to `view`, creating
  /// it on first use. Rebinding resets counters and all batch/event
  /// scratch, so a slot reused across differently-sized designs carries
  /// nothing over.
  FaultSimulator& acquire(std::size_t index,
                          std::shared_ptr<const DenseView> view);

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// The engine's per-run duplicate check (fault key -> index of the
  /// representative fault), kept here so its id-indexed arrays are
  /// reused across runs instead of reallocated per candidate. Each run
  /// starts a new epoch of it.
  [[nodiscard]] RepresentativeMarks& representatives() {
    return representatives_;
  }

  /// Phase 2's proof memo: keys of the calls proven undetectable by runs
  /// on this arena. Unlike representatives(), runs never reset it (a key
  /// fixes the function its proof decides, so it stays valid across
  /// designs); ProofMemo's entry cap bounds it.
  /// Each arena owns one, so concurrent ladder lanes share nothing.
  [[nodiscard]] ProofMemo& proof_memo() { return proof_memo_; }

 private:
  std::vector<std::unique_ptr<FaultSimulator>> slots_;
  RepresentativeMarks representatives_;
  ProofMemo proof_memo_;
#ifndef NDEBUG
  std::thread::id owner_{};
#endif
};

}  // namespace dfmres
