#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/atpg/engine.hpp"
#include "src/cluster/clustering.hpp"
#include "src/dfm/checker.hpp"
#include "src/layout/floorplan.hpp"
#include "src/place/placement.hpp"
#include "src/route/router.hpp"
#include "src/sta/sta.hpp"
#include "src/synth/mapper.hpp"

namespace dfmres {

struct FlowOptions {
  double utilization = 0.70;  ///< core utilization (paper Section IV)
  AtpgOptions atpg;
  PlaceOptions place;
  RouteOptions route;
  StaOptions sta;
  /// Warm-start incremental ATPG across reanalyses: replay the last
  /// committed compacted test set before random patterns / PODEM (see
  /// DESIGN.md, "Incremental-ATPG contract"). false = every analysis
  /// runs cold.
  bool warm_start = true;
  /// Copy-on-write probe overlays: keep the committed design's seed-test
  /// good frames (a SimBaseline) alive across probes, so each probe's
  /// phase-0 replay materializes only the O(cone) net slots its edit
  /// dirties instead of re-simulating O(netlist) frames per batch. The
  /// baseline is rebased on every commit (folded in place when the
  /// structural diff allows, rebuilt otherwise). Requires warm_start;
  /// results are bit-identical either way — false only disables the
  /// sharing (each probe pays full loads), for A/B measurement.
  bool probe_overlays = true;
};

/// A fully analyzed design point: mapped netlist, layout, timing/power,
/// DFM fault universe with classification, and the clustering of the
/// undetectable faults.
struct FlowState {
  Netlist netlist;
  Placement placement;
  RoutingResult routing;
  TimingPower timing;
  FaultUniverse universe;
  AtpgResult atpg;
  ClusterAnalysis clusters;

  [[nodiscard]] std::size_t num_faults() const { return universe.size(); }
  [[nodiscard]] std::size_t num_undetectable() const {
    return atpg.num_undetectable;
  }
  [[nodiscard]] std::size_t num_aborted() const { return atpg.num_aborted; }
  [[nodiscard]] double coverage() const {
    return atpg.coverage(universe.size());
  }
  [[nodiscard]] double coverage_lower() const {
    return atpg.coverage_lower(universe.size());
  }
  [[nodiscard]] std::size_t smax() const { return clusters.smax(); }
  /// Fraction of all faults that sit in the largest cluster (%Smax_all).
  [[nodiscard]] double smax_fraction() const {
    return universe.size() == 0
               ? 0.0
               : static_cast<double>(smax()) /
                     static_cast<double>(universe.size());
  }
};

/// One committed analysis of an edited mapped netlist. Exactly one of
/// `previous` / `placement` must be set: `previous` runs incremental
/// placement inside that placement's frozen floorplan; `placement`
/// supplies an explicit, already-legal placement. `previous` is a
/// borrowed pointer and must outlive the analyze() call.
struct AnalysisRequest {
  Netlist netlist;
  const Placement* previous = nullptr;
  std::optional<Placement> placement;
  bool generate_tests = false;

  explicit AnalysisRequest(Netlist nl) : netlist(std::move(nl)) {}

  [[nodiscard]] static AnalysisRequest incremental(Netlist netlist,
                                                   const Placement& previous,
                                                   bool generate_tests = false) {
    AnalysisRequest r(std::move(netlist));
    r.previous = &previous;
    r.generate_tests = generate_tests;
    return r;
  }
  [[nodiscard]] static AnalysisRequest placed(Netlist netlist,
                                              Placement placement,
                                              bool generate_tests = false) {
    AnalysisRequest r(std::move(netlist));
    r.placement = std::move(placement);
    r.generate_tests = generate_tests;
    return r;
  }
};

/// RTL synthesis's mapping options: the DFF, FA and HA macros of
/// `rtl_lib` pinned to DFFPOSX1, FAX1 and HAX1 of `target_lib`, the way
/// synthesis instantiates flop and adder cells. A macro is pinned only
/// when both libraries have its cell.
[[nodiscard]] MapOptions macro_map_options(const Library& rtl_lib,
                                           const Library& target_lib);

class DesignFlow;

/// A bundle of speculative (side-effect-free) analyses against one
/// DesignFlow: reads `base_cache` (shareable across concurrent sessions
/// — nobody writes it) and records fresh fault classifications in the
/// session's private overlay, so probes of the same candidate reuse each
/// other's verdicts while the flow itself stays untouched. `arena`
/// (nullable = call-local buffers) provides reusable simulator scratch;
/// `num_threads` overrides the fault-sim fan-out (pass 1 from inside a
/// thread-pool job); `cancel` makes the session's ATPG cancellable.
///
/// Probes are the cancellable part of the flow (committed analyses
/// always run to completion): kUnsatisfiable = the die cannot absorb the
/// edit (a normal search outcome); kCancelled / kDeadlineExceeded =
/// `cancel` expired mid-probe, the overlay holds only complete verdicts
/// and the caller must not memoize the attempt.
///
/// The session borrows the flow (and base cache, arena, token): all must
/// outlive it. Committing a probed candidate =
/// `flow.commit_probe(std::move(session))`.
class ProbeSession {
 public:
  ProbeSession(const DesignFlow& flow, const FaultStatusCache* base_cache,
               FaultSimArena* arena = nullptr, int num_threads = 0,
               const CancelToken* cancel = nullptr)
      : flow_(&flow),
        base_(base_cache),
        arena_(arena),
        num_threads_(num_threads),
        cancel_(cancel) {}

  /// Speculative re-analysis of an edited netlist inside the frozen
  /// floorplan of `previous` (incremental placement, rerouting, STA, DFM
  /// extraction, overlay ATPG).
  [[nodiscard]] Expected<FlowState> reanalyze(Netlist netlist,
                                              const Placement& previous,
                                              bool generate_tests = false);

  /// Number of *internal* faults of a netlist without a test: U + A
  /// (an aborted fault is no better than an undetectable one). Internal
  /// faults do not depend on placement or routing, so this runs before
  /// PDesign() and gates it (paper Section III-B).
  [[nodiscard]] Expected<std::size_t> count_undetectable_internal(
      const Netlist& nl);

  /// The session's private classification overlay. Exposed mutably so a
  /// caller can stash it (or pre-seed it) when managing overlays across
  /// sessions; most callers only ever hand the session to commit_probe.
  [[nodiscard]] FaultStatusCache& updates() { return updates_; }
  [[nodiscard]] const FaultStatusCache& updates() const { return updates_; }
  [[nodiscard]] FaultStatusCache take_updates() { return std::move(updates_); }

  /// Aggregate ATPG counters over every probe this session ran;
  /// commit_probe folds them into the flow's committed totals.
  [[nodiscard]] const AtpgCounters& counters() const { return counters_; }

 private:
  const DesignFlow* flow_;
  const FaultStatusCache* base_;
  FaultSimArena* arena_;
  int num_threads_;
  const CancelToken* cancel_;
  FaultStatusCache updates_;
  AtpgCounters counters_;
};

/// Orchestrates Synthesize() / PDesign() / sign-off DFM extraction /
/// ATPG the way the paper's flow does, with a fault-status cache that
/// exploits the function-preserving nature of the resynthesis rewrites
/// (statuses of faults outside a rewritten region are invariant; see
/// DESIGN.md).
///
/// Two entry points: `analyze(AnalysisRequest)` for committed work (the
/// flow's cache and seed tests advance) and `probe()` for a
/// ProbeSession of speculative evaluations (the flow is read-only until
/// `commit_probe`).
class DesignFlow {
 public:
  DesignFlow(std::shared_ptr<const Library> target, FlowOptions options);

  /// Initial implementation flow from a technology-independent netlist:
  /// macro-maps DFF/FA/HA, maps the logic, floorplans at the target
  /// utilization, places, routes, extracts DFM faults and runs full ATPG
  /// with test generation. Fails with the mapper's status when the target
  /// library cannot implement the design.
  [[nodiscard]] Expected<FlowState> run_initial(const Netlist& rtl);

  /// Committed analysis of an edited mapped netlist (see
  /// AnalysisRequest for the two placement modes). kUnsatisfiable = the
  /// die cannot absorb the edit (area constraint — a normal search
  /// outcome); kInvalidArgument = malformed request. Committed analyses
  /// always run to completion (no cancellation).
  [[nodiscard]] Expected<FlowState> analyze(AnalysisRequest request);

  /// Opens a probe session against this flow's committed cache.
  [[nodiscard]] ProbeSession probe(FaultSimArena* arena = nullptr,
                                   int num_threads = 0,
                                   const CancelToken* cancel = nullptr) const {
    return ProbeSession(*this, &cache_, arena, num_threads, cancel);
  }

  /// Folds a finished session into the flow: its overlay becomes part of
  /// the committed cache and its ATPG counters join the committed
  /// totals (used when a probed candidate is accepted).
  void commit_probe(ProbeSession&& session) {
    commit_updates(session.updates());
    atpg_totals_.merge(session.counters());
  }

  // ---- shared plumbing (used by both entry points) ----

  /// Re-anchors the probe-overlay baseline (the committed design's seed
  /// good frames) onto `nl`, which must be the flow's newly committed
  /// netlist. analyze() does this automatically; callers that commit a
  /// probed FlowState directly (stash-and-commit in resynthesis) must
  /// call it themselves. Folds the structural diff in place when
  /// possible, rebuilds otherwise; clears the baseline when overlays are
  /// disabled or there is no seed set.
  void rebase_overlays(const Netlist& nl);

  /// Folds a probe overlay into the flow cache (commit_probe's cache
  /// half; also used directly by callers that stash overlays). Overlays
  /// are deltas (see run_atpg_overlay), so `updates` must have been
  /// computed against the cache as it is now: commit before any other
  /// write to the cache, or drop the overlay.
  void commit_updates(const FaultStatusCache& updates);

  /// Compacted test set of the last committed test-generating analysis;
  /// replayed by later warm reanalyses (phase 0 of run_atpg).
  [[nodiscard]] const std::vector<TestPattern>& seed_tests() const {
    return seed_tests_;
  }
  void set_seed_tests(std::vector<TestPattern> tests) {
    seed_tests_ = std::move(tests);
  }

  /// Aggregate ATPG counters over every committed analysis this flow ran
  /// (probes excluded until their session is committed — they report
  /// through their own results).
  [[nodiscard]] const AtpgCounters& atpg_totals() const {
    return atpg_totals_;
  }

  [[nodiscard]] const UdfmMap& udfm() const { return *udfm_; }
  [[nodiscard]] const Library& target() const { return *target_; }
  [[nodiscard]] const std::shared_ptr<const Library>& target_ptr() const {
    return target_;
  }
  [[nodiscard]] const FlowOptions& options() const { return options_; }
  [[nodiscard]] FaultStatusCache& cache() { return cache_; }
  void clear_cache() { cache_.clear(); }

  /// Library cells ordered by decreasing internal-fault count (the
  /// consideration order of the resynthesis procedure). Sequential cells
  /// and cells with no internal faults are excluded.
  [[nodiscard]] std::vector<CellId> cells_by_internal_faults() const;

 private:
  friend class ProbeSession;

  /// Shared tail of the committed paths.
  [[nodiscard]] FlowState analyze_committed(Netlist netlist,
                                            Placement placement,
                                            bool generate_tests);

  /// Probe implementations behind ProbeSession. `counters` (nullable)
  /// receives the run's ATPG counters on success.
  [[nodiscard]] Expected<FlowState> probe_reanalyze_impl(
      Netlist netlist, const Placement& previous, bool generate_tests,
      const FaultStatusCache* base_cache, FaultStatusCache* updates,
      FaultSimArena* arena, int num_threads, const CancelToken* cancel,
      AtpgCounters* counters) const;
  [[nodiscard]] Expected<std::size_t> probe_count_impl(
      const Netlist& nl, const FaultStatusCache* base_cache,
      FaultStatusCache* updates, FaultSimArena* arena, int num_threads,
      const CancelToken* cancel, AtpgCounters* counters) const;

  std::shared_ptr<const Library> target_;
  FlowOptions options_;
  /// The target library's process-wide UDFM (shared_udfm).
  std::shared_ptr<const UdfmMap> udfm_;
  FaultStatusCache cache_;
  /// Reusable fault-simulator buffers for committed analyses (probes
  /// bring their own arena so they can run concurrently).
  FaultSimArena arena_;
  std::vector<TestPattern> seed_tests_;
  /// Seed-test good frames over the committed design, shared read-only
  /// by every probe's copy-on-write replay (see FlowOptions::
  /// probe_overlays). Rebased by rebase_overlays on each commit.
  SimBaseline probe_baseline_;
  AtpgCounters atpg_totals_;
};

}  // namespace dfmres
