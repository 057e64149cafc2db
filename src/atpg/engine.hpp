#pragma once

#include <cstdint>
#include <vector>

#include "src/atpg/fault_sim.hpp"
#include "src/atpg/podem.hpp"
#include "src/atpg/verdict_store.hpp"
#include "src/faults/fault.hpp"
#include "src/faults/udfm_map.hpp"
#include "src/util/cancel.hpp"
#include "src/util/stats.hpp"

namespace dfmres {

/// Backtracks PODEM may spend on one justify/detect before the call is
/// handed to the SAT stage. A fixed first-pass budget, not an option:
/// shallow enough that SAT proves the hard undetectable calls, deep
/// enough that PODEM keeps its greedy detects and cheap proofs
/// (DESIGN.md §18 has the per-call costs that set it).
inline constexpr long kPodemHandoff = 4;

struct AtpgOptions {
  int random_batches = 8;        ///< 64 random pattern pairs per batch
  /// SAT conflicts per target (per justify/detect handed over by PODEM);
  /// past it the target is Aborted. The name predates the SAT stage.
  long backtrack_limit = 4000;
  bool generate_tests = true;    ///< collect + reverse-compact a test set
  std::uint64_t seed = 12345;
  /// Worker lanes for the fault-simulation sweeps: 0 = one per hardware
  /// thread, 1 = fully serial. Results are bit-identical for every
  /// value (each worker owns a private FaultSimulator; masks land in
  /// per-fault slots and are reduced serially), so 1 is only needed
  /// when single-threaded execution itself is the point.
  int num_threads = 0;

  /// Warm start: compacted test set of a previous run over a
  /// function-preserving rewrite of the same design. A new phase 0
  /// replays these patterns through the drop sweep before any random
  /// batch or PODEM call; useful patterns join the generated test set.
  /// Ignored unless the frame width matches this netlist's CombView
  /// source count (resynthesis never touches sequential gates, so the
  /// source vector is stable across its rewrites — see DESIGN.md).
  const std::vector<TestPattern>* seed_tests = nullptr;
  /// Cone restriction: flags parallel to `universe.faults`, nonzero for
  /// faults whose excitation and propagation cones are disjoint from
  /// the rewritten region. After replay, a cone-untouched fault whose
  /// cached status is Detected is trusted without spending random
  /// patterns or PODEM on it (counted in `podem_targets_skipped`);
  /// everything else is retargeted normally.
  const std::vector<std::uint8_t>* cone_untouched = nullptr;
  /// Committed-baseline good frames for the phase-0 seed replay. When
  /// set (and the seed set matches the baseline's pattern count and
  /// frame width), each replay batch binds the baseline's frames
  /// read-only and materializes only the slots this netlist's structural
  /// diff against the baseline dirties (FaultSimulator::load_baseline) —
  /// O(cone) copied bytes per probe instead of O(netlist). Must have
  /// been built (or rebased) from exactly `seed_tests` over a design the
  /// current netlist derives from by combinational-only edits; the
  /// engine falls back to full loads whenever the copy-on-write plan is
  /// invalid. Borrowed for the duration of the call.
  const SimBaseline* baseline = nullptr;
  /// Debug/test mode: after each overlay-loaded replay batch, reload the
  /// batch fully and compare the sweep masks, counting comparisons and
  /// mismatches in the result counters (the run proceeds with the
  /// full-load masks). Roughly doubles phase-0 cost; off in production.
  bool verify_overlays = false;
  /// Preallocated simulator arena reused across calls (slot 0 = master,
  /// 1..N = sweep workers). When null a call-local arena is used.
  FaultSimArena* arena = nullptr;
  /// Cooperative cancellation: checked between batches, between PODEM
  /// targets, and every few dozen backtracks inside a single search.
  /// On expiry the run returns early with `AtpgResult::cancelled` set,
  /// unclassified faults left Unknown, and NOTHING stored into the
  /// cache (a partial run must not clobber cached verdicts).
  const CancelToken* cancel = nullptr;
};

struct AtpgResult {
  std::vector<FaultStatus> status;  ///< parallel to universe.faults
  std::vector<TestPattern> tests;   ///< compacted; empty if not requested
  std::size_t num_detected = 0;
  std::size_t num_undetectable = 0;
  std::size_t num_aborted = 0;
  /// True when the run was cut short by `AtpgOptions::cancel`; the
  /// classification is then partial (Unknown = never reached) and the
  /// test set is unusable. Callers must discard, not commit.
  bool cancelled = false;
  AtpgCounters counters;            ///< instrumentation (see util/stats)

  /// Upper coverage bound 1 - U/F: aborted faults counted as covered.
  [[nodiscard]] double coverage(std::size_t num_faults) const {
    if (num_faults == 0) return 1.0;
    return 1.0 - static_cast<double>(num_undetectable) /
                     static_cast<double>(num_faults);
  }
  /// Lower coverage bound 1 - (U + A)/F: aborted faults counted as lost.
  [[nodiscard]] double coverage_lower(std::size_t num_faults) const {
    if (num_faults == 0) return 1.0;
    return 1.0 - static_cast<double>(num_undetectable + num_aborted) /
                     static_cast<double>(num_faults);
  }
};

/// Full classification of a DFM fault universe: optional warm-start
/// replay of a seed test set, random-pattern fault simulation with
/// dropping, then phase 2 for the remainder. Each phase-2 justify/detect
/// call keys its RelevantRegion by function labels, returns Undetectable
/// at once if the arena's proof memo holds the key, else runs PODEM
/// with a kPodemHandoff budget and complete SAT-based ATPG on PODEM's
/// abort (detect / prove-undetectable / abort past `backtrack_limit`
/// conflicts), with optional test-set generation and reverse-order
/// compaction. `cache`, when given, is consulted before
/// any search and updated afterwards.
[[nodiscard]] AtpgResult run_atpg(const Netlist& nl,
                                  const FaultUniverse& universe,
                                  const UdfmMap& udfm,
                                  const AtpgOptions& options = {},
                                  FaultStatusCache* cache = nullptr);

/// Split-cache variant for speculative evaluations running concurrently
/// over a shared memo: lookups consult `updates` first and fall back to
/// the read-only `base`; stores go to `updates` only. Several callers
/// may share one `base` (concurrent reads of an unmodified store are
/// safe) while each owns a private `updates` overlay; the caller
/// decides which overlays to fold back into the base.
///
/// `updates` is a delta: a verdict is stored only when it differs from
/// what `updates` over `base` read before the run, so the overlay holds
/// O(edit) entries. Folding it into a base is therefore exact only onto
/// the very base it was computed against (unchanged in between). With
/// `base == updates` (run_atpg) every lookup reads the store once.
[[nodiscard]] AtpgResult run_atpg_overlay(const Netlist& nl,
                                          const FaultUniverse& universe,
                                          const UdfmMap& udfm,
                                          const AtpgOptions& options,
                                          const FaultStatusCache* base,
                                          FaultStatusCache* updates);

}  // namespace dfmres
