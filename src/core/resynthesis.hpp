#pragma once

#include <string>
#include <vector>

#include "src/core/flow.hpp"
#include "src/util/cancel.hpp"

namespace dfmres {

struct ResynthesisOptions {
  /// Phase-1 target: stop when the largest cluster holds at most this
  /// fraction of all faults (p1 = 1% in the paper).
  double p1 = 0.01;
  /// Maximum acceptable percentage increase in delay and power (q swept
  /// 0..q_max; die area is never allowed to grow).
  int q_max = 5;
  /// Safety bound on accepted iterations per phase per q step.
  int max_iterations_per_phase = 24;
  /// Early phase termination: stop scanning cells after the candidate
  /// total-U trend has risen this many consecutive times (Section III-B).
  int trend_window = 2;
  /// Budget of PDesign()-backed candidate evaluations per iteration
  /// (ladder scan + backtracking); memo hits are free. Bounds the
  /// exploration cost of one accepted step.
  int reanalyses_per_iteration = 64;
  /// Recognize ban prefixes that re-map the region onto an identical
  /// replacement and reuse their metrics instead of re-analyzing. The
  /// reanalysis budget is still charged exactly as a recompute would
  /// charge it, so the accepted-candidate sequence is unchanged.
  bool dedup_candidates = true;
  /// Evaluate the remaining ladder rungs speculatively on the shared
  /// thread pool before the serial acceptance walk. Decisions stay
  /// serial in ladder order, so results match the serial run; requires
  /// dedup_candidates and degenerates to the serial walk with a single
  /// worker.
  bool parallel_ladder = true;
  /// Cooperative stop signal (deadline or explicit cancellation).
  /// Speculative probes poll it; committed work (acceptance realization,
  /// the final sign-off) always runs to completion, so on expiry the
  /// procedure returns the best design accepted so far — never a
  /// half-applied edit. Null = run to natural completion.
  const CancelToken* cancel = nullptr;
  /// Directory for the crash-safe acceptance journal (empty = no
  /// checkpointing). Each accepted candidate is appended and fsync'd
  /// before the search continues.
  std::string checkpoint_dir;
  /// Replay a journal found in `checkpoint_dir` before searching: the
  /// accepted-candidate sequence is rebuilt through the deterministic
  /// candidate path and committed via the warm-start flow, reconverging
  /// to the identical design point, then the live search resumes where
  /// the journal ends. A missing journal falls back to a fresh run; a
  /// journal written by a different run (options / initial design /
  /// seed-test mismatch) fails with kFailedPrecondition.
  bool resume = false;
};

/// One evaluated candidate (for the Fig. 2 style per-iteration trace).
/// Accepted records describe the committed state after the step;
/// rejected records describe the probed candidate that was turned down
/// (candidates without full metrics — map/u_in-gate/area failures and
/// cancellations — are not recorded).
struct IterationRecord {
  int q = 0;
  int phase = 1;
  std::size_t smax = 0;          ///< after this step
  std::size_t undetectable = 0;  ///< after this step
  bool accepted = false;
  bool via_backtracking = false;
  std::string banned_through;    ///< last cell banned for this attempt
  std::size_t faults = 0;        ///< fault universe size at this point
  double delay = 0.0;            ///< critical-path delay
  double power = 0.0;            ///< total power
  double seconds = 0.0;          ///< wall time since resynthesize() began
};

struct ResynthesisReport {
  int q_used = 0;  ///< largest q at which an acceptance happened (Max Inc)
  bool any_accepted = false;
  std::vector<IterationRecord> trace;
  double runtime_seconds = 0.0;
  /// The cancel token expired before the search finished: the result is
  /// the best accepted design, not the converged one.
  bool deadline_expired = false;
  /// Ladder rungs abandoned because cancellation interrupted their
  /// evaluation (their probes are discarded, never memoized).
  std::size_t rungs_skipped = 0;
  /// Acceptances reconstructed from a checkpoint journal instead of
  /// searched for.
  std::size_t replayed_accepts = 0;
  /// Candidate-evaluation economics of the inner loop (includes the
  /// speculative ladder work when parallel_ladder is on).
  std::size_t candidates_built = 0;  ///< region extractions + re-mappings
  std::size_t u_in_probes = 0;       ///< internal-fault ATPG probes
  std::size_t full_probes = 0;       ///< PDesign()-backed re-analyses
  std::size_t sig_hits = 0;          ///< identical-candidate metric reuses
  std::size_t stash_commits = 0;     ///< acceptances realized from the stash
  double build_seconds = 0.0;
  double u_in_seconds = 0.0;
  double probe_seconds = 0.0;
  double signoff_seconds = 0.0;      ///< final test-generating analysis
  /// Probe-side fault-sim load economics, aggregated over every probe
  /// session the search ran (committed analyses report through the
  /// flow's own totals). `probe_frame_bytes` is the good-frame bytes
  /// materialized by probe batch loads — the number the copy-on-write
  /// overlays exist to shrink from O(netlist) to O(cone) per probe.
  std::uint64_t probe_frame_bytes = 0;
  std::uint64_t probe_full_loads = 0;
  std::uint64_t probe_overlay_loads = 0;
  double probe_load_seconds = 0.0;
  /// Probe-side ATPG phase 2, aggregated the same way: the calls PODEM
  /// handed to SAT, SAT's verdicts, clauses and time, phase-2 wall time,
  /// and the calls the proof memo answered (in all, and by a literal-free
  /// cone key). The signoff `atpg:` line and
  /// AtpgResult counters cover committed analyses only.
  std::uint64_t probe_podem_handoffs = 0;
  std::uint64_t probe_sat_detected = 0;
  std::uint64_t probe_sat_undetectable = 0;
  std::uint64_t probe_sat_aborted = 0;
  std::uint64_t probe_sat_clauses = 0;
  double probe_sat_seconds = 0.0;
  double probe_phase2_seconds = 0.0;
  std::uint64_t probe_proof_memo_hits = 0;
  std::uint64_t probe_cone_proof_hits = 0;

  /// The probe-side phase-2 counters as one labelled CLI line.
  [[nodiscard]] std::string probe_atpg_summary() const;
};

struct ResynthesisResult {
  FlowState state;  ///< final design, re-analyzed with test generation
  ResynthesisReport report;
};

/// The paper's two-phase resynthesis procedure (Section III):
///  - phase 1 repeatedly re-maps the gates of the largest undetectable
///    cluster that carry undetectable internal faults, banning cells in
///    decreasing internal-fault order, until %Smax <= p1;
///  - phase 2 does the same over every gate with undetectable internal
///    faults, accepting only strict total-U decreases with %Smax <= p2;
///  - PDesign() runs only when the undetectable internal fault count
///    drops; constraint violations trigger the sqrt(n)-group
///    backtracking procedure (Section III-C);
///  - q (the delay/power envelope) is swept 0..q_max, each step applied
///    on top of the previous solution.
///
/// Cancellation is not an error: on deadline/cancel expiry the best
/// accepted design is signed off and returned with
/// `report.deadline_expired` set. Errors are reserved for checkpoint
/// problems: journal IO failures, a fingerprint mismatch on resume
/// (kFailedPrecondition), or a journal that no longer replays against
/// this design (kDataLoss).
[[nodiscard]] Expected<ResynthesisResult> resynthesize(
    DesignFlow& flow, const FlowState& original,
    const ResynthesisOptions& options);

/// The fingerprint pinning a checkpoint journal (and a run report) to
/// (procedure options, flow options, initial design point, seed tests) —
/// everything that influences the accepted-candidate sequence. The same
/// value resynthesize() writes into the journal header.
[[nodiscard]] std::uint64_t resynthesis_fingerprint(
    const DesignFlow& flow, const FlowState& original,
    const ResynthesisOptions& options);

}  // namespace dfmres
