#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dfmres {

/// Streaming accumulator for min / max / mean over doubles.
class RunningStats {
 public:
  void add(double x);

  /// Folds another accumulator in, as if its samples had been added
  /// here (order-independent up to floating-point sum rounding).
  void merge(const RunningStats& other);

  /// Rebuilds an accumulator from its serialized aggregate (the
  /// {count,sum,min,max} quadruple is the complete state; mean is
  /// derived). Used when importing metrics shards from JSON.
  [[nodiscard]] static RunningStats restore(std::size_t count, double sum,
                                            double min, double max);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile (0..100) of a sample by nearest-rank; copies and sorts.
[[nodiscard]] double percentile(std::span<const double> values, double pct);

/// Histogram with fixed-width bins over [lo, hi); out-of-range values clamp
/// to the first/last bin.
[[nodiscard]] std::vector<std::size_t> histogram(
    std::span<const double> values, double lo, double hi, std::size_t bins);

/// Instrumentation counters for one `run_atpg` invocation. Workers
/// accumulate into private copies (or plain per-instance counters) and
/// merge after each parallel section, so the hot loops never touch a
/// contended cache line; the merged totals land in `AtpgResult::counters`
/// and are printed by the CLI and the benches.
struct AtpgCounters {
  std::uint64_t patterns_simulated = 0;   ///< test frames loaded into lanes
  std::uint64_t detect_mask_calls = 0;    ///< per-fault simulation queries
  std::uint64_t propagation_events = 0;   ///< faulty-value net updates
  /// Observability waves (fault-sim memo misses). Metrics registry only:
  /// kept out of summary()/json() so CLI and report output stay fixed.
  std::uint64_t obs_propagations = 0;
  std::uint64_t podem_backtracks = 0;     ///< deterministic-search backtracks
  std::uint64_t replay_drops = 0;         ///< faults dropped by seed replay
  std::uint64_t cancelled_targets = 0;    ///< left Unknown by cancellation
  std::uint64_t frame_bytes_materialized = 0;  ///< good-frame bytes written
  std::uint64_t full_loads = 0;           ///< O(netlist) batch loads
  std::uint64_t overlay_loads = 0;        ///< O(cone) copy-on-write loads
  std::uint64_t overlay_dirty_nets = 0;   ///< dirty slots over overlay loads
  std::uint64_t overlay_verified_batches = 0;  ///< verify-mode comparisons
  std::uint64_t overlay_verify_mismatches = 0; ///< overlay ≠ full reload
  std::uint64_t podem_handoffs = 0;       ///< PODEM aborts handed to SAT
  std::uint64_t sat_calls = 0;            ///< SAT justify/detect instances
  std::uint64_t sat_conflicts = 0;        ///< CDCL conflicts over all calls
  std::uint64_t sat_detected = 0;         ///< calls that found a test
  std::uint64_t sat_undetectable = 0;     ///< calls that proved UNSAT
  std::uint64_t sat_aborted = 0;          ///< calls past the conflict limit
  std::uint64_t sat_clauses = 0;          ///< clauses added, good + per call
  /// Phase-2 calls answered Undetectable by the arena's proof memo.
  std::uint64_t proof_memo_hits = 0;
  /// The proof-memo hits answered by a detect call's literal-free key
  /// (RelevantRegion::cone_signature()): a subset of proof_memo_hits.
  std::uint64_t cone_proof_hits = 0;
  std::uint64_t memo_hits = 0;      ///< faults resolved from the cache alone
  std::uint64_t verdict_stores = 0; ///< verdicts written to cache/overlay
  double sat_seconds = 0.0;               ///< wall time inside SAT calls
  double load_seconds = 0.0;              ///< wall time inside batch loads
  double phase0_seconds = 0.0;            ///< seed test replay (warm start)
  double phase1_seconds = 0.0;            ///< random patterns + dropping
  double phase2_seconds = 0.0;            ///< PODEM + SAT + drop sweeps
  double phase3_seconds = 0.0;            ///< reverse-order compaction
  int threads_used = 1;                   ///< resolved worker lane count

  void merge(const AtpgCounters& other);
  [[nodiscard]] double total_seconds() const {
    return phase0_seconds + phase1_seconds + phase2_seconds + phase3_seconds;
  }
  /// One human-readable line for CLI / bench stdout.
  [[nodiscard]] std::string summary() const;
  /// JSON object (no trailing newline) for BENCH_*.json records.
  [[nodiscard]] std::string json() const;
};

}  // namespace dfmres
