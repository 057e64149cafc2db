#include "src/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/fmt.hpp"

namespace dfmres {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

RunningStats RunningStats::restore(std::size_t count, double sum, double min,
                                   double max) {
  RunningStats s;
  if (count == 0) return s;
  s.count_ = count;
  s.sum_ = sum;
  s.min_ = min;
  s.max_ = max;
  return s;
}

double RunningStats::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double percentile(std::span<const double> values, double pct) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

std::vector<std::size_t> histogram(std::span<const double> values, double lo,
                                   double hi, std::size_t bins) {
  std::vector<std::size_t> out(bins, 0);
  if (bins == 0 || hi <= lo) return out;
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : values) {
    auto bin = static_cast<long>(std::floor((v - lo) / width));
    bin = std::clamp(bin, 0L, static_cast<long>(bins) - 1);
    ++out[static_cast<std::size_t>(bin)];
  }
  return out;
}

void AtpgCounters::merge(const AtpgCounters& other) {
  patterns_simulated += other.patterns_simulated;
  detect_mask_calls += other.detect_mask_calls;
  propagation_events += other.propagation_events;
  obs_propagations += other.obs_propagations;
  podem_backtracks += other.podem_backtracks;
  replay_drops += other.replay_drops;
  cancelled_targets += other.cancelled_targets;
  frame_bytes_materialized += other.frame_bytes_materialized;
  full_loads += other.full_loads;
  overlay_loads += other.overlay_loads;
  overlay_dirty_nets += other.overlay_dirty_nets;
  overlay_verified_batches += other.overlay_verified_batches;
  overlay_verify_mismatches += other.overlay_verify_mismatches;
  podem_handoffs += other.podem_handoffs;
  sat_calls += other.sat_calls;
  sat_conflicts += other.sat_conflicts;
  sat_detected += other.sat_detected;
  sat_undetectable += other.sat_undetectable;
  sat_aborted += other.sat_aborted;
  sat_clauses += other.sat_clauses;
  proof_memo_hits += other.proof_memo_hits;
  memo_hits += other.memo_hits;
  verdict_stores += other.verdict_stores;
  sat_seconds += other.sat_seconds;
  load_seconds += other.load_seconds;
  phase0_seconds += other.phase0_seconds;
  phase1_seconds += other.phase1_seconds;
  phase2_seconds += other.phase2_seconds;
  phase3_seconds += other.phase3_seconds;
  threads_used = std::max(threads_used, other.threads_used);
}

std::string AtpgCounters::summary() const {
  return strfmt(
      "atpg: %llu patterns, %llu detect_mask calls, %llu prop events, "
      "%llu backtracks, %llu replay drops, "
      "%llu cancelled, loads %llu full + %llu overlay (%llu frame bytes), "
      "sat %llu calls (%llu handoffs, %llu D/%llu U/%llu A, %llu conflicts, "
      "%llu clauses, %.3fs), %llu proof memo hits, phases %.3f/%.3f/%.3f/%.3fs, %d thread%s",
      static_cast<unsigned long long>(patterns_simulated),
      static_cast<unsigned long long>(detect_mask_calls),
      static_cast<unsigned long long>(propagation_events),
      static_cast<unsigned long long>(podem_backtracks),
      static_cast<unsigned long long>(replay_drops),
      static_cast<unsigned long long>(cancelled_targets),
      static_cast<unsigned long long>(full_loads),
      static_cast<unsigned long long>(overlay_loads),
      static_cast<unsigned long long>(frame_bytes_materialized),
      static_cast<unsigned long long>(sat_calls),
      static_cast<unsigned long long>(podem_handoffs),
      static_cast<unsigned long long>(sat_detected),
      static_cast<unsigned long long>(sat_undetectable),
      static_cast<unsigned long long>(sat_aborted),
      static_cast<unsigned long long>(sat_conflicts),
      static_cast<unsigned long long>(sat_clauses), sat_seconds,
      static_cast<unsigned long long>(proof_memo_hits), phase0_seconds, phase1_seconds, phase2_seconds, phase3_seconds,
      threads_used, threads_used == 1 ? "" : "s");
}

std::string AtpgCounters::json() const {
  return strfmt(
      "{\"patterns_simulated\": %llu, \"detect_mask_calls\": %llu, "
      "\"propagation_events\": %llu, \"podem_backtracks\": %llu, "
      "\"replay_drops\": %llu, "
      "\"cancelled_targets\": %llu, "
      "\"frame_bytes_materialized\": %llu, \"full_loads\": %llu, "
      "\"overlay_loads\": %llu, \"overlay_dirty_nets\": %llu, "
      "\"overlay_verified_batches\": %llu, "
      "\"overlay_verify_mismatches\": %llu, \"podem_handoffs\": %llu, "
      "\"sat_calls\": %llu, \"sat_conflicts\": %llu, "
      "\"sat_detected\": %llu, \"sat_undetectable\": %llu, "
      "\"sat_aborted\": %llu, \"sat_clauses\": %llu, "
      "\"proof_memo_hits\": %llu, "
      "\"sat_seconds\": %.6f, "
      "\"load_seconds\": %.6f, "
      "\"phase0_seconds\": %.6f, \"phase1_seconds\": %.6f, "
      "\"phase2_seconds\": %.6f, \"phase3_seconds\": %.6f, "
      "\"threads_used\": %d}",
      static_cast<unsigned long long>(patterns_simulated),
      static_cast<unsigned long long>(detect_mask_calls),
      static_cast<unsigned long long>(propagation_events),
      static_cast<unsigned long long>(podem_backtracks),
      static_cast<unsigned long long>(replay_drops),
      static_cast<unsigned long long>(cancelled_targets),
      static_cast<unsigned long long>(frame_bytes_materialized),
      static_cast<unsigned long long>(full_loads),
      static_cast<unsigned long long>(overlay_loads),
      static_cast<unsigned long long>(overlay_dirty_nets),
      static_cast<unsigned long long>(overlay_verified_batches),
      static_cast<unsigned long long>(overlay_verify_mismatches),
      static_cast<unsigned long long>(podem_handoffs),
      static_cast<unsigned long long>(sat_calls),
      static_cast<unsigned long long>(sat_conflicts),
      static_cast<unsigned long long>(sat_detected),
      static_cast<unsigned long long>(sat_undetectable),
      static_cast<unsigned long long>(sat_aborted),
      static_cast<unsigned long long>(sat_clauses),
      static_cast<unsigned long long>(proof_memo_hits), sat_seconds,
      load_seconds, phase0_seconds, phase1_seconds, phase2_seconds,
      phase3_seconds, threads_used);
}

}  // namespace dfmres
