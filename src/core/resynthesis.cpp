#include "src/core/resynthesis.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "src/core/checkpoint.hpp"
#include "src/core/telemetry.hpp"
#include "src/netlist/extract.hpp"
#include "src/util/fmt.hpp"
#include "src/util/logging.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/trace.hpp"

namespace dfmres {

namespace {

using Clock = std::chrono::steady_clock;

/// Gate slots carrying at least one undetectable internal fault.
std::vector<bool> undet_internal_gates(const FlowState& s) {
  std::vector<bool> out(s.netlist.gate_capacity(), false);
  for (std::uint32_t i = 0; i < s.universe.size(); ++i) {
    if (s.universe.faults[i].scope == FaultScope::Internal &&
        s.atpg.status[i] == FaultStatus::Undetectable) {
      out[s.universe.faults[i].owner.value()] = true;
    }
  }
  return out;
}

/// Internal faults without a test: U plus A, the quantity the PDesign()
/// gate compares (DesignFlow::count_undetectable_internal counts alike),
/// so turning undetectable faults into aborted ones never looks like a win.
std::size_t count_undet_internal(const FlowState& s) {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < s.universe.size(); ++i) {
    n += s.universe.faults[i].scope == FaultScope::Internal &&
         (s.atpg.status[i] == FaultStatus::Undetectable ||
          s.atpg.status[i] == FaultStatus::Aborted);
  }
  return n;
}

struct Budgets {
  double delay = 0.0;
  double power = 0.0;
};

/// Adds the scope's wall time to an accumulator on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& acc) : acc_(acc), t0_(Clock::now()) {}
  ~ScopedTimer() {
    acc_ += std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_;
};

/// Order-independent-free structural digest of a netlist (gates in slot
/// order with cell and connectivity, plus the PO list). Candidates built
/// from the same base netlist splice fresh ids deterministically, so two
/// ban prefixes that map a region onto the same replacement produce
/// literally identical netlists — and identical digests.
std::uint64_t structural_hash(const Netlist& nl, std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(nl.gate_capacity());
  for (std::uint32_t gi = 0; gi < nl.gate_capacity(); ++gi) {
    const GateId g{gi};
    if (!nl.gate_alive(g)) continue;
    mix(gi);
    mix(nl.gate(g).cell.value());
    for (NetId f : nl.gate(g).fanin) mix(f.value());
    for (NetId o : nl.gate(g).outputs) mix(o.value());
  }
  for (NetId po : nl.primary_outputs()) mix(po.value());
  return h;
}

/// Everything needed to judge a candidate without keeping its FlowState.
/// Candidates are deterministic in (current state, region, banned), so
/// these are memoized across the q sweep.
struct CandMetrics {
  bool map_failed = false;
  bool area_failed = false;
  bool u_in_gate_failed = false;
  /// Cancellation interrupted the evaluation: the metrics are partial
  /// and were NOT memoized (a resumed iteration re-evaluates cleanly).
  bool cancelled = false;
  std::size_t u_in_new = 0;
  std::size_t undetectable = 0;
  std::size_t smax = 0;
  std::size_t faults = 0;
  double delay = 0.0;
  double power = 0.0;
};

class Procedure {
 public:
  Procedure(DesignFlow& flow, const FlowState& original,
            const ResynthesisOptions& options)
      : flow_(flow),
        options_(options),
        cell_order_(flow.cells_by_internal_faults()),
        original_delay_(original.timing.critical_delay),
        original_power_(original.timing.total_power()),
        start_time_(Clock::now()) {}

  Expected<ResynthesisResult> run(const FlowState& original) {
    const auto t0 = start_time_;
    TraceSpan run_span("resyn.run", "resyn");
    // Telemetry phase marker: 1 = cluster break-up, 2 = global shrink,
    // 3 = sign-off; back to idle however this run exits.
    struct PhaseIdleGuard {
      ~PhaseIdleGuard() {
        ProgressCounters::global().phase.store(0, std::memory_order_relaxed);
      }
    } phase_idle_guard;
    if (run_span.active()) {
      run_span.arg("q_max", options_.q_max);
      run_span.arg("u0", static_cast<std::uint64_t>(
                             original.num_undetectable()));
    }

    // Checkpoint journal: open (fresh or resuming) and collect the
    // accepted-candidate sequence to replay.
    std::vector<CheckpointRecord> replay;
    std::size_t replay_pos = 0;
    bool search_done_in_journal = false;
    bool final_in_journal = false;
    if (!options_.checkpoint_dir.empty()) {
      const std::uint64_t fp = fingerprint(original);
      bool fresh = true;
      if (options_.resume) {
        auto journal = read_checkpoint(options_.checkpoint_dir);
        if (journal) {
          if (journal->fingerprint != fp) {
            return make_status(
                StatusCode::kFailedPrecondition,
                "checkpoint in %s was written by a different run "
                "(journal fingerprint %016llx, this run %016llx); delete "
                "it or drop --resume",
                options_.checkpoint_dir.c_str(),
                static_cast<unsigned long long>(journal->fingerprint),
                static_cast<unsigned long long>(fp));
          }
          for (CheckpointRecord& rec : journal->records) {
            switch (rec.kind) {
              case CheckpointRecord::Kind::Accept:
                replay.push_back(std::move(rec));
                break;
              case CheckpointRecord::Kind::Done:
                search_done_in_journal = true;
                break;
              case CheckpointRecord::Kind::Final:
                final_in_journal = true;
                break;
            }
          }
          const Status s = writer_.open_resume(options_.checkpoint_dir,
                                               journal->valid_bytes);
          if (!s.is_ok()) return s;
          fresh = false;
        } else if (journal.code() != StatusCode::kNotFound) {
          return journal.status();
        }
      }
      if (fresh) {
        const Status s = writer_.open_fresh(options_.checkpoint_dir, fp);
        if (!s.is_ok()) return s;
      }
    }

    FlowState current = original;
    bool stopped = false;  // cancellation observed; stop searching

    for (int q = 0; q <= options_.q_max && !stopped; ++q) {
      budgets_.delay = original_delay_ * (1.0 + q / 100.0);
      budgets_.power = original_power_ * (1.0 + q / 100.0);
      bool accepted_at_q = false;

      // ---- phase 1: break up the largest clusters ----
      ProgressCounters::global().phase.store(1, std::memory_order_relaxed);
      for (int iter = 0; iter < options_.max_iterations_per_phase; ++iter) {
        const double smax_of_f =
            current.num_faults() == 0
                ? 0.0
                : static_cast<double>(current.smax()) /
                      static_cast<double>(current.num_faults());
        if (smax_of_f <= options_.p1) break;
        if (replay_pos < replay.size()) {
          // A journaled acceptance at this loop position replays instead
          // of searching; a record for a later position means the
          // original run left this loop without accepting.
          const CheckpointRecord& rec = replay[replay_pos];
          if (rec.q != q || rec.phase != 1) break;
          auto replayed = replay_accept(current, rec);
          if (!replayed) return replayed.status();
          ++replay_pos;
          current = std::move(*replayed);
          bump_version();
          accepted_at_q = true;
          continue;
        }
        if (search_done_in_journal) break;  // nothing left to search
        if (cancel_expired(options_.cancel)) {
          stopped = true;
          break;
        }
        auto next = try_region(current, q, /*phase=*/1, /*p2=*/0.0);
        if (!journal_error_.is_ok()) return journal_error_;
        if (!next) {
          // A cancelled try_region also comes back empty; only a journal
          // marked Done may treat that as convergence, else resume would
          // believe a truncated search finished.
          stopped = cancel_expired(options_.cancel);
          break;
        }
        current = std::move(*next);
        bump_version();
        accepted_at_q = true;
      }
      if (stopped) break;

      // p2: the larger of p1 and the %Smax left by phase 1.
      const double p2 = std::max(
          options_.p1,
          current.num_faults() == 0
              ? 0.0
              : static_cast<double>(current.smax()) /
                    static_cast<double>(current.num_faults()));

      // ---- phase 2: shrink U over the whole circuit ----
      ProgressCounters::global().phase.store(2, std::memory_order_relaxed);
      for (int iter = 0; iter < options_.max_iterations_per_phase; ++iter) {
        if (replay_pos < replay.size()) {
          const CheckpointRecord& rec = replay[replay_pos];
          if (rec.q != q || rec.phase != 2) break;
          auto replayed = replay_accept(current, rec);
          if (!replayed) return replayed.status();
          ++replay_pos;
          current = std::move(*replayed);
          bump_version();
          accepted_at_q = true;
          continue;
        }
        if (search_done_in_journal) break;
        if (cancel_expired(options_.cancel)) {
          stopped = true;
          break;
        }
        auto next = try_region(current, q, /*phase=*/2, p2);
        if (!journal_error_.is_ok()) return journal_error_;
        if (!next) {
          stopped = cancel_expired(options_.cancel);
          break;
        }
        current = std::move(*next);
        bump_version();
        accepted_at_q = true;
      }

      if (accepted_at_q) {
        report_.q_used = q;
        report_.any_accepted = true;
      }
    }

    if (replay_pos < replay.size()) {
      return make_status(
          StatusCode::kDataLoss,
          "checkpoint journal holds %zu accepted candidates but only %zu "
          "replayed against this design (journal/design mismatch)",
          replay.size(), replay_pos);
    }
    if (stopped) {
      report_.deadline_expired = true;
    } else if (writer_.is_open() && !search_done_in_journal) {
      CheckpointRecord done;
      done.kind = CheckpointRecord::Kind::Done;
      const Status s = writer_.append(done);
      if (!s.is_ok()) return s;
    }

    // Final sign-off analysis with test generation. Routed through the
    // incremental path (identity incremental placement), which keeps the
    // committed placement; a warm flow replays its seed tests first.
    // Every fault it reports Detected is detected by the test set it
    // emits. Sign-off is committed work: it runs to completion even when
    // the deadline already expired.
    Expected<FlowState> final_state = [&]() -> Expected<FlowState> {
      const ScopedTimer t(report_.signoff_seconds);
      TraceSpan span("resyn.signoff", "resyn");
      ProgressCounters::global().phase.store(3, std::memory_order_relaxed);
      return flow_.analyze(AnalysisRequest::incremental(
          current.netlist, current.placement, /*generate_tests=*/true));
    }();
    if (!final_state) {
      // Identity incremental placement of an already-placed design
      // cannot run out of die.
      fatal_invariant("resynthesize: final sign-off placement of '%s' "
                      "did not fit",
                      current.netlist.name().c_str());
    }
    if (writer_.is_open() && !stopped && !final_in_journal) {
      CheckpointRecord fin;
      fin.kind = CheckpointRecord::Kind::Final;
      fin.undetectable = final_state->num_undetectable();
      fin.smax = final_state->smax();
      fin.faults = final_state->num_faults();
      const Status s = writer_.append(fin);
      if (!s.is_ok()) return s;
    }
    report_.runtime_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return ResynthesisResult{std::move(*final_state), std::move(report_)};
  }

 private:
  /// Gates to re-map in this iteration (C_sub minus G_zero): gates with
  /// undetectable internal faults, restricted to G_max in phase 1.
  std::vector<GateId> region_of(const FlowState& s, int phase) const {
    const auto undet = undet_internal_gates(s);
    std::vector<GateId> region;
    const auto eligible = [&](GateId g) {
      return s.netlist.gate_alive(g) && !s.netlist.cell_of(g).sequential &&
             undet[g.value()];
    };
    if (phase == 1) {
      for (GateId g : s.clusters.gmax) {
        if (eligible(g)) region.push_back(g);
      }
    } else {
      for (GateId g : s.netlist.live_gates()) {
        if (eligible(g)) region.push_back(g);
      }
    }
    return region;
  }

  /// Maps the region over the allowed cell subset and splices it in.
  /// kUnsatisfiable = the allowed subset cannot implement the region (a
  /// normal ladder outcome), which includes a splice that closes a
  /// combinational loop: a region need not be convex, and when one of
  /// its outputs reaches one of its inputs through outside gates, a
  /// re-mapping can route that path back into itself. Other codes
  /// indicate a malformed region (possible only when replaying a stale
  /// journal).
  Expected<Netlist> build_candidate(const FlowState& s,
                                    std::span<const GateId> region,
                                    const std::vector<bool>& banned) {
    Netlist copy = s.netlist;
    auto sub = extract_subcircuit(copy, region);
    if (!sub) return sub.status();
    MapOptions map_options;
    map_options.banned = banned;
    auto mapped = technology_map(sub->circuit, flow_.target_ptr(), map_options);
    if (!mapped) return mapped.status();
    auto spliced = replace_region(copy, *sub, *mapped);
    if (!spliced) return spliced.status();
    if (copy.has_combinational_cycle()) {
      return make_status(StatusCode::kUnsatisfiable,
                         "resynthesis: the re-mapped region closes a "
                         "combinational loop");
    }
    return copy;
  }

  /// See resynthesis_fingerprint() — the journal is pinned to everything
  /// that influences the accepted-candidate sequence. parallel_ladder
  /// and dedup_candidates are deliberately excluded: both are documented
  /// to leave the sequence unchanged, so a journal survives a
  /// thread-count change.
  std::uint64_t fingerprint(const FlowState& original) const {
    return resynthesis_fingerprint(flow_, original, options_);
  }

  /// Rebuilds one journaled acceptance through the deterministic
  /// candidate path and commits it through the warm-start flow, exactly
  /// as the original run's realization did. Any divergence (the journal
  /// does not correspond to this design) is kDataLoss.
  Expected<FlowState> replay_accept(const FlowState& cur,
                                    const CheckpointRecord& rec) {
    if (rec.banned.size() != flow_.target().num_cells()) {
      return make_status(StatusCode::kDataLoss,
                         "checkpoint replay: ban set covers %zu cells, "
                         "target library has %zu",
                         rec.banned.size(), flow_.target().num_cells());
    }
    std::vector<GateId> region;
    region.reserve(rec.region.size());
    for (const std::uint32_t g : rec.region) region.push_back(GateId{g});
    auto candidate = build_candidate(cur, region, rec.banned);
    if (!candidate) {
      return make_status(StatusCode::kDataLoss,
                         "checkpoint replay: accepted candidate no longer "
                         "builds: %s",
                         candidate.status().message().c_str());
    }
    auto state = flow_.analyze(AnalysisRequest::incremental(
        std::move(*candidate), cur.placement, /*generate_tests=*/false));
    if (!state) {
      return make_status(StatusCode::kDataLoss,
                         "checkpoint replay: die cannot absorb a journaled "
                         "acceptance");
    }
    if (state->smax() != rec.smax ||
        state->num_undetectable() != rec.undetectable) {
      return make_status(
          StatusCode::kDataLoss,
          "checkpoint replay diverged: journal says smax=%llu U=%llu, "
          "replayed candidate has smax=%zu U=%zu",
          static_cast<unsigned long long>(rec.smax),
          static_cast<unsigned long long>(rec.undetectable), state->smax(),
          state->num_undetectable());
    }
    report_.trace.push_back({rec.q, rec.phase, state->smax(),
                             state->num_undetectable(), /*accepted=*/true,
                             rec.via_backtracking, rec.cell_name,
                             state->num_faults(),
                             state->timing.critical_delay,
                             state->timing.total_power(), elapsed()});
    ++report_.replayed_accepts;
    return std::move(*state);
  }

  std::string memo_key(std::span<const GateId> region,
                       const std::vector<bool>& banned) const {
    std::string key = strfmt("v%llu|",
                             static_cast<unsigned long long>(state_version_));
    for (bool b : banned) key += b ? '1' : '0';
    key += '|';
    for (GateId g : region) key += strfmt("%u,", g.value());
    return key;
  }

  /// Signature of a concrete candidate netlist, valid for the current
  /// base state (the version prefix pins `cur`, which the u_in gate and
  /// acceptance compare against).
  [[nodiscard]] std::string sig_key(const Netlist& candidate) const {
    return strfmt("s%llu|%zu|%016llx|%016llx",
                  static_cast<unsigned long long>(state_version_),
                  candidate.num_live_gates(),
                  static_cast<unsigned long long>(
                      structural_hash(candidate, 0x243F6A8885A308D3ULL)),
                  static_cast<unsigned long long>(
                      structural_hash(candidate, 0x13198A2E03707344ULL)));
  }

  /// Folds a finished probe session's load economics into the report
  /// (the only place probe-side fault-sim counters surface: sessions
  /// here are never handed to commit_probe). Callers on pool lanes must
  /// hold the ladder mutex — report_ is shared.
  void absorb_probe_counters(const ProbeSession& session) {
    const AtpgCounters& c = session.counters();
    report_.probe_frame_bytes += c.frame_bytes_materialized;
    report_.probe_full_loads += c.full_loads;
    report_.probe_overlay_loads += c.overlay_loads;
    report_.probe_load_seconds += c.load_seconds;
    report_.probe_podem_handoffs += c.podem_handoffs;
    report_.probe_sat_detected += c.sat_detected;
    report_.probe_sat_undetectable += c.sat_undetectable;
    report_.probe_sat_aborted += c.sat_aborted;
    report_.probe_sat_clauses += c.sat_clauses;
    report_.probe_sat_seconds += c.sat_seconds;
    report_.probe_phase2_seconds += c.phase2_seconds;
    report_.probe_proof_memo_hits += c.proof_memo_hits;
  }

  /// Evaluates a candidate's metrics, memoized across the q sweep.
  /// Leaves no flow-cache or netlist side effects behind (probes write
  /// into private overlays). Respects the per-iteration PDesign()
  /// budget: once exhausted, further candidates report as gate-failed
  /// without being memoized (so a later iteration with fresh budget can
  /// still evaluate them), and a dedup/prefetch hit charges the budget
  /// exactly as the recompute it replaces would.
  const CandMetrics& measure(const FlowState& cur,
                             std::span<const GateId> region,
                             const std::vector<bool>& banned) {
    const std::string key = memo_key(region, banned);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    CandMetrics m;
    Expected<Netlist> candidate = [&] {
      const ScopedTimer t(report_.build_seconds);
      ++report_.candidates_built;
      return build_candidate(cur, region, banned);
    }();
    if (!candidate) {
      m.map_failed = true;
      if (candidate.code() == StatusCode::kUnsatisfiable) {
        return memo_.emplace(std::move(key), m).first->second;
      }
      // Not a search outcome (malformed region): report the failure but
      // keep it out of the memo.
      scratch_ = m;
      return scratch_;
    }

    std::string sig;
    if (options_.dedup_candidates) {
      sig = sig_key(*candidate);
      if (auto it = sig_memo_.find(sig); it != sig_memo_.end()) {
        ++report_.sig_hits;
        // An earlier ban prefix produced this exact replacement (banning
        // an unused cell re-maps identically). Reuse its metrics, but
        // keep the budget evolution identical to a recompute: results
        // that came out of a reanalysis still consume one here.
        m = it->second;
        if (!m.u_in_gate_failed) {
          if (reanalyses_left_ <= 0) {
            scratch_ = m;
            scratch_.u_in_gate_failed = true;  // budget exhausted, unmemoized
            return scratch_;
          }
          --reanalyses_left_;
        }
        return memo_.emplace(std::move(key), m).first->second;
      }
    }

    // One probe session per candidate: the full analysis reuses the u_in
    // probe's overlay verdicts, and the flow itself stays untouched
    // until realize() commits the stashed overlay.
    ProbeSession session =
        flow_.probe(&arenas_[0], /*num_threads=*/0, options_.cancel);
    if (const auto pit = partial_u_in_.find(sig);
        options_.dedup_candidates && pit != partial_u_in_.end()) {
      m.u_in_new = pit->second;  // prefetched, analysis still pending
    } else {
      const ScopedTimer t(report_.u_in_seconds);
      ++report_.u_in_probes;
      auto u_in = session.count_undetectable_internal(*candidate);
      if (!u_in) {
        // Cancelled mid-probe: partial verdicts are discarded, nothing
        // is memoized, and the caller abandons the iteration.
        ++report_.rungs_skipped;
        absorb_probe_counters(session);
        scratch_ = m;
        scratch_.cancelled = true;
        scratch_.u_in_gate_failed = true;
        return scratch_;
      }
      m.u_in_new = *u_in;
    }
    const std::size_t u_in_cur = u_in_of(cur);
    if (m.u_in_new >= u_in_cur) {
      // PDesign() gate (Section III-B): physical design only when the
      // undetectable internal fault count decreased.
      m.u_in_gate_failed = true;
    } else if (reanalyses_left_ <= 0) {
      absorb_probe_counters(session);
      scratch_ = m;
      scratch_.u_in_gate_failed = true;  // budget exhausted: skip, unmemoized
      return scratch_;
    } else {
      --reanalyses_left_;
      Expected<FlowState> state = [&] {
        const ScopedTimer t(report_.probe_seconds);
        ++report_.full_probes;
        return session.reanalyze(std::move(*candidate), cur.placement, false);
      }();
      if (!state) {
        if (state.code() != StatusCode::kUnsatisfiable) {
          ++report_.rungs_skipped;
          absorb_probe_counters(session);
          scratch_ = m;
          scratch_.cancelled = true;
          scratch_.u_in_gate_failed = true;
          return scratch_;
        }
        m.area_failed = true;  // die full: a normal search outcome
      } else {
        m.undetectable = state->num_undetectable();
        m.smax = state->smax();
        m.faults = state->num_faults();
        m.delay = state->timing.critical_delay;
        m.power = state->timing.total_power();
        if (options_.dedup_candidates && may_accept(cur, m)) {
          stash_.emplace(sig, Stash{std::move(*state),
                                    session.take_updates()});
        }
      }
    }
    absorb_probe_counters(session);
    if (options_.dedup_candidates) sig_memo_.emplace(sig, m);
    return memo_.emplace(std::move(key), m).first->second;
  }

  /// Produces the FlowState of an already-vetted candidate and commits
  /// its classifications to the flow cache — from the speculative stash
  /// when the evaluation kept one, re-running the full committed
  /// pipeline otherwise.
  std::optional<FlowState> realize(const FlowState& cur,
                                   std::span<const GateId> region,
                                   const std::vector<bool>& banned) {
    auto candidate = build_candidate(cur, region, banned);
    if (!candidate) return std::nullopt;
    // Stage the acceptance for the checkpoint journal: record() appends
    // exactly this (region, ban set) pair, which rebuilds the identical
    // candidate on replay.
    pending_region_.assign(region.begin(), region.end());
    pending_banned_ = banned;
    if (options_.dedup_candidates) {
      const std::string sig = sig_key(*candidate);
      if (const auto it = stash_.find(sig); it != stash_.end()) {
        flow_.commit_updates(it->second.overlay);
        ++report_.stash_commits;
        FlowState state = std::move(it->second.state);
        stash_.erase(it);
        // The stashed candidate is now the committed design; fold the
        // probe-overlay baseline onto it (a committed analyze would
        // have done this itself).
        flow_.rebase_overlays(state.netlist);
        return state;
      }
    }
    auto state = flow_.analyze(AnalysisRequest::incremental(
        std::move(*candidate), cur.placement, /*generate_tests=*/false));
    if (!state) return std::nullopt;  // die full: area constraint
    return std::move(*state);
  }

  /// Whether accepts() can pass `m` in either phase. realize() only
  /// looks up candidates accepts() passed, so the stash keeps just these
  /// (a probed FlowState is the largest thing the search holds).
  static bool may_accept(const FlowState& cur, const CandMetrics& m) {
    return m.undetectable < cur.num_undetectable() ||
           (m.smax < cur.smax() && m.undetectable <= cur.num_undetectable());
  }

  bool accepts(const FlowState& cur, const CandMetrics& m, int phase,
               double p2) const {
    if (m.map_failed || m.area_failed || m.u_in_gate_failed) return false;
    if (phase == 1) {
      // S_max must shrink without growing total U.
      return m.smax < cur.smax() && m.undetectable <= cur.num_undetectable();
    }
    const double smax_fraction =
        m.faults == 0
            ? 0.0
            : static_cast<double>(m.smax) / static_cast<double>(m.faults);
    return m.undetectable < cur.num_undetectable() &&
           smax_fraction <= p2 + 1e-12;
  }

  [[nodiscard]] bool constraints_ok(const CandMetrics& m) const {
    constexpr double kEps = 1e-9;
    return !m.area_failed && m.delay <= budgets_.delay + kEps &&
           m.power <= budgets_.power + kEps;
  }

  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_time_).count();
  }

  /// A fully measured candidate that the acceptance rules (or the
  /// constraint budgets) turned down — the rejected half of the
  /// convergence series. Never journaled.
  void record_rejected(int q, int phase, const CandMetrics& m,
                       const std::string& banned_through) {
    report_.trace.push_back({q, phase, m.smax, m.undetectable,
                             /*accepted=*/false, /*via_backtracking=*/false,
                             banned_through, m.faults, m.delay, m.power,
                             elapsed()});
  }

  void record(int q, int phase, const FlowState& after, bool accepted,
              bool via_backtracking, const std::string& banned_through) {
    report_.trace.push_back({q, phase, after.smax(),
                             after.num_undetectable(), accepted,
                             via_backtracking, banned_through,
                             after.num_faults(), after.timing.critical_delay,
                             after.timing.total_power(), elapsed()});
    if (accepted && writer_.is_open()) {
      // Journal the acceptance before the search continues: after the
      // fsync'd append returns, a crash at any later point replays this
      // step. A failed append is surfaced at the next loop boundary.
      CheckpointRecord rec;
      rec.kind = CheckpointRecord::Kind::Accept;
      rec.q = q;
      rec.phase = phase;
      rec.via_backtracking = via_backtracking;
      rec.cell_name = banned_through;
      rec.region.reserve(pending_region_.size());
      for (const GateId g : pending_region_) rec.region.push_back(g.value());
      rec.banned = pending_banned_;
      rec.smax = after.smax();
      rec.undetectable = after.num_undetectable();
      const Status s = writer_.append(rec);
      if (!s.is_ok() && journal_error_.is_ok()) journal_error_ = s;
    }
  }

  /// One resynthesis iteration: scan cells in decreasing internal-fault
  /// order, evaluate candidates, run backtracking on constraint
  /// violations. Returns the accepted state or nullopt.
  std::optional<FlowState> try_region(const FlowState& cur, int q, int phase,
                                      double p2) {
    const std::vector<GateId> region = region_of(cur, phase);
    if (region.empty()) return std::nullopt;
    TraceSpan iter_span("resyn.iteration", "resyn");
    if (iter_span.active()) {
      iter_span.arg("q", q);
      iter_span.arg("phase", phase);
      iter_span.arg("region", static_cast<std::uint64_t>(region.size()));
    }
    reanalyses_left_ = options_.reanalyses_per_iteration;
    prefetch_ladder(cur, region);

    int rising = 0;
    std::size_t last_u = std::numeric_limits<std::size_t>::max();
    std::vector<bool> banned(flow_.target().num_cells(), false);

    for (std::size_t ci = 0; ci < cell_order_.size(); ++ci) {
      const CellId cell = cell_order_[ci];
      banned[cell.value()] = true;
      // Note on eligibility (paper conditions (1)/(2)): skipping ban
      // prefixes whose last cell is absent from the region can jump over
      // the affordable rung when the *replacement* logic would reuse a
      // not-yet-banned high-fault cell (banning FAX1 alone re-maps onto
      // XNOR2X1). We therefore evaluate every prefix of the order; the
      // u_in gate discards the useless ones cheaply.
      const std::string& cell_name = flow_.target().cell(cell).name;

      TraceSpan rung_span("resyn.rung", "resyn");
      if (rung_span.active()) {
        rung_span.arg("ban_through", cell_name.c_str());
        rung_span.arg("region", static_cast<std::uint64_t>(region.size()));
      }
      const CandMetrics& m = measure(cur, region, banned);
      if (m.cancelled) return std::nullopt;  // abandon the iteration
      if (m.map_failed) break;  // subset insufficient; larger bans too
      if (m.u_in_gate_failed) continue;

      const bool ok_accept = accepts(cur, m, phase, p2);
      const bool ok_constraints = constraints_ok(m);
      log_debug("resyn q=%d ph=%d region=%zu ban<=%s u_in->%zu U %zu->%zu "
                "acc=%d con=%d",
                q, phase, region.size(), cell_name.c_str(), m.u_in_new,
                cur.num_undetectable(), m.undetectable, int(ok_accept),
                int(ok_constraints));

      if (!m.area_failed) {
        // Early phase termination on a rising total-U trend.
        rising = (last_u != std::numeric_limits<std::size_t>::max() &&
                  m.undetectable > last_u)
                     ? rising + 1
                     : 0;
        last_u = m.undetectable;
      }

      if (ok_accept && ok_constraints) {
        auto state = realize(cur, region, banned);
        if (state) {
          record(q, phase, *state, true, false, cell_name);
          return state;
        }
      } else {
        // The candidate was fully measured and turned down: one rejected
        // point of the convergence series (area failures carry no
        // metrics and are skipped).
        if (!m.area_failed) record_rejected(q, phase, m, cell_name);
        if (m.area_failed || ok_accept) {
          // Acceptance-worthy but over budget (or placement failed): run
          // the sqrt(n)-group backtracking procedure.
          auto bt = backtrack(cur, region, banned, phase, p2, q, cell_name);
          if (bt) return bt;
        }
      }
      if (rising >= options_.trend_window) break;
    }
    return std::nullopt;
  }

  /// Section III-C: freeze gates of banned types in groups of sqrt(n)
  /// (G_back) to lower the design overhead, then thaw the last group one
  /// by one when the shrunken rewrite no longer improves enough.
  std::optional<FlowState> backtrack(const FlowState& cur,
                                     std::span<const GateId> region,
                                     const std::vector<bool>& banned,
                                     int phase, double p2, int q,
                                     const std::string& cell_name) {
    std::vector<GateId> g_i;  // replaceable gates of banned types
    std::vector<GateId> keep;
    for (GateId g : region) {
      if (banned[cur.netlist.gate(g).cell.value()]) {
        g_i.push_back(g);
      } else {
        keep.push_back(g);
      }
    }
    const std::size_t n = g_i.size();
    if (n == 0) return std::nullopt;
    TraceSpan span("resyn.backtrack", "resyn");
    if (span.active()) {
      span.arg("candidates", static_cast<std::uint64_t>(n));
      span.arg("ban_through", cell_name.c_str());
    }
    // Freeze the costliest replacements first ("modifying fewer gates
    // implies lower relative effect on design constraints", Section
    // III-C): large cells whose decompositions dominate the overhead go
    // into G_back before cheap swaps such as drive downsizing.
    std::sort(g_i.begin(), g_i.end(), [&](GateId a, GateId b) {
      const double aa = cur.netlist.cell_of(a).area_um2;
      const double ab = cur.netlist.cell_of(b).area_um2;
      return aa != ab ? aa > ab : a < b;
    });
    const std::size_t group =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(n)));

    // Verdict: 1 accept, -1 constraints violated, -2 acceptance failed,
    // -3 cancelled (abandon backtracking entirely).
    const auto judge = [&](std::size_t frozen)
        -> std::pair<int, std::vector<GateId>> {
      std::vector<GateId> sub_region = keep;
      sub_region.insert(sub_region.end(), g_i.begin() + frozen, g_i.end());
      if (sub_region.empty()) return {-2, {}};
      const CandMetrics& m = measure(cur, sub_region, banned);
      if (m.cancelled) return {-3, {}};
      if (m.map_failed || m.u_in_gate_failed) return {-2, {}};
      const bool ok_accept = accepts(cur, m, phase, p2);
      const bool ok_constraints = constraints_ok(m);
      if (ok_accept && ok_constraints) return {1, std::move(sub_region)};
      if (!ok_constraints) return {-1, {}};
      return {-2, {}};
    };

    std::size_t frozen = 0;
    while (frozen < n) {
      frozen = std::min(n, frozen + group);
      auto [verdict, sub_region] = judge(frozen);
      if (verdict == -3) return std::nullopt;
      if (verdict == 1) {
        auto state = realize(cur, sub_region, banned);
        if (state) {
          record(q, phase, *state, true, true, cell_name);
          return state;
        }
      }
      if (verdict == -2) {
        // Constraints fine but not enough improvement: thaw the last
        // group one gate at a time.
        const std::size_t group_start = frozen - std::min(frozen, group);
        for (std::size_t f = frozen; f-- > group_start;) {
          auto [verdict2, sub_region2] = judge(f);
          if (verdict2 == -3) return std::nullopt;
          if (verdict2 == 1) {
            auto state = realize(cur, sub_region2, banned);
            if (state) {
              record(q, phase, *state, true, true, cell_name);
              return state;
            }
          }
          if (verdict2 == -1) break;  // overheads reappeared
        }
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// Speculative evaluation of the whole cell ladder on the shared
  /// thread pool before the serial acceptance walk. Each worker probes
  /// with a private cache overlay and simulator arena (inner ATPG runs
  /// single-threaded — the shared pool must not be entered twice), and
  /// publishes into the dedup structures under a mutex; the walk then
  /// consumes the results serially, so acceptance decisions and budget
  /// accounting are identical to the serial run. No-op with one worker.
  void prefetch_ladder(const FlowState& cur, std::span<const GateId> region) {
    if (!options_.parallel_ladder || !options_.dedup_candidates) return;
    const int workers =
        ThreadPool::resolve_threads(flow_.options().atpg.num_threads);
    if (workers <= 1) return;

    struct Rung {
      std::vector<bool> banned;
    };
    std::vector<Rung> rungs;
    std::vector<bool> banned(flow_.target().num_cells(), false);
    for (const CellId cell : cell_order_) {
      banned[cell.value()] = true;
      if (memo_.find(memo_key(region, banned)) == memo_.end()) {
        rungs.push_back({banned});
      }
    }
    if (rungs.size() < 2) return;

    if (arenas_.size() < static_cast<std::size_t>(workers)) {
      arenas_.resize(static_cast<std::size_t>(workers));
    }
    const std::size_t u_in_cur = u_in_of(cur);
    std::mutex mutex;
    std::unordered_set<std::string> claimed;
    // At most the iteration's reanalysis budget is speculated; the walk
    // remains the authority on which evaluations actually charge it.
    std::atomic<int> spec_budget{reanalyses_left_};

    ThreadPool::shared().parallel_for(
        rungs.size(), 1, workers,
        [&](int lane, std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) {
            if (cancel_expired(options_.cancel)) return;
            TraceSpan spec_span("resyn.rung.spec", "resyn");
            const auto tb = Clock::now();
            auto candidate = build_candidate(cur, region, rungs[r].banned);
            const double build_s =
                std::chrono::duration<double>(Clock::now() - tb).count();
            if (!candidate) continue;
            const std::string sig = sig_key(*candidate);
            {
              std::lock_guard lock(mutex);
              ++report_.candidates_built;
              report_.build_seconds += build_s;
              if (sig_memo_.contains(sig) || partial_u_in_.contains(sig) ||
                  !claimed.insert(sig).second) {
                continue;
              }
            }
            // Lane-private session: inner ATPG runs single-threaded (a
            // pool lane must not fan out again) on the lane's arena.
            ProbeSession session =
                flow_.probe(&arenas_[static_cast<std::size_t>(lane)],
                            /*num_threads=*/1, options_.cancel);
            CandMetrics m;
            const auto tu = Clock::now();
            const auto u_in = session.count_undetectable_internal(*candidate);
            const double u_in_s =
                std::chrono::duration<double>(Clock::now() - tu).count();
            if (!u_in) {
              // Cancelled mid-probe: publish nothing (the session's
              // counters for complete prior runs still count).
              std::lock_guard lock(mutex);
              absorb_probe_counters(session);
              continue;
            }
            m.u_in_new = *u_in;
            if (m.u_in_new >= u_in_cur) {
              m.u_in_gate_failed = true;
              std::lock_guard lock(mutex);
              ++report_.u_in_probes;
              report_.u_in_seconds += u_in_s;
              absorb_probe_counters(session);
              sig_memo_.emplace(sig, m);
              continue;
            }
            if (spec_budget.fetch_sub(1) <= 0) {
              // Over the speculation budget: keep the u_in result so the
              // walk can skip the probe, but leave the analysis (and its
              // budget charge) to the walk.
              std::lock_guard lock(mutex);
              ++report_.u_in_probes;
              report_.u_in_seconds += u_in_s;
              absorb_probe_counters(session);
              partial_u_in_.emplace(sig, m.u_in_new);
              continue;
            }
            const auto tp = Clock::now();
            auto state =
                session.reanalyze(std::move(*candidate), cur.placement, false);
            const double probe_s =
                std::chrono::duration<double>(Clock::now() - tp).count();
            if (!state && state.code() != StatusCode::kUnsatisfiable) {
              // Cancelled mid-analysis: the u_in count is still complete,
              // so keep it as a partial; the walk (if it resumes) will
              // redo or skip the full analysis itself.
              std::lock_guard lock(mutex);
              ++report_.u_in_probes;
              report_.u_in_seconds += u_in_s;
              absorb_probe_counters(session);
              partial_u_in_.emplace(sig, m.u_in_new);
              continue;
            }
            if (!state) {
              m.area_failed = true;
            } else {
              m.undetectable = state->num_undetectable();
              m.smax = state->smax();
              m.faults = state->num_faults();
              m.delay = state->timing.critical_delay;
              m.power = state->timing.total_power();
            }
            std::lock_guard lock(mutex);
            ++report_.u_in_probes;
            report_.u_in_seconds += u_in_s;
            ++report_.full_probes;
            report_.probe_seconds += probe_s;
            absorb_probe_counters(session);
            if (state && may_accept(cur, m)) {
              stash_.emplace(sig, Stash{std::move(*state),
                                        session.take_updates()});
            }
            sig_memo_.emplace(sig, m);
          }
        }, options_.cancel);
  }

  /// count_undet_internal(cur), counted once per base state: `cur` is
  /// the state of state_version_ (only bump_version() moves either).
  std::size_t u_in_of(const FlowState& cur) {
    if (u_in_version_ != state_version_) {
      u_in_cur_ = count_undet_internal(cur);
      u_in_version_ = state_version_;
    }
    return u_in_cur_;
  }

  /// A state was accepted: the base version changes, so every
  /// version-pinned speculative artifact of the old base is dead.
  void bump_version() {
    ++state_version_;
    stash_.clear();
    partial_u_in_.clear();
  }

  struct Stash {
    FlowState state;
    FaultStatusCache overlay;
  };

  DesignFlow& flow_;
  const ResynthesisOptions& options_;
  std::vector<CellId> cell_order_;
  double original_delay_;
  double original_power_;
  Clock::time_point start_time_;
  Budgets budgets_;
  ResynthesisReport report_;
  std::unordered_map<std::string, CandMetrics> memo_;
  /// Candidate-signature memo (dedup_candidates): metrics keyed by the
  /// concrete replacement netlist rather than the ban prefix.
  std::unordered_map<std::string, CandMetrics> sig_memo_;
  /// Prefetched u_in results whose full analysis is still pending.
  std::unordered_map<std::string, std::size_t> partial_u_in_;
  /// Speculative FlowStates + cache overlays awaiting realize().
  std::unordered_map<std::string, Stash> stash_;
  /// Per-ladder-lane simulator arenas (slot 0 = the serial walk).
  std::vector<FaultSimArena> arenas_{1};
  std::uint64_t state_version_ = 0;
  /// u_in_of()'s count and the version it belongs to.
  std::uint64_t u_in_version_ = ~std::uint64_t{0};
  std::size_t u_in_cur_ = 0;
  int reanalyses_left_ = 0;
  CandMetrics scratch_;
  /// Acceptance journal (no-op unless options_.checkpoint_dir is set).
  CheckpointWriter writer_;
  /// First journal-append failure; surfaced at the next loop boundary.
  Status journal_error_;
  /// (region, ban set) of the candidate realize() last built, staged for
  /// the journal record of its acceptance.
  std::vector<GateId> pending_region_;
  std::vector<bool> pending_banned_;
};

}  // namespace

std::string ResynthesisReport::probe_atpg_summary() const {
  return strfmt(
      "atpg (probes): phase 2 %.3fs, %llu handoffs, sat %llu D/%llu U/%llu A "
      "(%llu clauses, %.3fs), %llu proof memo hits",
      probe_phase2_seconds, static_cast<unsigned long long>(probe_podem_handoffs),
      static_cast<unsigned long long>(probe_sat_detected),
      static_cast<unsigned long long>(probe_sat_undetectable),
      static_cast<unsigned long long>(probe_sat_aborted),
      static_cast<unsigned long long>(probe_sat_clauses), probe_sat_seconds,
      static_cast<unsigned long long>(probe_proof_memo_hits));
}

Expected<ResynthesisResult> resynthesize(DesignFlow& flow,
                                         const FlowState& original,
                                         const ResynthesisOptions& options) {
  Procedure procedure(flow, original, options);
  return procedure.run(original);
}

std::uint64_t resynthesis_fingerprint(const DesignFlow& flow,
                                      const FlowState& original,
                                      const ResynthesisOptions& options) {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(options.p1 * 1e9));
  mix(static_cast<std::uint64_t>(options.q_max));
  mix(static_cast<std::uint64_t>(options.max_iterations_per_phase));
  mix(static_cast<std::uint64_t>(options.trend_window));
  mix(static_cast<std::uint64_t>(options.reanalyses_per_iteration));
  const FlowOptions& fo = flow.options();
  mix(fo.warm_start);
  mix(static_cast<std::uint64_t>(fo.utilization * 1e9));
  mix(fo.atpg.seed);
  mix(static_cast<std::uint64_t>(fo.atpg.random_batches));
  mix(static_cast<std::uint64_t>(fo.atpg.backtrack_limit));
  mix(structural_hash(original.netlist, 0x13198A2E03707344ULL));
  mix(original.num_faults());
  mix(original.num_undetectable());
  mix(original.smax());
  for (const TestPattern& t : flow.seed_tests()) {
    for (const std::uint8_t b : t.frame0) mix(b);
    for (const std::uint8_t b : t.frame1) mix(b);
  }
  return h;
}

}  // namespace dfmres
