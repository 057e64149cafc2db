#include "src/core/run_report.hpp"
#include "src/core/schemas.hpp"

#include <cstdio>
#include <ctime>

#include "src/util/json.hpp"

namespace dfmres {

namespace {

/// Process CPU seconds so far — paired with wall time in the report, it
/// shows how much the pool actually parallelized.
double process_cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

void write_summary(JsonWriter& w, const StateSummary& s) {
  w.begin_object();
  w.field("faults", static_cast<std::uint64_t>(s.faults));
  w.field("undetectable", static_cast<std::uint64_t>(s.undetectable));
  w.field("aborted", static_cast<std::uint64_t>(s.aborted));
  w.field("smax", static_cast<std::uint64_t>(s.smax));
  w.field("smax_pct", s.smax_pct);
  w.field("coverage", s.coverage);
  w.field("coverage_lower", s.coverage_lower);
  w.field("delay", s.delay);
  w.field("power", s.power);
  w.field("tests", static_cast<std::uint64_t>(s.tests));
  w.end_object();
}

}  // namespace

StateSummary StateSummary::of(const FlowState& state) {
  StateSummary s;
  s.faults = state.num_faults();
  s.undetectable = state.num_undetectable();
  s.aborted = state.num_aborted();
  s.smax = state.smax();
  s.smax_pct = state.smax_fraction() * 100.0;
  s.coverage = state.coverage();
  s.coverage_lower = state.coverage_lower();
  s.delay = state.timing.critical_delay;
  s.power = state.timing.total_power();
  s.tests = state.atpg.tests.size();
  return s;
}

RunReport::RunReport(std::string command, std::string circuit)
    : command_(std::move(command)), circuit_(std::move(circuit)) {}

void RunReport::set_threads(int threads) { threads_ = threads; }

void RunReport::set_fingerprint(std::uint64_t fingerprint) {
  fingerprint_ = fingerprint;
  has_fingerprint_ = true;
}

void RunReport::set_initial(const FlowState& state) {
  initial_ = StateSummary::of(state);
}

void RunReport::set_final(const FlowState& state) {
  final_ = StateSummary::of(state);
}

void RunReport::set_resynthesis(const ResynthesisReport& report) {
  resyn_ = report;
  partial_ = partial_ || report.deadline_expired;
}

void RunReport::set_atpg_totals(const AtpgCounters& totals) {
  atpg_ = totals;
}

void RunReport::set_runtime_seconds(double seconds) {
  runtime_seconds_ = seconds;
}

void RunReport::set_partial(bool partial) { partial_ = partial; }

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kRunReport);
  w.field("command", command_);
  w.field("circuit", circuit_);
  if (threads_ > 0) w.field("threads", threads_);
  if (has_fingerprint_) {
    w.field("fingerprint",
            strfmt("%016llx", static_cast<unsigned long long>(fingerprint_)));
  }
  w.field("partial", partial_);
  w.field("runtime_seconds", runtime_seconds_);
  w.field("cpu_seconds", process_cpu_seconds());
  if (initial_) {
    w.key("initial");
    write_summary(w, *initial_);
  }
  if (final_) {
    w.key("final");
    write_summary(w, *final_);
  }
  if (atpg_) {
    w.key("atpg");
    w.raw(atpg_->json());
  }
  if (resyn_) {
    const ResynthesisReport& r = *resyn_;
    w.key("resynthesis");
    w.begin_object();
    w.field("q_used", r.q_used);
    w.field("any_accepted", r.any_accepted);
    w.field("deadline_expired", r.deadline_expired);
    w.field("runtime_seconds", r.runtime_seconds);
    w.key("counters");
    w.begin_object();
    w.field("rungs_skipped", static_cast<std::uint64_t>(r.rungs_skipped));
    w.field("replayed_accepts",
            static_cast<std::uint64_t>(r.replayed_accepts));
    w.field("candidates_built",
            static_cast<std::uint64_t>(r.candidates_built));
    w.field("u_in_probes", static_cast<std::uint64_t>(r.u_in_probes));
    w.field("full_probes", static_cast<std::uint64_t>(r.full_probes));
    w.field("sig_hits", static_cast<std::uint64_t>(r.sig_hits));
    w.field("stash_commits", static_cast<std::uint64_t>(r.stash_commits));
    w.field("probe_frame_bytes", r.probe_frame_bytes);
    w.field("probe_full_loads", r.probe_full_loads);
    w.field("probe_overlay_loads", r.probe_overlay_loads);
    w.field("probe_load_seconds", r.probe_load_seconds);
    w.field("probe_podem_handoffs", r.probe_podem_handoffs);
    w.field("probe_sat_detected", r.probe_sat_detected);
    w.field("probe_sat_undetectable", r.probe_sat_undetectable);
    w.field("probe_sat_aborted", r.probe_sat_aborted);
    w.field("probe_sat_clauses", r.probe_sat_clauses);
    w.field("probe_sat_seconds", r.probe_sat_seconds);
    w.field("probe_phase2_seconds", r.probe_phase2_seconds);
    w.field("probe_proof_memo_hits", r.probe_proof_memo_hits);
    w.field("probe_cone_proof_hits", r.probe_cone_proof_hits);
    w.end_object();
    w.key("phase_seconds");
    w.begin_object();
    w.field("build", r.build_seconds);
    w.field("u_in", r.u_in_seconds);
    w.field("probe", r.probe_seconds);
    w.field("signoff", r.signoff_seconds);
    w.end_object();
    w.key("convergence");
    w.begin_array();
    for (const IterationRecord& rec : r.trace) {
      w.begin_object();
      w.field("q", rec.q);
      w.field("phase", rec.phase);
      w.field("accepted", rec.accepted);
      w.field("via_backtracking", rec.via_backtracking);
      w.field("ban_through", rec.banned_through);
      w.field("smax", static_cast<std::uint64_t>(rec.smax));
      w.field("undetectable", static_cast<std::uint64_t>(rec.undetectable));
      w.field("faults", static_cast<std::uint64_t>(rec.faults));
      w.field("smax_pct",
              rec.faults == 0 ? 0.0
                              : 100.0 * static_cast<double>(rec.smax) /
                                    static_cast<double>(rec.faults));
      w.field("delay", rec.delay);
      w.field("power", rec.power);
      w.field("seconds", rec.seconds);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  return w.take();
}

Status RunReport::write_json(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return make_status(StatusCode::kInvalidArgument,
                       "cannot open report output '%s'", path.c_str());
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return make_status(StatusCode::kDataLoss,
                       "short write to report output '%s'", path.c_str());
  }
  return Status::ok();
}

void publish_metrics(const ResynthesisReport& report,
                     MetricsRegistry& registry) {
  registry.add("resyn.candidates_built", report.candidates_built);
  registry.add("resyn.u_in_probes", report.u_in_probes);
  registry.add("resyn.full_probes", report.full_probes);
  registry.add("resyn.sig_hits", report.sig_hits);
  registry.add("resyn.stash_commits", report.stash_commits);
  registry.add("resyn.rungs_skipped", report.rungs_skipped);
  registry.add("resyn.replayed_accepts", report.replayed_accepts);
  registry.add("resyn.probe_frame_bytes", report.probe_frame_bytes);
  registry.add("resyn.probe_full_loads", report.probe_full_loads);
  registry.add("resyn.probe_overlay_loads", report.probe_overlay_loads);
  registry.observe("resyn.probe_load_seconds", report.probe_load_seconds);
  registry.add("resyn.probe_podem_handoffs", report.probe_podem_handoffs);
  registry.add("resyn.probe_sat_detected", report.probe_sat_detected);
  registry.add("resyn.probe_sat_undetectable", report.probe_sat_undetectable);
  registry.add("resyn.probe_sat_aborted", report.probe_sat_aborted);
  registry.add("resyn.probe_sat_clauses", report.probe_sat_clauses);
  registry.observe("resyn.probe_sat_seconds", report.probe_sat_seconds);
  registry.observe("resyn.probe_phase2_seconds", report.probe_phase2_seconds);
  registry.add("resyn.probe_proof_memo_hits", report.probe_proof_memo_hits);
  registry.add("resyn.probe_cone_proof_hits", report.probe_cone_proof_hits);
  registry.observe("resyn.build_seconds", report.build_seconds);
  registry.observe("resyn.u_in_seconds", report.u_in_seconds);
  registry.observe("resyn.probe_seconds", report.probe_seconds);
  registry.observe("resyn.signoff_seconds", report.signoff_seconds);
  registry.set_gauge("resyn.q_used", report.q_used);
  registry.set_gauge("resyn.deadline_expired",
                     report.deadline_expired ? 1.0 : 0.0);
  std::uint64_t accepted = 0;
  for (const IterationRecord& rec : report.trace) {
    accepted += rec.accepted ? 1 : 0;
    const double x = rec.seconds;
    registry.sample("resyn.series.undetectable", x,
                    static_cast<double>(rec.undetectable));
    registry.sample("resyn.series.smax", x, static_cast<double>(rec.smax));
    if (rec.faults > 0) {
      registry.sample("resyn.series.smax_pct", x,
                      100.0 * static_cast<double>(rec.smax) /
                          static_cast<double>(rec.faults));
    }
    registry.sample("resyn.series.delay", x, rec.delay);
    registry.sample("resyn.series.power", x, rec.power);
    registry.sample("resyn.series.accepted", x, rec.accepted ? 1.0 : 0.0);
  }
  registry.add("resyn.candidates_recorded", report.trace.size());
  registry.add("resyn.accepted", accepted);
}

}  // namespace dfmres
