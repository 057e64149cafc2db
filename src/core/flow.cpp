#include "src/core/flow.hpp"

#include <algorithm>

#include "src/core/telemetry.hpp"
#include "src/library/osu018.hpp"
#include "src/util/logging.hpp"
#include "src/util/trace.hpp"

namespace dfmres {

DesignFlow::DesignFlow(std::shared_ptr<const Library> target,
                       FlowOptions options)
    : target_(std::move(target)),
      options_(options),
      udfm_(shared_udfm(target_)) {}

Expected<FlowState> DesignFlow::run_initial(const Netlist& rtl) {
  // Synthesize(): technology mapping with arithmetic/sequential macros
  // pinned, the way RTL synthesis instantiates adder and flop cells.
  MapOptions map_options;
  const Library& slib = rtl.library();
  const auto pin_macro = [&](const char* src_name, const char* dst_name) {
    if (const auto src = slib.find(src_name)) {
      if (const auto dst = target_->find(dst_name)) {
        map_options.fixed_map.emplace(src->value(), *dst);
      }
    }
  };
  pin_macro("DFF", "DFFPOSX1");
  pin_macro("FA", "FAX1");
  pin_macro("HA", "HAX1");

  auto mapped = technology_map(rtl, target_, map_options);
  if (!mapped) return mapped.status();

  const Floorplan plan = make_floorplan(*mapped, options_.utilization);
  Placement placement = global_place(*mapped, plan, options_.place);
  auto state = analyze(AnalysisRequest::placed(std::move(*mapped),
                                               std::move(placement),
                                               /*generate_tests=*/true));
  if (!state) {
    // The initial floorplan is sized for the mapped netlist, so the
    // area constraint cannot fire here; treat it as an invariant breach.
    fatal_invariant("run_initial: initial placement of '%s' did not fit",
                    rtl.name().c_str());
  }
  return std::move(*state);
}

Expected<FlowState> DesignFlow::analyze(AnalysisRequest request) {
  if ((request.previous != nullptr) == request.placement.has_value()) {
    return make_status(StatusCode::kInvalidArgument,
                       "analyze: exactly one of previous/placement must be "
                       "set on the AnalysisRequest");
  }
  if (request.previous != nullptr) {
    std::optional<Placement> placement;
    {
      TraceSpan span("flow.incremental_place", "flow");
      placement = incremental_place(request.netlist, *request.previous);
    }
    if (!placement) {
      return make_status(StatusCode::kUnsatisfiable,
                         "analyze: die cannot absorb the edit to '%s'",
                         request.netlist.name().c_str());
    }
    return analyze_committed(std::move(request.netlist),
                             std::move(*placement), request.generate_tests);
  }
  return analyze_committed(std::move(request.netlist),
                           std::move(*request.placement),
                           request.generate_tests);
}

FlowState DesignFlow::analyze_committed(Netlist netlist, Placement placement,
                                        bool generate_tests) {
  TraceSpan analyze_span("flow.analyze", "flow");
  if (analyze_span.active()) {
    analyze_span.arg("gates",
                     static_cast<std::uint64_t>(netlist.num_live_gates()));
    analyze_span.arg("generate_tests", generate_tests ? 1 : 0);
  }
  // Stage spans reuse one optional slot; emplace closes the previous
  // stage before opening the next, so the spans tile the function.
  std::optional<TraceSpan> stage;
  stage.emplace("flow.route", "flow");
  RoutingResult routing = route(netlist, placement, options_.route);
  stage.emplace("flow.sta", "flow");
  TimingPower timing = analyze_timing_power(netlist, routing, options_.sta);
  stage.emplace("flow.extract_faults", "flow");
  FaultUniverse universe =
      extract_dfm_faults(netlist, placement, routing, *udfm_);
  stage.emplace("flow.atpg", "flow");
  AtpgOptions atpg_options = options_.atpg;
  atpg_options.generate_tests = generate_tests;
  atpg_options.arena = &arena_;
  if (options_.warm_start && !seed_tests_.empty()) {
    atpg_options.seed_tests = &seed_tests_;
  }
  AtpgResult atpg = run_atpg(netlist, universe, *udfm_, atpg_options, &cache_);
  atpg_totals_.merge(atpg.counters);
  ProgressCounters& progress = ProgressCounters::global();
  progress.analyses.fetch_add(1, std::memory_order_relaxed);
  progress.faults_classified.fetch_add(universe.size(),
                                       std::memory_order_relaxed);
  // These tests become the replay set of the next warm analysis.
  if (generate_tests) seed_tests_ = atpg.tests;
  // This netlist is now the committed design probes will diff against;
  // re-anchor the shared seed frames onto it.
  rebase_overlays(netlist);
  stage.emplace("flow.cluster", "flow");
  ClusterAnalysis clusters =
      cluster_undetectable(netlist, universe, atpg.status);
  stage.reset();
  return FlowState{std::move(netlist), std::move(placement),
                   std::move(routing), std::move(timing),
                   std::move(universe), std::move(atpg),
                   std::move(clusters)};
}

Expected<FlowState> DesignFlow::probe_reanalyze_impl(
    Netlist netlist, const Placement& previous, bool generate_tests,
    const FaultStatusCache* base_cache, FaultStatusCache* updates,
    FaultSimArena* arena, int num_threads, const CancelToken* cancel,
    AtpgCounters* counters) const {
  if (cancel_expired(cancel)) return cancel->to_status();
  TraceSpan probe_span("flow.probe", "flow");
  // Stage spans as in analyze_committed, so probe time is attributed to
  // the same layers as committed work.
  std::optional<TraceSpan> stage;
  stage.emplace("flow.incremental_place", "flow");
  auto placement = incremental_place(netlist, previous);
  if (!placement) {
    return make_status(StatusCode::kUnsatisfiable,
                       "probe: die cannot absorb the edit to '%s'",
                       netlist.name().c_str());
  }
  stage.emplace("flow.route", "flow");
  RoutingResult routing = route(netlist, *placement, options_.route);
  stage.emplace("flow.sta", "flow");
  TimingPower timing = analyze_timing_power(netlist, routing, options_.sta);
  stage.emplace("flow.extract_faults", "flow");
  FaultUniverse universe =
      extract_dfm_faults(netlist, *placement, routing, *udfm_);
  stage.reset();
  AtpgOptions atpg_options = options_.atpg;
  atpg_options.generate_tests = generate_tests;
  atpg_options.arena = arena;
  atpg_options.cancel = cancel;
  if (num_threads != 0) atpg_options.num_threads = num_threads;
  if (options_.warm_start && !seed_tests_.empty()) {
    atpg_options.seed_tests = &seed_tests_;
    if (options_.probe_overlays && probe_baseline_.valid()) {
      atpg_options.baseline = &probe_baseline_;
    }
  }
  AtpgResult atpg =
      run_atpg_overlay(netlist, universe, *udfm_, atpg_options, base_cache,
                       updates);
  if (atpg.cancelled) return cancel->to_status();
  if (counters != nullptr) counters->merge(atpg.counters);
  ProgressCounters& progress = ProgressCounters::global();
  progress.probes_committed.fetch_add(1, std::memory_order_relaxed);
  progress.faults_classified.fetch_add(universe.size(),
                                       std::memory_order_relaxed);
  stage.emplace("flow.cluster", "flow");
  ClusterAnalysis clusters =
      cluster_undetectable(netlist, universe, atpg.status);
  stage.reset();
  return FlowState{std::move(netlist), std::move(*placement),
                   std::move(routing), std::move(timing),
                   std::move(universe), std::move(atpg),
                   std::move(clusters)};
}

Expected<std::size_t> DesignFlow::probe_count_impl(
    const Netlist& nl, const FaultStatusCache* base_cache,
    FaultStatusCache* updates, FaultSimArena* arena, int num_threads,
    const CancelToken* cancel, AtpgCounters* counters) const {
  if (cancel_expired(cancel)) return cancel->to_status();
  TraceSpan probe_span("flow.u_in_probe", "flow");
  const FaultUniverse internal = [&] {
    TraceSpan span("flow.extract_faults", "flow");
    return extract_internal_faults(nl, *udfm_);
  }();
  AtpgOptions atpg_options = options_.atpg;
  atpg_options.generate_tests = false;
  atpg_options.arena = arena;
  atpg_options.cancel = cancel;
  if (num_threads != 0) atpg_options.num_threads = num_threads;
  if (options_.warm_start && !seed_tests_.empty()) {
    atpg_options.seed_tests = &seed_tests_;
    if (options_.probe_overlays && probe_baseline_.valid()) {
      atpg_options.baseline = &probe_baseline_;
    }
  }
  const AtpgResult result =
      run_atpg_overlay(nl, internal, *udfm_, atpg_options, base_cache, updates);
  if (result.cancelled) return cancel->to_status();
  if (counters != nullptr) counters->merge(result.counters);
  ProgressCounters& progress = ProgressCounters::global();
  progress.analyses.fetch_add(1, std::memory_order_relaxed);
  progress.faults_classified.fetch_add(internal.size(),
                                       std::memory_order_relaxed);
  return result.num_undetectable + result.num_aborted;
}

Expected<FlowState> ProbeSession::reanalyze(Netlist netlist,
                                            const Placement& previous,
                                            bool generate_tests) {
  return flow_->probe_reanalyze_impl(std::move(netlist), previous,
                                     generate_tests, base_, &updates_, arena_,
                                     num_threads_, cancel_, &counters_);
}

Expected<std::size_t> ProbeSession::count_undetectable_internal(
    const Netlist& nl) {
  return flow_->probe_count_impl(nl, base_, &updates_, arena_, num_threads_,
                                 cancel_, &counters_);
}

void DesignFlow::rebase_overlays(const Netlist& nl) {
  if (!options_.warm_start || !options_.probe_overlays ||
      seed_tests_.empty()) {
    probe_baseline_.clear();
    return;
  }
  rebase_sim_baseline(probe_baseline_, nl, seed_tests_, options_.atpg.seed,
                      options_.atpg.random_batches);
}

void DesignFlow::commit_updates(const FaultStatusCache& updates) {
  cache_.merge(updates);
}

std::vector<CellId> DesignFlow::cells_by_internal_faults() const {
  std::vector<std::pair<std::size_t, CellId>> ranked;
  for (std::uint32_t i = 0; i < target_->num_cells(); ++i) {
    const CellId id{i};
    if (target_->cell(id).sequential) continue;
    const std::size_t count = internal_fault_count(*target_, *udfm_, id);
    if (count > 0) ranked.emplace_back(count, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<CellId> order;
  order.reserve(ranked.size());
  for (const auto& [count, id] : ranked) order.push_back(id);
  return order;
}

}  // namespace dfmres
