// Copy-on-write probe overlays (FlowOptions::probe_overlays): probes
// replay the committed design's seed good frames and materialize only
// the O(cone) slots their edit dirties. The overlays are a pure
// acceleration — every observable result must be bit-identical to full
// per-probe loads — so these tests run the same work with overlays on
// (in self-verifying mode) and off and require exact agreement, then
// pin the discard/commit lifecycle of the shared baseline.

#include <gtest/gtest.h>

#include <string>

#include "src/circuits/benchmarks.hpp"
#include "src/circuits/builder.hpp"
#include "src/core/flow.hpp"
#include "src/core/resynthesis.hpp"
#include "src/dfm/checker.hpp"
#include "src/library/osu018.hpp"
#include "src/netlist/extract.hpp"
#include "src/synth/mapper.hpp"

namespace dfmres {
namespace {

FlowOptions flow_options(bool overlays, bool verify = false) {
  FlowOptions options;
  options.atpg.random_batches = 4;
  options.atpg.backtrack_limit = 4000;
  options.warm_start = true;
  options.probe_overlays = overlays;
  // Self-verifying overlays: every overlay-loaded batch is re-checked
  // against a full reload, so a disagreement fails loudly. The extra
  // reload is itself a full load, so load economics must be measured
  // with verify off.
  options.atpg.verify_overlays = verify;
  return options;
}

/// Registered datapath with undetectable internal faults (same shape as
/// core_test's small_block).
Netlist small_block() {
  CircuitBuilder cb("ovl");
  const auto a = cb.dff_bus(cb.input_bus("a", 6));
  const auto b = cb.dff_bus(cb.input_bus("b", 6));
  const NetId cin = cb.input("cin");
  auto [sum, carry] = cb.ripple_add(a, b, cin);
  cb.output_bus(cb.dff_bus(sum));
  cb.output(carry);
  cb.output(cb.equals(a, b));
  cb.output(cb.xor_n(sum));
  return cb.take();
}

/// Function-preserving local rewrite: re-map one gate's region with its
/// own cell banned.
Netlist remap_one_gate(const Netlist& base) {
  Netlist edited = base;
  GateId target = GateId::invalid();
  for (GateId g : edited.live_gates()) {
    const std::string& n = edited.cell_of(g).name;
    if (n == "XNOR2X1" || n == "XOR2X1" || n == "OAI21X1") {
      target = g;
      break;
    }
  }
  EXPECT_TRUE(target.valid());
  const GateId region[] = {target};
  const Subcircuit sub = extract_subcircuit(edited, region).value();
  MapOptions mo;
  mo.banned.assign(edited.library().num_cells(), false);
  mo.banned[edited.gate(target).cell.value()] = true;
  auto mapped = technology_map(sub.circuit, osu018_library(), mo);
  EXPECT_TRUE(mapped.has_value());
  EXPECT_TRUE(replace_region(edited, sub, *mapped).has_value());
  return edited;
}

std::string accepted_trace(const ResynthesisReport& report) {
  std::string out;
  for (const IterationRecord& r : report.trace) {
    if (!r.accepted) continue;
    out += "q" + std::to_string(r.q) + "p" + std::to_string(r.phase) + ":" +
           r.banned_through + "/U" + std::to_string(r.undetectable) + "/S" +
           std::to_string(r.smax) + ";";
  }
  return out;
}

TEST(Overlay, ProbeMatchesFullLoadAndSelfVerifies) {
  // Three flows probing the same edit: overlays (for load economics),
  // overlays + verify mode (for the batch-by-batch self-check), and
  // full loads (the reference). All must agree exactly.
  DesignFlow on(osu018_library(), flow_options(true));
  const FlowState s_on = on.run_initial(small_block()).value();
  DesignFlow verifying(osu018_library(), flow_options(true, /*verify=*/true));
  const FlowState s_ver = verifying.run_initial(small_block()).value();
  DesignFlow off(osu018_library(), flow_options(false));
  const FlowState s_off = off.run_initial(small_block()).value();
  const Netlist edited = remap_one_gate(s_on.netlist);

  ProbeSession p_on = on.probe();
  const auto u_on = p_on.count_undetectable_internal(edited);
  ASSERT_TRUE(u_on) << u_on.status().to_string();
  ProbeSession p_ver = verifying.probe();
  const auto u_ver = p_ver.count_undetectable_internal(edited);
  ASSERT_TRUE(u_ver) << u_ver.status().to_string();
  ProbeSession p_off = off.probe();
  const auto u_off = p_off.count_undetectable_internal(edited);
  ASSERT_TRUE(u_off) << u_off.status().to_string();
  EXPECT_EQ(*u_on, *u_off);
  EXPECT_EQ(*u_ver, *u_off);

  // Verify mode re-checked every overlay batch and found no mismatch.
  EXPECT_GT(p_ver.counters().overlay_verified_batches, 0u);
  EXPECT_EQ(p_ver.counters().overlay_verify_mismatches, 0u);

  // Load economics (verify off): overlays replace the full seed loads
  // and materialize fewer frame bytes without changing what was
  // simulated.
  const AtpgCounters& c_on = p_on.counters();
  const AtpgCounters& c_off = p_off.counters();
  EXPECT_GT(c_on.overlay_loads, 0u);
  EXPECT_EQ(c_off.overlay_loads, 0u);
  EXPECT_LT(c_on.full_loads, c_off.full_loads);
  EXPECT_LT(c_on.frame_bytes_materialized, c_off.frame_bytes_materialized);
  EXPECT_EQ(c_on.patterns_simulated, c_off.patterns_simulated);
}

TEST(Overlay, PhaseOneCopiesTheBaselineDraw) {
  // A run at the baseline's seed, frame width and batch count copies its
  // phase-1 patterns and rng state from the baseline instead of drawing
  // them, and must end exactly like a run that draws them (statuses and
  // the tests, whose don't-cares the restored rng fills). With the seed
  // replay, verify mode re-checks every overlay batch against a full
  // load; without it and with one random batch, phase 2 detects faults
  // and fills their tests from the restored rng.
  DesignFlow flow(osu018_library(), flow_options(true));
  const FlowState s = flow.run_initial(small_block()).value();
  const Netlist edited = remap_one_gate(s.netlist);
  const FaultUniverse universe = extract_internal_faults(edited, flow.udfm());
  for (const bool replay : {true, false}) {
    AtpgOptions options = flow_options(true, /*verify=*/true).atpg;
    if (replay) {
      options.seed_tests = &s.atpg.tests;
    } else {
      options.random_batches = 1;
    }
    const AtpgResult drawn = run_atpg(edited, universe, flow.udfm(), options);
    ASSERT_FALSE(drawn.tests.empty());
    const SimBaseline same = build_sim_baseline(
        s.netlist, s.atpg.tests, options.seed, options.random_batches);
    const SimBaseline other_seed = build_sim_baseline(
        s.netlist, s.atpg.tests, options.seed + 1, options.random_batches);
    for (const SimBaseline* baseline : {&same, &other_seed}) {
      options.baseline = baseline;
      const AtpgResult r = run_atpg(edited, universe, flow.udfm(), options);
      EXPECT_EQ(r.status, drawn.status) << replay;
      EXPECT_EQ(r.tests, drawn.tests) << replay;
      EXPECT_EQ(r.counters.overlay_verify_mismatches, 0u);
    }
  }
}

TEST(Overlay, DiscardedProbeLeavesCommittedStateUntouched) {
  // Rejected / cancelled probes drop their overlays: after discarding
  // sessions (including a cancelled one), probing the committed design
  // still reproduces the committed classification.
  DesignFlow flow(osu018_library(), flow_options(true, /*verify=*/true));
  const FlowState s = flow.run_initial(small_block()).value();
  const Netlist edited = remap_one_gate(s.netlist);

  std::size_t reference = 0;
  for (std::size_t i = 0; i < s.universe.size(); ++i) {
    reference += s.universe.faults[i].scope == FaultScope::Internal &&
                 s.atpg.status[i] == FaultStatus::Undetectable;
  }

  {
    // Rejected candidate: session probed, then dropped without commit.
    ProbeSession rejected = flow.probe();
    const auto u = rejected.count_undetectable_internal(edited);
    ASSERT_TRUE(u) << u.status().to_string();
  }
  {
    // Cancelled probe: the session must fail cleanly and also be
    // discardable without disturbing the flow.
    CancelToken token;
    token.cancel();
    ProbeSession cancelled = flow.probe(nullptr, 0, &token);
    const auto u = cancelled.count_undetectable_internal(edited);
    ASSERT_FALSE(u.has_value());
    EXPECT_EQ(u.status().code(), StatusCode::kCancelled);
  }

  ProbeSession after = flow.probe();
  const auto u_after = after.count_undetectable_internal(s.netlist);
  ASSERT_TRUE(u_after) << u_after.status().to_string();
  EXPECT_EQ(*u_after, reference);
  EXPECT_EQ(after.counters().overlay_verify_mismatches, 0u);
  flow.commit_probe(std::move(after));
}

TEST(Overlay, ProbeAfterCommitReusesRebasedBaseline) {
  // Committing an edit rebases the shared baseline onto the new design;
  // the next probe must run in overlay mode against the *new* committed
  // netlist and agree with an overlay-free flow brought to the same
  // design point.
  DesignFlow on(osu018_library(), flow_options(true, /*verify=*/true));
  const FlowState s_on = on.run_initial(small_block()).value();
  DesignFlow off(osu018_library(), flow_options(false));
  const FlowState s_off = off.run_initial(small_block()).value();

  const Netlist edited = remap_one_gate(s_on.netlist);
  const auto committed_on = on.analyze(AnalysisRequest::incremental(
      edited, s_on.placement, /*generate_tests=*/true));
  ASSERT_TRUE(committed_on) << committed_on.status().to_string();
  const auto committed_off = off.analyze(AnalysisRequest::incremental(
      edited, s_off.placement, /*generate_tests=*/true));
  ASSERT_TRUE(committed_off) << committed_off.status().to_string();

  const Netlist edited_again = remap_one_gate(committed_on->netlist);
  ProbeSession p_on = on.probe();
  const auto u_on = p_on.count_undetectable_internal(edited_again);
  ASSERT_TRUE(u_on) << u_on.status().to_string();
  ProbeSession p_off = off.probe();
  const auto u_off = p_off.count_undetectable_internal(edited_again);
  ASSERT_TRUE(u_off) << u_off.status().to_string();
  EXPECT_EQ(*u_on, *u_off);
  EXPECT_GT(p_on.counters().overlay_loads, 0u);
  EXPECT_EQ(p_on.counters().overlay_verify_mismatches, 0u);
}

/// The end-to-end acceptance check on a real benchmark: a full tv80
/// resynthesis with overlays (self-verifying) is bit-identical to the
/// same search paying full per-probe loads, and the overlay run
/// materializes far fewer probe frame bytes.
TEST(OverlayHeavy, Tv80ResynthesisBitIdentical) {
  struct Run {
    FlowState state;
    ResynthesisReport report;
  };
  const auto run = [](bool overlays) {
    DesignFlow flow(osu018_library(), flow_options(overlays));
    const FlowState original =
        flow.run_initial(build_benchmark("tv80").value()).value();
    ResynthesisOptions options;
    options.q_max = 1;
    options.max_iterations_per_phase = 4;
    options.reanalyses_per_iteration = 16;
    ResynthesisResult result = resynthesize(flow, original, options).value();
    return Run{std::move(result.state), std::move(result.report)};
  };
  const Run with = run(true);
  const Run without = run(false);

  // PODEM aborts at the backtrack limit are deterministic, so identical
  // runs abort on identical faults — covered fault-by-fault below, and
  // summarized here first for a readable failure.
  EXPECT_EQ(with.state.atpg.num_aborted, without.state.atpg.num_aborted);
  EXPECT_EQ(accepted_trace(with.report), accepted_trace(without.report));
  EXPECT_EQ(with.state.num_undetectable(), without.state.num_undetectable());
  EXPECT_EQ(with.state.smax(), without.state.smax());
  EXPECT_EQ(with.state.num_faults(), without.state.num_faults());
  EXPECT_DOUBLE_EQ(with.state.coverage(), without.state.coverage());
  ASSERT_EQ(with.state.universe.size(), without.state.universe.size());
  for (std::size_t i = 0; i < with.state.universe.size(); ++i) {
    ASSERT_EQ(with.state.universe.faults[i].key(),
              without.state.universe.faults[i].key());
    EXPECT_EQ(with.state.atpg.status[i], without.state.atpg.status[i])
        << "fault " << i;
  }

  // The probes actually ran in overlay mode and it paid off.
  EXPECT_GT(with.report.probe_overlay_loads, 0u);
  EXPECT_EQ(without.report.probe_overlay_loads, 0u);
  EXPECT_GT(without.report.probe_frame_bytes, 0u);
  EXPECT_LT(with.report.probe_frame_bytes, without.report.probe_frame_bytes);

  // The probes' phase-2 work is reported: every handoff ends in one SAT
  // verdict. (Memo hits depend on which arena saw which region first,
  // so the two runs need not agree on them.)
  for (const Run* r : {&with, &without}) {
    EXPECT_GT(r->report.probe_phase2_seconds, 0.0);
    EXPECT_GT(r->report.probe_proof_memo_hits, 0u);
    EXPECT_GT(r->report.probe_podem_handoffs, 0u);
    EXPECT_EQ(r->report.probe_podem_handoffs,
              r->report.probe_sat_detected +
                  r->report.probe_sat_undetectable +
                  r->report.probe_sat_aborted);
  }
}

}  // namespace
}  // namespace dfmres
