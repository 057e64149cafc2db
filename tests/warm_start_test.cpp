// Warm-start incremental ATPG: the optimizations (seed-test replay,
// candidate dedup, parallel ladder, shared simulator arenas) are pure
// accelerations — every observable result must be identical to the cold
// serial reference. These tests pin that contract on full pipelines over
// two different seed blocks, and check that the test set a test-
// generating analysis emits detects every fault it reports Detected.
//
// Bit-identical status comparison is only meaningful when no fault hits
// the search limit (an Aborted in one mode can be a Detected in the
// other without changing U, %Smax or coverage). With the SAT stage every
// fault gets a complete verdict, so each identity test asserts
// num_aborted == 0 — including on sparc_tlu, which used to abort.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/atpg/excitation.hpp"
#include "src/circuits/benchmarks.hpp"
#include "src/circuits/builder.hpp"
#include "src/core/flow.hpp"
#include "src/core/resynthesis.hpp"
#include "src/library/osu018.hpp"
#include "src/netlist/extract.hpp"
#include "src/netlist/verilog.hpp"
#include "src/synth/mapper.hpp"

namespace dfmres {
namespace {

/// Registered adder + comparator + parity (same shape as core_test).
Netlist block_a() {
  CircuitBuilder cb("wsa");
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

/// A second, structurally different block (narrower adder, different
/// observation mix) so the identity checks run on more than one design.
Netlist block_b() {
  CircuitBuilder cb("wsb");
  const auto a = cb.dff_bus(cb.input_bus("p", 5));
  const auto b = cb.dff_bus(cb.input_bus("q", 5));
  const NetId cin = cb.input("c0");
  auto [sum, carry] = cb.ripple_add(a, b, cin);
  cb.output_bus(cb.dff_bus(sum));
  cb.output(carry);
  cb.output(cb.xor_n(a));
  cb.output(cb.equals(sum, b));
  return cb.take();
}

FlowOptions flow_options(bool warm, int threads) {
  FlowOptions options;
  options.atpg.random_batches = 4;
  options.atpg.backtrack_limit = 4000;  // SAT conflicts: no aborts here
  options.atpg.num_threads = threads;
  options.warm_start = warm;
  return options;
}

struct PipelineRun {
  FlowState state;
  ResynthesisReport report;
  AtpgCounters totals;
};

PipelineRun run_pipeline(const Netlist& rtl, bool warm, bool parallel_ladder,
                         int threads) {
  DesignFlow flow(osu018_library(), flow_options(warm, threads));
  const FlowState original = flow.run_initial(rtl).value();
  ResynthesisOptions options;
  options.q_max = 2;
  options.max_iterations_per_phase = 6;
  options.dedup_candidates = warm;
  options.parallel_ladder = parallel_ladder;
  ResynthesisResult result = resynthesize(flow, original, options).value();
  return {std::move(result.state), std::move(result.report),
          flow.atpg_totals()};
}

std::string accepted_trace(const ResynthesisReport& report) {
  std::string out;
  for (const IterationRecord& r : report.trace) {
    if (!r.accepted) continue;
    out += "q" + std::to_string(r.q) + "p" + std::to_string(r.phase) + ":" +
           r.banned_through + (r.via_backtracking ? "*" : "") + "/U" +
           std::to_string(r.undetectable) + "/S" + std::to_string(r.smax) +
           ";";
  }
  return out;
}

void expect_identical(const PipelineRun& x, const PipelineRun& y) {
  ASSERT_EQ(x.state.atpg.num_aborted, 0u);
  ASSERT_EQ(y.state.atpg.num_aborted, 0u);
  EXPECT_EQ(accepted_trace(x.report), accepted_trace(y.report));
  EXPECT_EQ(x.state.num_undetectable(), y.state.num_undetectable());
  EXPECT_EQ(x.state.smax(), y.state.smax());
  EXPECT_EQ(x.state.num_faults(), y.state.num_faults());
  EXPECT_DOUBLE_EQ(x.state.coverage(), y.state.coverage());
  ASSERT_EQ(x.state.universe.size(), y.state.universe.size());
  for (std::size_t i = 0; i < x.state.universe.size(); ++i) {
    ASSERT_EQ(x.state.universe.faults[i].key(),
              y.state.universe.faults[i].key());
    EXPECT_EQ(x.state.atpg.status[i], y.state.atpg.status[i]) << "fault " << i;
  }
}

/// Function-preserving local rewrite: re-map one gate's region with its
/// own cell banned (the resynthesis move, applied by hand).
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

TEST(WarmStart, ColdVsWarmPipelineIdentity) {
  for (const Netlist& rtl : {block_a(), block_b()}) {
    const PipelineRun warm =
        run_pipeline(rtl, /*warm=*/true, /*parallel_ladder=*/false, 1);
    const PipelineRun cold =
        run_pipeline(rtl, /*warm=*/false, /*parallel_ladder=*/false, 1);
    expect_identical(warm, cold);
  }
}

TEST(WarmStart, SerialVsParallelLadderIdentity) {
  // resolve_threads honors explicit requests above the hardware count,
  // so four ladder workers are exercised even on a single-core host.
  for (const Netlist& rtl : {block_a(), block_b()}) {
    const PipelineRun serial =
        run_pipeline(rtl, /*warm=*/true, /*parallel_ladder=*/false, 4);
    const PipelineRun parallel =
        run_pipeline(rtl, /*warm=*/true, /*parallel_ladder=*/true, 4);
    expect_identical(serial, parallel);
  }
}

/// The FaultStatusCache invariant, end to end: after a
/// function-preserving rewrite, a warm re-analysis (replay + cache)
/// classifies every fault exactly as a cold flow that has never
/// seen the design.
void expect_cached_statuses_match_cold(const Netlist& rtl) {
  DesignFlow warm_flow(osu018_library(), flow_options(true, 1));
  const FlowState original = warm_flow.run_initial(rtl).value();
  ASSERT_EQ(original.atpg.num_aborted, 0u);
  const Netlist edited = remap_one_gate(original.netlist);

  auto warm = warm_flow.analyze(AnalysisRequest::incremental(
      edited, original.placement, /*generate_tests=*/true));
  ASSERT_TRUE(warm.has_value());
  DesignFlow cold_flow(osu018_library(), flow_options(false, 1));
  auto cold = cold_flow.analyze(AnalysisRequest::incremental(
      edited, original.placement, /*generate_tests=*/true));
  ASSERT_TRUE(cold.has_value());

  ASSERT_EQ(warm->atpg.num_aborted, 0u);
  ASSERT_EQ(cold->atpg.num_aborted, 0u);
  ASSERT_EQ(warm->universe.size(), cold->universe.size());
  EXPECT_EQ(warm->num_undetectable(), cold->num_undetectable());
  for (std::size_t i = 0; i < warm->universe.size(); ++i) {
    ASSERT_EQ(warm->universe.faults[i].key(), cold->universe.faults[i].key());
    EXPECT_EQ(warm->atpg.status[i], cold->atpg.status[i]) << "fault " << i;
  }
}

TEST(WarmStart, CachedStatusesMatchColdRecomputeAfterRewrite) {
  expect_cached_statuses_match_cold(block_a());
}

TEST(WarmStart, CachedStatusesMatchColdRecomputeOnSparcTlu) {
  // 25 faults aborted here under the 4000-backtrack PODEM alone.
  expect_cached_statuses_match_cold(build_benchmark("sparc_tlu").value());
}

TEST(WarmStart, ReplayAndConeCountersAdvance) {
  const PipelineRun warm =
      run_pipeline(block_a(), /*warm=*/true, /*parallel_ladder=*/false, 1);
  // Seed replay resolved at least some faults without random patterns.
  EXPECT_GT(warm.totals.replay_drops, 0u);
  const PipelineRun cold =
      run_pipeline(block_a(), /*warm=*/false, /*parallel_ladder=*/false, 1);
  EXPECT_EQ(cold.totals.replay_drops, 0u);
}

/// Faults `s` reports Detected that its test set `s.atpg.tests` does not
/// detect, found by fault-simulating the whole set over the universe.
std::size_t detected_but_not_covered(const FlowState& s) {
  const UdfmMap& udfm = *shared_udfm(osu018_library());
  const CombView view = CombView::build(s.netlist);
  FaultSimulator sim(s.netlist, view);
  const std::size_t n = s.universe.size();
  std::vector<bool> covered(n, false);
  const std::vector<TestPattern>& tests = s.atpg.tests;
  constexpr std::size_t kLanes = FaultSimulator::lane_capacity();
  for (std::size_t first = 0; first < tests.size(); first += kLanes) {
    sim.load(tests, first, std::min(kLanes, tests.size() - first));
    for (std::size_t i = 0; i < n; ++i) {
      if (covered[i] || s.atpg.status[i] != FaultStatus::Detected) continue;
      covered[i] = sim.detect_mask(build_excitations(s.universe.faults[i],
                                                     s.netlist, udfm)) != 0;
    }
  }
  std::size_t missing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (s.atpg.status[i] == FaultStatus::Detected && !covered[i]) ++missing;
  }
  return missing;
}

TEST(WarmStart, SignoffTestsCoverEveryDetectedFault) {
  // The sign-off test set is the T of the paper's Table II: a
  // certificate for every fault the sign-off counts as detected, warm or
  // cold.
  for (const Netlist& rtl : {block_a(), block_b()}) {
    for (const bool warm : {true, false}) {
      const PipelineRun run =
          run_pipeline(rtl, warm, /*parallel_ladder=*/false, 1);
      ASSERT_GT(run.state.atpg.num_detected, 0u);
      EXPECT_EQ(detected_but_not_covered(run.state), 0u)
          << rtl.name() << (warm ? " warm" : " cold");
    }
  }
  FlowOptions options;
  options.atpg.num_threads = 1;
  DesignFlow flow(osu018_library(), options);
  const FlowState original =
      flow.run_initial(build_benchmark("sparc_tlu").value()).value();
  const auto result = resynthesize(flow, original, ResynthesisOptions{});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(detected_but_not_covered(result->state), 0u) << "sparc_tlu";
}

TEST(WarmStart, SeedWidthMismatchIsIgnored) {
  DesignFlow flow(osu018_library(), flow_options(true, 1));
  const FlowState s = flow.run_initial(block_a()).value();
  const auto count_u_in = [&flow](const Netlist& nl) {
    ProbeSession session = flow.probe();
    const std::size_t count = session.count_undetectable_internal(nl).value();
    flow.commit_probe(std::move(session));
    return count;
  };
  const std::size_t reference = count_u_in(s.netlist);
  // Replace the seed set with patterns of a bogus frame width: the
  // engine must ignore them (guard in run_atpg) and still agree.
  std::vector<TestPattern> bogus(3);
  for (auto& t : bogus) {
    t.frame0.assign(2, 0x5a);
    t.frame1.assign(2, 0xa5);
  }
  flow.set_seed_tests(std::move(bogus));
  EXPECT_EQ(count_u_in(s.netlist), reference);
}

TEST(WarmStart, ArenaReuseAcrossDesignsIsTransparent) {
  // One arena rebound across differently-sized netlists returns the same
  // classifications as fresh per-call simulators.
  DesignFlow flow(osu018_library(), flow_options(true, 1));
  const FlowState s = flow.run_initial(block_a()).value();
  const Netlist edited = remap_one_gate(s.netlist);

  FaultSimArena shared;
  ProbeSession shared_session = flow.probe(&shared);
  const std::size_t u_edit_shared =
      *shared_session.count_undetectable_internal(edited);
  const std::size_t u_base_shared =
      *shared_session.count_undetectable_internal(s.netlist);
  ProbeSession fresh_edit = flow.probe();
  const std::size_t u_edit_fresh =
      *fresh_edit.count_undetectable_internal(edited);
  ProbeSession fresh_base = flow.probe();
  const std::size_t u_base_fresh =
      *fresh_base.count_undetectable_internal(s.netlist);
  EXPECT_EQ(u_edit_shared, u_edit_fresh);
  EXPECT_EQ(u_base_shared, u_base_fresh);
  EXPECT_EQ(shared.size(), 1u);  // single-threaded: master slot only
}

TEST(WarmStart, SharedProofMemoIsTransparent) {
  // The same differential for phase 2's proof memo, which lives in the
  // arena and outlives runs: re-analyses of the original, a one-gate
  // edit, the same edit with its new gates under different ids, and the
  // original again on one shared arena answer repeated undetectability
  // proofs from the memo, and must return exactly what fresh arenas (a
  // memo per run) return.
  // sparc_tlu: block_a's undetectable faults are all unexcitable, so
  // they never reach phase 2.
  DesignFlow flow(osu018_library(), flow_options(true, 1));
  const FlowState s =
      flow.run_initial(build_benchmark("sparc_tlu").value()).value();
  const Netlist edited = remap_one_gate(s.netlist);
  // A gate added and removed first: the edit's new gates and nets come
  // out one id higher.
  Netlist shifted = s.netlist;
  const NetId pi[] = {shifted.primary_inputs().front()};
  shifted.remove_gate(
      shifted.add_gate(osu018_library()->require("INVX1"), pi));
  const Netlist renumbered = remap_one_gate(shifted);
  ASSERT_EQ(renumbered.gate_capacity(), edited.gate_capacity() + 1);
  flow.clear_cache();  // no cached verdicts: every fault is re-classified

  FaultSimArena shared;
  std::uint64_t shared_hits = 0, fresh_hits = 0;
  for (const Netlist* nl : {&s.netlist, &edited, &renumbered, &s.netlist}) {
    ProbeSession on_shared = flow.probe(&shared);
    ProbeSession on_fresh = flow.probe();
    const auto x = on_shared.reanalyze(*nl, s.placement, true);
    const auto y = on_fresh.reanalyze(*nl, s.placement, true);
    ASSERT_TRUE(x.has_value());
    ASSERT_TRUE(y.has_value());
    ASSERT_EQ(x->atpg.num_aborted, 0u);
    EXPECT_EQ(x->atpg.status, y->atpg.status);
    EXPECT_EQ(x->atpg.tests, y->atpg.tests);
    shared_hits += on_shared.counters().proof_memo_hits;
    fresh_hits += on_fresh.counters().proof_memo_hits;
  }
  EXPECT_GT(shared_hits, fresh_hits);
}

TEST(WarmStart, ProbeOverlayIsADeltaOverTheBase) {
  DesignFlow flow(osu018_library(), flow_options(true, 1));
  const FlowState s = flow.run_initial(block_a()).value();
  const Netlist edited = remap_one_gate(s.netlist);

  ProbeSession session = flow.probe();
  ASSERT_TRUE(session.count_undetectable_internal(edited).has_value());
  auto probed = session.reanalyze(edited, s.placement);
  ASSERT_TRUE(probed.has_value());
  ASSERT_EQ(probed->atpg.num_aborted, 0u);

  const FaultStatusCache& base = flow.cache();
  const FaultStatusCache& overlay = session.updates();
  FaultStatusCache new_or_changed;  // used as a set
  for (std::size_t i = 0; i < probed->universe.size(); ++i) {
    const Fault::Key k = probed->universe.faults[i].key();
    const FaultStatus status = probed->atpg.status[i];
    const FaultStatus delta = overlay.lookup(k);
    EXPECT_EQ(delta != FaultStatus::Unknown ? delta : base.lookup(k), status)
        << "fault " << i;
    if (base.lookup(k) != status) new_or_changed.store(k, status);
  }
  // The overlay records only what the probe learned beyond the base.
  EXPECT_LE(overlay.size(), new_or_changed.size());
  EXPECT_GE(session.counters().verdict_stores, overlay.size());
  EXPECT_GT(session.counters().memo_hits, 0u);

  flow.commit_probe(std::move(session));
  for (std::size_t i = 0; i < probed->universe.size(); ++i) {
    EXPECT_EQ(flow.cache().lookup(probed->universe.faults[i].key()),
              probed->atpg.status[i])
        << "fault " << i;
  }
}

/// FNV-1a, folded one value or string at a time.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<unsigned char>(c));
    add(s.size());
  }
};

TEST(ResynPinned, SparcTluOutputMatchesRecordedHash) {
  // `dfmres resyn sparc_tlu` at the default options: the written netlist,
  // the final F/U/A/T and the accepted-candidate trace. Verdict caching
  // and duplicate collapsing are pure accelerations, so a change to how
  // they are stored must leave this hash as it is.
  FlowOptions flow_options;
  flow_options.atpg.num_threads = 1;
  DesignFlow flow(osu018_library(), flow_options);
  const FlowState original =
      flow.run_initial(build_benchmark("sparc_tlu").value()).value();
  const auto result = resynthesize(flow, original, ResynthesisOptions{});
  ASSERT_TRUE(result.has_value());
  const FlowState& s = result->state;
  Fnv fnv;
  std::ostringstream verilog;
  write_verilog(s.netlist, verilog);
  fnv.add(verilog.str());
  for (const std::size_t n : {s.num_faults(), s.num_undetectable(),
                              s.num_aborted(), s.atpg.tests.size()}) {
    fnv.add(n);
  }
  std::size_t accepted = 0;
  for (const IterationRecord& r : result->report.trace) {
    if (!r.accepted) continue;
    ++accepted;
    for (const std::uint64_t v :
         {std::uint64_t(r.q), std::uint64_t(r.phase), std::uint64_t(r.smax),
          std::uint64_t(r.undetectable), std::uint64_t(r.faults),
          std::uint64_t(r.via_backtracking)}) {
      fnv.add(v);
    }
    fnv.add(r.banned_through);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(fnv.h, 0x1047e3c936ee10baull) << "0x" << std::hex << fnv.h;
}

TEST(ResynPinned, SparcLsuCompletes) {
  // `dfmres resyn sparc_lsu`: its first phase-1 region is not convex (an
  // output reaches an input through gates outside it), so some re-maps
  // close a combinational loop. Such a candidate must be rejected like
  // an unmappable one, not abort the run when its ATPG orders the gates.
  FlowOptions flow_options;
  flow_options.atpg.num_threads = 1;
  DesignFlow flow(osu018_library(), flow_options);
  const FlowState original =
      flow.run_initial(build_benchmark("sparc_lsu").value()).value();
  const auto result = resynthesize(flow, original, ResynthesisOptions{});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->state.num_aborted(), 0u);
  std::size_t accepted = 0;
  for (const IterationRecord& r : result->report.trace) {
    if (r.accepted) ++accepted;
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace dfmres
