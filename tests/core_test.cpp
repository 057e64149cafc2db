#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/circuits/builder.hpp"
#include "src/core/flow.hpp"
#include "src/core/resynthesis.hpp"
#include "src/netlist/extract.hpp"
#include "src/sim/parallel_sim.hpp"
#include "src/synth/mapper.hpp"
#include "src/library/osu018.hpp"
#include "src/util/trace.hpp"

namespace dfmres {
namespace {

/// Small registered datapath: one 6-bit adder + comparator + parity.
/// Rich enough to produce undetectable internal faults, small enough for
/// fast complete ATPG in tests.
Netlist small_block() {
  CircuitBuilder cb("small");
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

FlowOptions fast_options() {
  FlowOptions options;
  options.atpg.random_batches = 4;
  options.atpg.backtrack_limit = 2000;
  return options;
}

TEST(DesignFlow, InitialFlowInvariants) {
  DesignFlow flow(osu018_library(), fast_options());
  const FlowState s = flow.run_initial(small_block()).value();
  EXPECT_TRUE(s.netlist.validate().empty());
  EXPECT_EQ(s.atpg.status.size(), s.universe.size());
  EXPECT_GT(s.num_faults(), 100u);
  EXPECT_GT(s.coverage(), 0.5);
  EXPECT_LE(s.coverage(), 1.0);
  EXPECT_GT(s.timing.critical_delay, 0.0);
  EXPECT_GT(s.timing.total_power(), 0.0);
  EXPECT_TRUE(s.placement.plan.fits(s.netlist));
  // Status bookkeeping adds up.
  EXPECT_EQ(s.atpg.num_detected + s.atpg.num_undetectable +
                s.atpg.num_aborted,
            s.universe.size());
  // The FA carry chain must produce undetectable internal faults.
  EXPECT_GT(s.num_undetectable(), 0u);
}

TEST(DesignFlow, CellOrderIsByInternalFaults) {
  DesignFlow flow(osu018_library(), fast_options());
  const auto order = flow.cells_by_internal_faults();
  ASSERT_GT(order.size(), 10u);
  std::size_t prev = std::numeric_limits<std::size_t>::max();
  for (const CellId cell : order) {
    const std::size_t count =
        internal_fault_count(flow.target(), flow.udfm(), cell);
    EXPECT_LE(count, prev);
    EXPECT_GT(count, 0u);
    prev = count;
  }
  // FAX1 carries the most internal faults in this library.
  EXPECT_EQ(flow.target().cell(order.front()).name, "FAX1");
}

TEST(DesignFlow, ReanalyzePreservesUntouchedFaultStatuses) {
  // The load-bearing cache assumption: after a function-preserving local
  // rewrite, every fault outside the region keeps its status. Verify by
  // comparing a cached re-analysis against a cache-free one.
  DesignFlow flow(osu018_library(), fast_options());
  const FlowState original = flow.run_initial(small_block()).value();

  // Rewrite: re-map one gate's region with its own cell banned -- a real
  // function-preserving local resynthesis step.
  Netlist edited = original.netlist;
  GateId target = GateId::invalid();
  for (GateId g : edited.live_gates()) {
    const std::string& n = edited.cell_of(g).name;
    if (n == "XNOR2X1" || n == "XOR2X1" || n == "OAI21X1") {
      target = g;
      break;
    }
  }
  ASSERT_TRUE(target.valid());
  {
    const GateId region[] = {target};
    const Subcircuit sub = extract_subcircuit(edited, region).value();
    MapOptions mo;
    mo.banned.assign(edited.library().num_cells(), false);
    mo.banned[edited.gate(target).cell.value()] = true;
    auto mapped = technology_map(sub.circuit, osu018_library(), mo);
    ASSERT_TRUE(mapped.has_value());
    EXPECT_TRUE(replace_region(edited, sub, *mapped).has_value());
  }

  auto cached = flow.analyze(
      AnalysisRequest::incremental(edited, original.placement));
  ASSERT_TRUE(cached.has_value());

  DesignFlow fresh_flow(osu018_library(), fast_options());
  auto fresh = fresh_flow.analyze(
      AnalysisRequest::incremental(edited, original.placement));
  ASSERT_TRUE(fresh.has_value());

  ASSERT_EQ(cached->universe.size(), fresh->universe.size());
  EXPECT_EQ(cached->num_undetectable(), fresh->num_undetectable());
  for (std::size_t i = 0; i < cached->universe.size(); ++i) {
    EXPECT_EQ(cached->universe.faults[i].key(),
              fresh->universe.faults[i].key());
    EXPECT_EQ(cached->atpg.status[i], fresh->atpg.status[i]) << i;
  }
}

TEST(DesignFlow, CountUndetectableInternalMatchesFullRun) {
  DesignFlow flow(osu018_library(), fast_options());
  const FlowState s = flow.run_initial(small_block()).value();
  std::size_t u_in = 0;
  for (std::size_t i = 0; i < s.universe.size(); ++i) {
    u_in += s.universe.faults[i].scope == FaultScope::Internal &&
            s.atpg.status[i] == FaultStatus::Undetectable;
  }
  ProbeSession session = flow.probe();
  const auto probed = session.count_undetectable_internal(s.netlist);
  ASSERT_TRUE(probed.has_value());
  flow.commit_probe(std::move(session));
  EXPECT_EQ(*probed, u_in);
}

TEST(Resynthesis, ImprovesCoverageWithinConstraints) {
  DesignFlow flow(osu018_library(), fast_options());
  const FlowState original = flow.run_initial(small_block()).value();

  ResynthesisOptions options;
  options.q_max = 3;
  options.max_iterations_per_phase = 8;
  const ResynthesisResult result = resynthesize(flow, original, options).value();

  // U must not grow (monotone acceptance, paper Section I).
  EXPECT_LE(result.state.num_undetectable(), original.num_undetectable());
  // The trace of accepted iterations must be monotone in U as well.
  std::size_t prev_u = original.num_undetectable();
  for (const auto& r : result.report.trace) {
    if (!r.accepted) continue;
    EXPECT_LE(r.undetectable, prev_u);
    prev_u = r.undetectable;
  }
  // Design constraints at the accepted q.
  const double envelope = 1.0 + result.report.q_used / 100.0 + 1e-6;
  if (result.report.any_accepted) {
    EXPECT_LE(result.state.timing.critical_delay,
              original.timing.critical_delay * envelope);
    EXPECT_LE(result.state.timing.total_power(),
              original.timing.total_power() * envelope);
  }
  // Die area is frozen.
  EXPECT_EQ(result.state.placement.plan.rows, original.placement.plan.rows);
  EXPECT_EQ(result.state.placement.plan.sites_per_row,
            original.placement.plan.sites_per_row);
  EXPECT_TRUE(result.state.placement.plan.fits(result.state.netlist));
  EXPECT_TRUE(result.state.netlist.validate().empty());
}

TEST(Resynthesis, FunctionIsPreserved) {
  DesignFlow flow(osu018_library(), fast_options());
  const FlowState original = flow.run_initial(small_block()).value();
  ResynthesisOptions options;
  options.q_max = 2;
  options.max_iterations_per_phase = 6;
  const ResynthesisResult result = resynthesize(flow, original, options).value();

  // Same combinational function on random vectors.
  const CombView va = CombView::build(original.netlist);
  const CombView vb = CombView::build(result.state.netlist);
  ASSERT_EQ(va.sources.size(), vb.sources.size());
  ASSERT_EQ(va.observe.size(), vb.observe.size());
  ParallelSimulator sa(original.netlist, va);
  ParallelSimulator sb(result.state.netlist, vb);
  Rng rng(7);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < va.sources.size(); ++i) {
      const std::uint64_t w = rng.next();
      sa.set_source(va.sources[i], w);
      sb.set_source(vb.sources[i], w);
    }
    sa.run();
    sb.run();
    for (std::size_t i = 0; i < va.observe.size(); ++i) {
      ASSERT_EQ(sa.value(va.observe[i]), sb.value(vb.observe[i]))
          << "observe " << i;
    }
  }
}

// ---------------------------------------------------------------------
// shared_udfm: one UDFM per library object per process.
// ---------------------------------------------------------------------

std::shared_ptr<const Library> osu018_copy() {
  return std::make_shared<const Library>(*osu018_library());
}

TEST(SharedUdfm, FlowsOnOneLibraryShareOneMap) {
  const DesignFlow a(osu018_library(), fast_options());
  const DesignFlow b(osu018_library(), fast_options());
  EXPECT_EQ(&a.udfm(), &b.udfm());
  EXPECT_EQ(&a.udfm(), shared_udfm(osu018_library()).get());
}

TEST(SharedUdfm, CopiedLibraryGetsItsOwnEqualMap) {
  const auto copy = osu018_copy();
  const DesignFlow original(osu018_library(), fast_options());
  const DesignFlow copied(copy, fast_options());
  EXPECT_NE(&original.udfm(), &copied.udfm());
  const UdfmMap fresh(*copy);
  for (std::uint32_t c = 0; c < copy->num_cells(); ++c) {
    EXPECT_EQ(copied.udfm().of(CellId(c)), fresh.of(CellId(c)))
        << copy->cell(CellId(c)).name;
  }
}

TEST(SharedUdfm, MapExpiresAfterItsLibraryDies) {
  std::weak_ptr<const UdfmMap> weak;
  {
    const auto copy = osu018_copy();
    const DesignFlow flow(copy, fast_options());
    weak = shared_udfm(copy);
    EXPECT_EQ(weak.lock().get(), &flow.udfm());
  }
  // The registry still holds the map until its next call prunes it.
  EXPECT_FALSE(weak.expired());
  (void)shared_udfm(osu018_library());
  EXPECT_TRUE(weak.expired());
}

TEST(SharedUdfm, RacingFirstCallersGetOneMapBuiltOnce) {
  const auto copy = osu018_copy();
  Tracer::instance().reset();
  Tracer::instance().enable();
  constexpr int kThreads = 8;
  std::vector<const UdfmMap*> got(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] { got[i] = shared_udfm(copy).get(); });
    }
    for (std::thread& t : threads) t.join();
  }
  Tracer::instance().disable();
  std::vector<TraceEvent> builds;
  for (const TraceEvent& e : Tracer::instance().snapshot()) {
    if (std::strcmp(e.name, "faults.udfm_build") == 0) builds.push_back(e);
  }
  Tracer::instance().reset();

  for (const UdfmMap* map : got) EXPECT_EQ(map, got[0]);
  EXPECT_EQ(got[0], shared_udfm(copy).get());
  ASSERT_EQ(builds.size(), 1u);
  ASSERT_EQ(builds[0].args.size(), 1u);
  EXPECT_EQ(builds[0].args[0].first, "cells");
  EXPECT_EQ(builds[0].args[0].second, std::to_string(copy->num_cells()));
}

}  // namespace
}  // namespace dfmres
