// Microbenchmarks of the flow substrates (google-benchmark): switch-level
// cell evaluation, UDFM extraction, 64-lane logic simulation, fault
// simulation, PODEM, technology mapping, placement, and routing. These
// bound the cost of one resynthesis candidate evaluation.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench/bench_util.hpp"

#include "src/atpg/engine.hpp"
#include "src/circuits/benchmarks.hpp"
#include "src/core/flow.hpp"
#include "src/dfm/checker.hpp"
#include "src/library/osu018.hpp"
#include "src/place/placement.hpp"
#include "src/route/router.hpp"
#include "src/sim/parallel_sim.hpp"
#include "src/sta/sta.hpp"
#include "src/switchlevel/switch_sim.hpp"
#include "src/switchlevel/udfm.hpp"
#include "src/synth/mapper.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace dfmres;

/// Technology-mapped Table-II block, built once per process.
const Netlist& mapped(const std::string& block) {
  static std::map<std::string, Netlist> cache;
  if (const auto it = cache.find(block); it != cache.end()) return it->second;
  const Netlist rtl = build_benchmark(block).value();
  const auto tlib = osu018_library();
  const MapOptions mo = macro_map_options(rtl.library(), *tlib);
  return cache.emplace(block, *technology_map(rtl, tlib, mo)).first->second;
}

void BM_SwitchLevelEval(benchmark::State& state) {
  const auto lib = osu018_library();
  const CellSpec& fa = lib->cell(lib->require("FAX1"));
  const SwitchSim sim(fa.network);
  std::uint32_t p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.eval(p++ & 7));
  }
}
BENCHMARK(BM_SwitchLevelEval);

void BM_UdfmExtraction(benchmark::State& state) {
  const auto lib = osu018_library();
  const CellSpec& fa = lib->cell(lib->require("FAX1"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_cell_udfm(fa));
  }
}
BENCHMARK(BM_UdfmExtraction);

void BM_ParallelSim64(benchmark::State& state) {
  const Netlist& nl = mapped("tv80");
  const CombView view = CombView::build(nl);
  ParallelSimulator sim(nl, view);
  Rng rng(1);
  for (auto _ : state) {
    sim.randomize_sources(rng);
    sim.run();
    benchmark::DoNotOptimize(sim.values());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelSim64);

void BM_FaultSimBatch(benchmark::State& state) {
  const Netlist& nl = mapped("tv80");
  const CombView view = CombView::build(nl);
  static DesignFlow flow(osu018_library(), {});
  const FaultUniverse universe = extract_internal_faults(nl, flow.udfm());
  std::vector<std::vector<Excitation>> exc;
  for (const Fault& f : universe.faults) {
    exc.push_back(build_excitations(f, nl, flow.udfm()));
  }
  FaultSimulator sim(nl, view);
  Rng rng(2);
  std::vector<TestPattern> tests;
  for (int i = 0; i < 64; ++i) {
    TestPattern t;
    for (std::size_t s = 0; s < view.sources.size(); ++s) {
      t.frame0.push_back(rng.flip());
      t.frame1.push_back(rng.flip());
    }
    tests.push_back(std::move(t));
  }
  sim.load(tests, 0, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.detect_mask(exc[i % exc.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FaultSimBatch);

void BM_PodemDetect(benchmark::State& state) {
  const Netlist& nl = mapped("tv80");
  const CombView view = CombView::build(nl);
  static DesignFlow flow(osu018_library(), {});
  const FaultUniverse universe = extract_internal_faults(nl, flow.udfm());
  Podem podem(nl, view, {2500});
  RelevantRegion region(nl, view);
  std::size_t i = 0;
  std::vector<V3> test;
  for (auto _ : state) {
    const auto exc =
        build_excitations(universe.faults[i % universe.size()], nl,
                          flow.udfm());
    if (!exc.empty()) {
      benchmark::DoNotOptimize(podem.search(region.detect(exc[0]), &test));
    }
    ++i;
  }
}
BENCHMARK(BM_PodemDetect);

void BM_TechnologyMap(benchmark::State& state) {
  const Netlist rtl = build_benchmark("tv80").value();
  const auto tlib = osu018_library();
  const MapOptions mo = macro_map_options(rtl.library(), *tlib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(technology_map(rtl, tlib, mo));
  }
}
BENCHMARK(BM_TechnologyMap);

void BM_PlaceAndRoute(benchmark::State& state) {
  const Netlist& nl = mapped("tv80");
  const Floorplan plan = make_floorplan(nl);
  for (auto _ : state) {
    const Placement placement = global_place(nl, plan, {});
    benchmark::DoNotOptimize(route(nl, placement, {}));
  }
}
BENCHMARK(BM_PlaceAndRoute);

void BM_DfmExtraction(benchmark::State& state, const char* block) {
  const Netlist& nl = mapped(block);
  const Floorplan plan = make_floorplan(nl);
  const Placement placement = global_place(nl, plan, {});
  const RoutingResult routes = route(nl, placement, {});
  static DesignFlow flow(osu018_library(), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extract_dfm_faults(nl, placement, routes, flow.udfm()));
  }
}
BENCHMARK_CAPTURE(BM_DfmExtraction, tv80, "tv80");
BENCHMARK_CAPTURE(BM_DfmExtraction, des_perf, "des_perf");
BENCHMARK_CAPTURE(BM_DfmExtraction, aes_core, "aes_core");

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the run emits the same machine-readable
// report file as every other bench binary.
int main(int argc, char** argv) {
  dfmres::bench::BenchObservability obs("micro_substrates");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
