#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "src/atpg/engine.hpp"
#include "src/atpg/excitation.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/atpg/podem.hpp"
#include "src/atpg/region.hpp"
#include "src/circuits/benchmarks.hpp"
#include "src/dfm/checker.hpp"
#include "src/library/osu018.hpp"
#include "src/sim/parallel_sim.hpp"
#include "src/synth/mapper.hpp"
#include "src/util/rng.hpp"

namespace dfmres {
namespace {

std::shared_ptr<const Library> lib() {
  static auto l = osu018_library();
  return l;
}

struct Fixture {
  Netlist nl{lib(), "atpg"};

  GateId add(const char* cell, std::initializer_list<NetId> ins) {
    std::vector<NetId> fanins(ins);
    return nl.add_gate(lib()->require(cell), fanins);
  }
  NetId out(GateId g, int k = 0) { return nl.gate(g).outputs[k]; }
};

TEST(Excitations, StuckAtHasNoConditions) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const GateId inv = f.add("INVX1", {a});
  f.nl.mark_primary_output(f.out(inv));
  UdfmMap udfm(*lib());
  Fault fault;
  fault.kind = FaultKind::StuckAt;
  fault.victim = f.out(inv);
  fault.value = true;
  const auto exc = build_excitations(fault, f.nl, udfm);
  ASSERT_EQ(exc.size(), 1u);
  EXPECT_TRUE(exc[0].lits.empty());
  EXPECT_EQ(exc[0].victim, f.out(inv));
  EXPECT_TRUE(exc[0].faulty_value);
}

TEST(Excitations, TransitionCarriesFrame0Literal) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const GateId inv = f.add("INVX1", {a});
  f.nl.mark_primary_output(f.out(inv));
  UdfmMap udfm(*lib());
  Fault fault;
  fault.kind = FaultKind::Transition;
  fault.victim = f.out(inv);
  fault.value = false;  // slow-to-rise
  const auto exc = build_excitations(fault, f.nl, udfm);
  ASSERT_EQ(exc.size(), 1u);
  ASSERT_EQ(exc[0].lits.size(), 1u);
  EXPECT_EQ(exc[0].lits[0].frame, 0);
  EXPECT_EQ(exc[0].lits[0].net, f.out(inv));
  EXPECT_FALSE(exc[0].lits[0].value);
}

TEST(Excitations, BridgeConditionsOnAggressor) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g1 = f.add("INVX1", {a});
  const GateId g2 = f.add("INVX1", {b});
  f.nl.mark_primary_output(f.out(g1));
  f.nl.mark_primary_output(f.out(g2));
  UdfmMap udfm(*lib());
  Fault fault;
  fault.kind = FaultKind::Bridge;
  fault.victim = f.out(g1);
  fault.aggressor = f.out(g2);
  fault.bridge_type = BridgeType::DomAnd;
  const auto exc = build_excitations(fault, f.nl, udfm);
  ASSERT_EQ(exc.size(), 1u);
  ASSERT_EQ(exc[0].lits.size(), 1u);
  EXPECT_EQ(exc[0].lits[0].net, f.out(g2));
  EXPECT_FALSE(exc[0].lits[0].value);  // wired-AND: aggressor low dominates
  EXPECT_FALSE(exc[0].faulty_value);
}

TEST(Podem, DetectsSimpleStuckAt) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g = f.add("AND2X2", {a, b});
  f.nl.mark_primary_output(f.out(g));
  const CombView view = CombView::build(f.nl);
  Podem podem(f.nl, view, {1000});
  RelevantRegion region(f.nl, view);
  Excitation exc;
  exc.victim = f.out(g);
  exc.faulty_value = false;  // output SA0: need a=b=1
  std::vector<V3> test;
  ASSERT_EQ(podem.search(region.detect(exc), &test),
            Podem::Outcome::Detected);
  EXPECT_EQ(test[0], V3::One);
  EXPECT_EQ(test[1], V3::One);
}

TEST(Podem, ProvesRedundantFaultUndetectable) {
  // y = (a & b) | (a & !b): fault "second AND output SA0" is detectable,
  // but SA1 on the OR output is undetectable when a=1 (always 1)? Build
  // the classic: out = or(and(a,b), and(a,!b)) == a. SA1 on `out` needs
  // out=0 -> a=0 ok; SA0 needs out=1 -> a=1 ok; both detectable. The
  // undetectable one: SA0 on and(a,b) propagates only when and(a,!b)=0
  // and flips out: a=1,b=1 -> other term 0, out flips: detectable too!
  // A genuinely undetectable case: SA1 on and(a,b) requires b=0 for
  // propagation (other term a&!b = a); with a=1,b=0 the faulty OR sees
  // (1,1) vs good (0,1): masked. With a=0: excitation needs and=0 ok but
  // propagation blocked (other term 0, out 0 both ways? faulty or = 1!).
  // Actually a=0,b=*: good and=0, faulty and=1 -> out good=0, faulty=1:
  // detected. So craft real redundancy instead: out = a | (a & b).
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId and_g = f.add("AND2X2", {a, b});
  const GateId or_g = f.add("OR2X2", {a, f.out(and_g)});
  f.nl.mark_primary_output(f.out(or_g));
  const CombView view = CombView::build(f.nl);
  Podem podem(f.nl, view, {10000});
  RelevantRegion region(f.nl, view);
  // SA1 on the AND output: flips out only when a=0 -> but then faulty
  // out=1 ... wait good out=a; faulty out = a|1 = 1; at a=0 differs ->
  // detectable. SA0 on the AND output: faulty out = a|0 = a == good for
  // all inputs: undetectable (classic absorbed term).
  Excitation exc;
  exc.victim = f.out(and_g);
  exc.faulty_value = false;
  EXPECT_EQ(podem.search(region.detect(exc), nullptr),
            Podem::Outcome::Undetectable);
  // And its SA1 counterpart is detectable.
  exc.faulty_value = true;
  EXPECT_EQ(podem.search(region.detect(exc), nullptr),
            Podem::Outcome::Detected);
}

TEST(Podem, JustifyConditions) {
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g = f.add("NAND2X1", {a, b});
  f.nl.mark_primary_output(f.out(g));
  const CombView view = CombView::build(f.nl);
  Podem podem(f.nl, view, {1000});
  RelevantRegion region(f.nl, view);
  const CondLiteral want_zero[] = {{f.out(g), false, 0}};
  std::vector<V3> test;
  ASSERT_EQ(podem.search(region.justify(want_zero), &test),
            Podem::Outcome::Detected);
  EXPECT_EQ(test[0], V3::One);
  EXPECT_EQ(test[1], V3::One);
  // NAND output = 0 AND input a = 0 simultaneously: impossible.
  const CondLiteral impossible[] = {{f.out(g), false, 0}, {a, false, 0}};
  EXPECT_EQ(podem.search(region.justify(impossible), nullptr),
            Podem::Outcome::Undetectable);
}

/// PODEM vs exhaustive simulation on random circuits: for every stuck-at
/// fault, PODEM's verdict must match brute-force enumeration of all
/// source assignments.
class PodemExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(PodemExhaustive, AgreesWithBruteForce) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  Fixture f;
  const int num_inputs = 5;
  std::vector<NetId> nets;
  for (int i = 0; i < num_inputs; ++i) {
    nets.push_back(f.nl.add_primary_input());
  }
  const char* kCells[] = {"INVX1",  "NAND2X1", "NOR2X1", "AND2X2",
                          "OR2X2",  "XOR2X1",  "AOI21X1", "OAI21X1"};
  for (int i = 0; i < 25; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(std::size(kCells))]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 10))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  for (int i = 0; i < 4; ++i) {
    f.nl.mark_primary_output(nets[nets.size() - 1 - rng.below(6)]);
  }

  const CombView view = CombView::build(f.nl);
  Podem podem(f.nl, view, {100000});
  RelevantRegion region(f.nl, view);
  ParallelSimulator sim(f.nl, view);

  // Brute force: all 32 assignments in lanes.
  const auto brute_force_detects = [&](NetId victim, bool sa) {
    for (std::size_t s = 0; s < view.sources.size(); ++s) {
      std::uint64_t w = 0;
      for (int lane = 0; lane < 32; ++lane) {
        if ((lane >> s) & 1) w |= std::uint64_t{1} << lane;
      }
      sim.set_source(view.sources[s], w);
    }
    sim.run();
    const std::uint64_t good = sim.value(victim);
    // Faulty copy: flip victim where excited, propagate via FaultSim.
    FaultSimulator fsim(f.nl, view);
    std::vector<TestPattern> tests;
    for (int lane = 0; lane < 32; ++lane) {
      TestPattern t;
      for (std::size_t s = 0; s < view.sources.size(); ++s) {
        t.frame0.push_back((lane >> s) & 1);
        t.frame1.push_back((lane >> s) & 1);
      }
      tests.push_back(std::move(t));
    }
    fsim.load(tests, 0, 32);
    Excitation exc;
    exc.victim = victim;
    exc.faulty_value = sa;
    const Excitation excs[] = {exc};
    (void)good;
    return fsim.detect_mask(excs) != 0;
  };

  int checked = 0;
  for (std::size_t i = 0; i < nets.size() && checked < 20; i += 3) {
    const NetId victim = nets[i];
    for (const bool sa : {false, true}) {
      Excitation exc;
      exc.victim = victim;
      exc.faulty_value = sa;
      const auto verdict = podem.search(region.detect(exc), nullptr);
      ASSERT_NE(verdict, Podem::Outcome::Aborted);
      EXPECT_EQ(verdict == Podem::Outcome::Detected,
                brute_force_detects(victim, sa))
          << "net " << victim.value() << " sa" << sa;
      ++checked;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemExhaustive, ::testing::Range(0, 8));

TEST(FaultSim, AgreesWithPodemTests) {
  // Any test PODEM generates must be confirmed by the fault simulator.
  Rng rng(77);
  Fixture f;
  std::vector<NetId> nets;
  for (int i = 0; i < 8; ++i) nets.push_back(f.nl.add_primary_input());
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI22X1"};
  for (int i = 0; i < 40; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 12))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  for (int i = 0; i < 4; ++i) f.nl.mark_primary_output(nets[nets.size() - 1 - i]);

  const CombView view = CombView::build(f.nl);
  Podem podem(f.nl, view, {20000});
  RelevantRegion region(f.nl, view);
  FaultSimulator fsim(f.nl, view);
  int confirmed = 0;
  for (std::size_t i = 8; i < nets.size(); i += 2) {
    Excitation exc;
    exc.victim = nets[i];
    exc.faulty_value = rng.flip();
    std::vector<V3> assign;
    if (podem.search(region.detect(exc), &assign) !=
        Podem::Outcome::Detected) {
      continue;
    }
    TestPattern t;
    for (std::size_t s = 0; s < view.sources.size(); ++s) {
      const V3 v = assign[s];
      t.frame1.push_back(v == V3::One);
      t.frame0.push_back(rng.flip());
    }
    std::vector<TestPattern> tests{t};
    fsim.load(tests, 0, 1);
    const Excitation excs[] = {exc};
    EXPECT_NE(fsim.detect_mask(excs), 0u) << "net " << nets[i].value();
    ++confirmed;
  }
  EXPECT_GT(confirmed, 5);
}

TEST(Engine, EndToEndClassification) {
  // Full run_atpg over the internal faults of a small mapped block.
  Fixture f;
  std::vector<NetId> a, b;
  for (int i = 0; i < 4; ++i) {
    a.push_back(f.nl.add_primary_input());
    b.push_back(f.nl.add_primary_input());
  }
  NetId carry = f.nl.add_primary_input();
  for (int i = 0; i < 4; ++i) {
    const GateId fa = f.add("FAX1", {a[i], b[i], carry});
    carry = f.out(fa, 0);
    f.nl.mark_primary_output(f.out(fa, 1));
  }
  f.nl.mark_primary_output(carry);

  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(f.nl, udfm);
  ASSERT_GT(universe.size(), 50u);
  AtpgOptions options;
  options.random_batches = 4;
  const AtpgResult result = run_atpg(f.nl, universe, udfm, options);
  EXPECT_EQ(result.num_detected + result.num_undetectable +
                result.num_aborted,
            universe.size());
  EXPECT_GT(result.num_detected, universe.size() / 2);
  // FA carry chains carry the charge-sharing-masked opens: some faults
  // must be undetectable.
  EXPECT_GT(result.num_undetectable, 0u);
  EXPECT_FALSE(result.tests.empty());

  // All detected faults must be covered by the compacted test set.
  const CombView view = CombView::build(f.nl);
  FaultSimulator fsim(f.nl, view);
  std::vector<bool> covered(universe.size(), false);
  for (std::size_t first = 0; first < result.tests.size(); first += 64) {
    const std::size_t count =
        std::min<std::size_t>(64, result.tests.size() - first);
    fsim.load(result.tests, first, count);
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (covered[i] || result.status[i] != FaultStatus::Detected) continue;
      const auto exc = build_excitations(universe.faults[i], f.nl, udfm);
      if (fsim.detect_mask(exc) != 0) covered[i] = true;
    }
  }
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (result.status[i] == FaultStatus::Detected) {
      EXPECT_TRUE(covered[i]) << "fault " << i << " not covered by tests";
    }
  }
}

TEST(FaultSim, LaneMaskUnderSixtyFourLanes) {
  // Fewer than 64 loaded tests must exercise the `(1 << lanes) - 1`
  // shift path: detection bits may only appear in loaded lanes.
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId g = f.add("AND2X2", {a, b});
  f.nl.mark_primary_output(f.out(g));
  const CombView view = CombView::build(f.nl);
  FaultSimulator fsim(f.nl, view);

  // Output SA0 is detected exactly where the good output is 1.
  std::vector<TestPattern> tests;
  for (const auto& [va, vb] : {std::pair{1, 1}, {0, 1}, {1, 1}}) {
    TestPattern t;
    t.frame0 = {0, 0};
    t.frame1 = {static_cast<std::uint8_t>(va), static_cast<std::uint8_t>(vb)};
    tests.push_back(std::move(t));
  }
  fsim.load(tests, 0, 3);
  EXPECT_EQ(fsim.lanes(), 3);
  Excitation exc;
  exc.victim = f.out(g);
  exc.faulty_value = false;
  const Excitation excs[] = {exc};
  EXPECT_EQ(fsim.detect_mask(excs), 0b101u);

  // A single-lane load of the undetected pattern yields mask 0.
  fsim.load(tests, 1, 1);
  EXPECT_EQ(fsim.lanes(), 1);
  EXPECT_EQ(fsim.detect_mask(excs), 0u);
}

TEST(FaultSim, LoadFromMatchesLoad) {
  Rng rng(31);
  Fixture f;
  std::vector<NetId> nets;
  for (int i = 0; i < 6; ++i) nets.push_back(f.nl.add_primary_input());
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1"};
  for (int i = 0; i < 30; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 8))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  f.nl.mark_primary_output(nets.back());
  f.nl.mark_primary_output(nets[nets.size() - 3]);

  const CombView view = CombView::build(f.nl);
  FaultSimulator master(f.nl, view);
  FaultSimulator worker(f.nl, view);
  std::vector<TestPattern> tests;
  for (int lane = 0; lane < 40; ++lane) {
    TestPattern t;
    for (std::size_t s = 0; s < view.sources.size(); ++s) {
      t.frame0.push_back(rng.flip());
      t.frame1.push_back(rng.flip());
    }
    tests.push_back(std::move(t));
  }
  master.load(tests, 0, tests.size());
  worker.load_from(master);
  EXPECT_EQ(worker.lanes(), master.lanes());
  for (std::size_t i = 6; i < nets.size(); ++i) {
    for (const bool sa : {false, true}) {
      Excitation exc;
      exc.victim = nets[i];
      exc.faulty_value = sa;
      const Excitation excs[] = {exc};
      EXPECT_EQ(master.detect_mask(excs), worker.detect_mask(excs))
          << "net " << nets[i].value() << " sa" << sa;
    }
  }
}

TEST(FaultSimArena, RebindAcrossDesignsMatchesFreshSimulators) {
  // Regression for stale per-batch scratch: one arena slot rebound
  // across differently-sized designs (large -> small -> large) must
  // answer every detect_mask query exactly like a simulator freshly
  // constructed for that design.
  Rng rng(91);
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1"};
  struct Design {
    Fixture f;
    std::vector<NetId> nets;
    std::vector<TestPattern> tests;
  };
  const auto make = [&](int inputs, int gates) {
    auto d = std::make_unique<Design>();
    for (int i = 0; i < inputs; ++i) {
      d->nets.push_back(d->f.nl.add_primary_input());
    }
    for (int i = 0; i < gates; ++i) {
      const CellId cell = lib()->require(kCells[rng.below(4)]);
      const CellSpec& spec = lib()->cell(cell);
      std::vector<NetId> fanins;
      for (int j = 0; j < spec.num_inputs; ++j) {
        fanins.push_back(d->nets[d->nets.size() - 1 - rng.below(
                                    std::min<std::size_t>(d->nets.size(), 8))]);
      }
      d->nets.push_back(d->f.out(d->f.nl.add_gate(cell, fanins)));
    }
    d->f.nl.mark_primary_output(d->nets.back());
    d->f.nl.mark_primary_output(d->nets[d->nets.size() - 2]);
    const CombView view = CombView::build(d->f.nl);
    for (int lane = 0; lane < 48; ++lane) {
      TestPattern t;
      for (std::size_t s = 0; s < view.sources.size(); ++s) {
        t.frame0.push_back(rng.flip());
        t.frame1.push_back(rng.flip());
      }
      d->tests.push_back(std::move(t));
    }
    return d;
  };
  const auto masks_of = [](Design& d, FaultSimulator& sim) {
    std::vector<std::uint64_t> out;
    sim.load(d.tests, 0, d.tests.size());
    for (const NetId net : d.nets) {
      for (const bool sa : {false, true}) {
        Excitation exc;
        exc.victim = net;
        exc.faulty_value = sa;
        const Excitation excs[] = {exc};
        out.push_back(sim.detect_mask(excs));
      }
    }
    return out;
  };
  const auto fresh_masks = [&](Design& d) {
    FaultSimulator sim(d.f.nl, CombView::build(d.f.nl));
    return masks_of(d, sim);
  };

  const auto big = make(8, 60);
  const auto small = make(4, 10);
  const auto big_view =
      DenseView::build_shared(big->f.nl, CombView::build(big->f.nl));
  const auto small_view =
      DenseView::build_shared(small->f.nl, CombView::build(small->f.nl));

  FaultSimArena arena;
  EXPECT_EQ(masks_of(*big, arena.acquire(0, big_view)), fresh_masks(*big));
  // Shrinking rebind: every buffer is now oversized for the new design;
  // any stale lane count, frame value or event scratch shows up here.
  EXPECT_EQ(masks_of(*small, arena.acquire(0, small_view)),
            fresh_masks(*small));
  EXPECT_EQ(masks_of(*big, arena.acquire(0, big_view)), fresh_masks(*big));
  EXPECT_EQ(arena.size(), 1u);
}

TEST(FaultSim, BaselineOverlayMatchesFullLoad) {
  // A copy-on-write load against a committed baseline must agree bit for
  // bit with a full O(netlist) load of the same patterns, while
  // materializing strictly fewer frame bytes.
  Rng rng(47);
  Fixture f;
  std::vector<NetId> nets;
  for (int i = 0; i < 6; ++i) nets.push_back(f.nl.add_primary_input());
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1", "AOI21X1"};
  for (int i = 0; i < 30; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 8))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  f.nl.mark_primary_output(nets.back());
  f.nl.mark_primary_output(nets[nets.size() - 3]);

  const CombView base_view = CombView::build(f.nl);
  std::vector<TestPattern> seeds;
  for (int lane = 0; lane < 100; ++lane) {
    TestPattern t;
    for (std::size_t s = 0; s < base_view.sources.size(); ++s) {
      t.frame0.push_back(rng.flip());
      t.frame1.push_back(rng.flip());
    }
    seeds.push_back(std::move(t));
  }
  const SimBaseline base = build_sim_baseline(f.nl, seeds);
  ASSERT_TRUE(base.valid());
  // Batches pack 64 lanes each.
  const std::size_t cap = 64;
  ASSERT_EQ(base.batches.size(), (seeds.size() + cap - 1) / cap);

  // Candidate: the committed design plus a small appended cone — its new
  // nets are the only dirty slots.
  Netlist cand = f.nl;
  std::vector<NetId> cand_nets = nets;
  for (int i = 0; i < 3; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(4)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(cand_nets[cand_nets.size() - 1 - rng.below(6)]);
    }
    const GateId g = cand.add_gate(cell, fanins);
    cand_nets.push_back(cand.gate(g).outputs[0]);
  }
  cand.mark_primary_output(cand_nets.back());

  const auto cand_view =
      DenseView::build_shared(cand, CombView::build(cand));
  const CowPlan plan = build_cow_plan(*cand_view, *base.view);
  ASSERT_TRUE(plan.valid);
  EXPECT_GT(plan.dirty_nets.size(), 0u);
  EXPECT_LT(plan.dirty_nets.size(), cand_view->net_slots);

  FaultSimulator overlay_sim(cand_view);
  FaultSimulator full_sim(cand_view);
  for (std::size_t b = 0; b < base.batches.size(); ++b) {
    const std::size_t count =
        static_cast<std::size_t>(base.batches[b].lanes);
    overlay_sim.load_baseline(base, plan, b, count);
    full_sim.load(seeds, b * cap, count);
    ASSERT_EQ(overlay_sim.lanes(), full_sim.lanes());
    for (const NetId net : cand_nets) {
      for (const bool sa : {false, true}) {
        Excitation exc;
        exc.victim = net;
        exc.faulty_value = sa;
        const Excitation excs[] = {exc};
        ASSERT_EQ(overlay_sim.detect_mask(excs), full_sim.detect_mask(excs))
            << "batch " << b << " net " << net.value() << " sa" << sa;
      }
    }
  }
  EXPECT_EQ(overlay_sim.overlay_loads(), base.batches.size());
  EXPECT_EQ(overlay_sim.full_loads(), 0u);
  EXPECT_LT(overlay_sim.frame_bytes_materialized(),
            full_sim.frame_bytes_materialized());
  // Both accountings agree on patterns: 2 frames per loaded pattern.
  EXPECT_EQ(overlay_sim.patterns_simulated(), full_sim.patterns_simulated());

  // The pre-simulated phase-1 batches obey the same contract: the stored
  // patterns reproduce the engine's deterministic draw, and an overlay
  // replay agrees bit for bit with a full load of those patterns.
  const SimBaseline rbase =
      build_sim_baseline(f.nl, seeds, /*random_seed=*/99, /*random_batches=*/2);
  ASSERT_EQ(rbase.random_batch_count, 2);
  ASSERT_EQ(rbase.random_batches.size(), (128 + cap - 1) / cap);
  ASSERT_EQ(rbase.random_patterns.size(), 128u);
  Rng replay(99);
  for (const TestPattern& t : rbase.random_patterns) {
    ASSERT_EQ(t.frame0, random_sim_frame(rbase.frame_width, replay));
    ASSERT_EQ(t.frame1, random_sim_frame(rbase.frame_width, replay));
  }
  const CowPlan rplan = build_cow_plan(*cand_view, *rbase.view);
  ASSERT_TRUE(rplan.valid);
  FaultSimulator roverlay_sim(cand_view);
  FaultSimulator rfull_sim(cand_view);
  for (std::size_t b = 0; b < rbase.random_batches.size(); ++b) {
    const std::size_t count =
        static_cast<std::size_t>(rbase.random_batches[b].lanes);
    roverlay_sim.load_baseline_random(rbase, rplan, b, count);
    rfull_sim.load(rbase.random_patterns, b * cap, count);
    for (const NetId net : cand_nets) {
      for (const bool sa : {false, true}) {
        Excitation exc;
        exc.victim = net;
        exc.faulty_value = sa;
        const Excitation excs[] = {exc};
        ASSERT_EQ(roverlay_sim.detect_mask(excs),
                  rfull_sim.detect_mask(excs))
            << "random batch " << b << " net " << net.value() << " sa" << sa;
      }
    }
  }
}

TEST(Engine, DuplicateFaultsMirrorRepresentative) {
  // Distinct physical violations inducing the same logic fault (equal
  // Fault::Key, e.g. different guideline ids) are classified once and
  // the verdict mirrored onto every duplicate.
  Fixture f;
  const NetId a = f.nl.add_primary_input();
  const NetId b = f.nl.add_primary_input();
  const GateId and_g = f.add("AND2X2", {a, b});
  const GateId or_g = f.add("OR2X2", {a, f.out(and_g)});
  f.nl.mark_primary_output(f.out(or_g));
  UdfmMap udfm(*lib());

  FaultUniverse universe;
  Fault detectable;  // primary-output SA0: trivially detectable
  detectable.kind = FaultKind::StuckAt;
  detectable.victim = f.out(or_g);
  detectable.value = false;
  detectable.guideline = 1;
  Fault undetectable;  // absorbed-term SA0 (see PodemExhaustive above)
  undetectable.kind = FaultKind::StuckAt;
  undetectable.victim = f.out(and_g);
  undetectable.value = false;
  undetectable.guideline = 2;
  // Interleave duplicates with different guideline ids.
  universe.faults = {detectable, undetectable, detectable, undetectable,
                     detectable};
  universe.faults[2].guideline = 7;
  universe.faults[3].guideline = 8;
  universe.faults[4].guideline = 9;

  const AtpgResult result = run_atpg(f.nl, universe, udfm, {});
  ASSERT_EQ(result.status.size(), 5u);
  for (const std::size_t i : {0u, 2u, 4u}) {
    EXPECT_EQ(result.status[i], FaultStatus::Detected) << i;
  }
  for (const std::size_t i : {1u, 3u}) {
    EXPECT_EQ(result.status[i], FaultStatus::Undetectable) << i;
  }
  // Duplicates count toward the totals like any other fault.
  EXPECT_EQ(result.num_detected, 3u);
  EXPECT_EQ(result.num_undetectable, 2u);
}

/// num_threads must never change results: the parallel sweeps write
/// per-fault mask slots and reduce serially. Statuses, compacted tests
/// and counts are required to be bit-identical on a seed benchmark.
TEST(Engine, ParallelMatchesSerialOnSeedBenchmark) {
  // Smallest benchmark block keeps the double classification fast.
  std::string_view smallest;
  std::size_t smallest_gates = std::numeric_limits<std::size_t>::max();
  for (const auto name : benchmark_names()) {
    const Netlist rtl = build_benchmark(name).value();
    if (rtl.num_live_gates() < smallest_gates) {
      smallest_gates = rtl.num_live_gates();
      smallest = name;
    }
  }
  const Netlist rtl = build_benchmark(smallest).value();
  MapOptions mo;
  const Library& slib = rtl.library();
  const auto pin = [&](const char* src, const char* dst) {
    if (const auto s = slib.find(src)) {
      mo.fixed_map.emplace(s->value(), *lib()->find(dst));
    }
  };
  pin("DFF", "DFFPOSX1");
  pin("FA", "FAX1");
  pin("HA", "HAX1");
  const auto mapped = technology_map(rtl, lib(), mo);
  ASSERT_TRUE(mapped.has_value());

  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(*mapped, udfm);
  ASSERT_GT(universe.size(), 100u);

  AtpgOptions serial;
  serial.random_batches = 4;
  serial.num_threads = 1;
  const AtpgResult base = run_atpg(*mapped, universe, udfm, serial);
  EXPECT_EQ(base.counters.threads_used, 1);
  EXPECT_GT(base.counters.patterns_simulated, 0u);
  EXPECT_GT(base.counters.detect_mask_calls, 0u);

  for (const int threads : {2, 4}) {
    AtpgOptions options = serial;
    options.num_threads = threads;
    const AtpgResult parallel = run_atpg(*mapped, universe, udfm, options);
    EXPECT_EQ(parallel.counters.threads_used, threads);
    ASSERT_EQ(parallel.status.size(), base.status.size());
    for (std::size_t i = 0; i < base.status.size(); ++i) {
      ASSERT_EQ(parallel.status[i], base.status[i])
          << "fault " << i << " at " << threads << " threads";
    }
    EXPECT_EQ(parallel.num_detected, base.num_detected);
    EXPECT_EQ(parallel.num_undetectable, base.num_undetectable);
    EXPECT_EQ(parallel.num_aborted, base.num_aborted);
    ASSERT_EQ(parallel.tests.size(), base.tests.size());
    for (std::size_t t = 0; t < base.tests.size(); ++t) {
      EXPECT_EQ(parallel.tests[t].frame0, base.tests[t].frame0) << t;
      EXPECT_EQ(parallel.tests[t].frame1, base.tests[t].frame1) << t;
    }
  }
}

TEST(Engine, CacheReproducesStatuses) {
  Fixture f;
  std::vector<NetId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(f.nl.add_primary_input());
  Rng rng(9);
  std::vector<NetId> nets = ins;
  for (int i = 0; i < 30; ++i) {
    const char* kCells[] = {"NAND2X1", "XOR2X1", "AOI21X1"};
    const CellId cell = lib()->require(kCells[rng.below(3)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 - rng.below(
                                std::min<std::size_t>(nets.size(), 8))]);
    }
    nets.push_back(f.out(f.nl.add_gate(cell, fanins)));
  }
  f.nl.mark_primary_output(nets.back());
  f.nl.mark_primary_output(nets[nets.size() - 2]);

  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(f.nl, udfm);
  AtpgOptions options;
  options.generate_tests = false;
  FaultStatusCache cache;
  const AtpgResult fresh = run_atpg(f.nl, universe, udfm, options, &cache);
  const AtpgResult cached = run_atpg(f.nl, universe, udfm, options, &cache);
  ASSERT_EQ(fresh.status.size(), cached.status.size());
  for (std::size_t i = 0; i < fresh.status.size(); ++i) {
    EXPECT_EQ(fresh.status[i], cached.status[i]) << i;
  }
}

// ---- VerdictStore: the id-indexed FaultStatusCache ----

constexpr std::uint32_t kNoId = NetId::kInvalid;

/// std::map order for Fault::Key, field by field.
struct KeyLess {
  bool operator()(const Fault::Key& a, const Fault::Key& b) const {
    return std::tie(a.kind, a.bridge_type, a.victim, a.aggressor, a.owner,
                    a.udfm_index, a.value) <
           std::tie(b.kind, b.bridge_type, b.victim, b.aggressor, b.owner,
                    b.udfm_index, b.value);
  }
};
using RefStore = std::map<Fault::Key, FaultStatus, KeyLess>;

/// The largest UDFM fault count of an OSU018 cell: indices run to 71.
constexpr std::uint32_t kMaxCellFaults = 72;

/// A cell-aware key's victim is its owner's first output; any fixed
/// function of the owner keeps that invariant.
std::uint32_t first_output_of(std::uint32_t owner) { return 2 * owner + 1; }

/// A random key of any of the four kinds, keeping the Fault invariants
/// the store relies on, over ids below `ids`.
Fault::Key random_key(Rng& rng, std::uint32_t ids) {
  const auto id = [&] { return static_cast<std::uint32_t>(rng.below(ids)); };
  Fault::Key k{};
  k.kind = static_cast<std::uint8_t>(rng.below(4));
  k.bridge_type = 0;
  k.aggressor = kNoId;
  k.owner = kNoId;
  k.udfm_index = 0;
  k.value = false;
  switch (static_cast<FaultKind>(k.kind)) {
    case FaultKind::StuckAt:
    case FaultKind::Transition:
      k.victim = id();
      k.value = rng.flip();
      break;
    case FaultKind::Bridge:
      k.victim = id();
      k.aggressor = id();
      k.bridge_type = static_cast<std::uint8_t>(rng.below(2));
      break;
    case FaultKind::CellAware:
      k.owner = id();
      k.victim = first_output_of(k.owner);
      k.udfm_index = static_cast<std::uint32_t>(rng.below(kMaxCellFaults));
      break;
  }
  return k;
}

FaultStatus random_status(Rng& rng) {
  return static_cast<FaultStatus>(rng.below(4));  // Unknown erases
}

/// Stores into both; the engine passes the cell's UDFM fault count, the
/// other half of the calls leave the block to size itself.
void store_both(FaultStatusCache& store, RefStore& ref, const Fault::Key& k,
                FaultStatus s, Rng& rng) {
  const bool cell_aware = k.kind == static_cast<std::uint8_t>(
                                        FaultKind::CellAware);
  store.store(k, s, cell_aware && rng.flip() ? kMaxCellFaults : 0);
  if (s == FaultStatus::Unknown) {
    ref.erase(k);
  } else {
    ref[k] = s;
  }
}

void expect_same(const FaultStatusCache& store, const RefStore& ref) {
  ASSERT_EQ(store.size(), ref.size());
  for (const auto& [k, s] : ref) ASSERT_EQ(store.lookup(k), s);
  std::size_t visited = 0;
  store.for_each([&](const Fault::Key& k, FaultStatus s) {
    ++visited;
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(s, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(VerdictStore, MatchesMapOnRandomKeysOfAllKinds) {
  Rng rng(2024);
  FaultStatusCache store;
  RefStore ref;
  std::size_t kinds_stored[4] = {};
  for (int op = 0; op < 60000; ++op) {
    const Fault::Key k = random_key(rng, 3000);
    if (rng.below(2) == 0) {
      const FaultStatus s = random_status(rng);
      store_both(store, ref, k, s, rng);
      ++kinds_stored[k.kind];
    } else {
      const auto it = ref.find(k);
      ASSERT_EQ(store.lookup(k),
                it == ref.end() ? FaultStatus::Unknown : it->second);
    }
    ASSERT_EQ(store.size(), ref.size());
  }
  for (const std::size_t n : kinds_stored) EXPECT_GT(n, 5000u);
  EXPECT_GT(ref.size(), 10000u);
  expect_same(store, ref);
}

TEST(VerdictStore, IdsPastTheEndReadUnknown) {
  FaultStatusCache store;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(store.lookup(random_key(rng, 1u << 30)), FaultStatus::Unknown);
  }
  Fault f;
  f.victim = NetId{5};
  store.store(f.key(), FaultStatus::Detected);
  for (const FaultKind kind : {FaultKind::StuckAt, FaultKind::Transition,
                               FaultKind::Bridge, FaultKind::CellAware}) {
    for (const std::uint32_t id : {6u, 1000u, 1u << 20, kNoId - 1}) {
      Fault g;
      g.kind = kind;
      g.victim = NetId{id};
      if (kind == FaultKind::Bridge) g.aggressor = NetId{id};
      if (kind == FaultKind::CellAware) {
        g.owner = GateId{id};
        g.victim = NetId{first_output_of(id)};
      }
      EXPECT_EQ(store.lookup(g.key()), FaultStatus::Unknown) << id;
    }
  }
  // Storing an Unknown past the end is a no-op, not a growth.
  Fault far;
  far.victim = NetId{1u << 20};
  store.store(far.key(), FaultStatus::Unknown);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.lookup(f.key()), FaultStatus::Detected);
}

TEST(VerdictStore, UdfmIndex71KeepsItsOwnSlot) {
  // Indices 7 and 71 agree modulo 64, and gate 3's block ends next to
  // gate 4's: neither may alias.
  FaultStatusCache store;
  const auto ca = [](std::uint32_t owner, std::uint32_t index) {
    Fault f;
    f.kind = FaultKind::CellAware;
    f.owner = GateId{owner};
    f.victim = NetId{first_output_of(owner)};
    f.udfm_index = index;
    return f.key();
  };
  store.store(ca(3, 71), FaultStatus::Undetectable, kMaxCellFaults);
  store.store(ca(4, 0), FaultStatus::Aborted, kMaxCellFaults);
  EXPECT_EQ(store.lookup(ca(3, 7)), FaultStatus::Unknown);
  EXPECT_EQ(store.lookup(ca(3, 71)), FaultStatus::Undetectable);
  EXPECT_EQ(store.lookup(ca(4, 0)), FaultStatus::Aborted);
  EXPECT_EQ(store.lookup(ca(4, 71)), FaultStatus::Unknown);
  store.store(ca(3, 7), FaultStatus::Detected, kMaxCellFaults);
  EXPECT_EQ(store.lookup(ca(3, 71)), FaultStatus::Undetectable);
  // A block made too small for a later index is regrown, not aliased.
  store.store(ca(9, 0), FaultStatus::Detected);
  store.store(ca(9, 71), FaultStatus::Undetectable);
  EXPECT_EQ(store.lookup(ca(9, 0)), FaultStatus::Detected);
  EXPECT_EQ(store.lookup(ca(9, 71)), FaultStatus::Undetectable);
  EXPECT_EQ(store.lookup(ca(9, 7)), FaultStatus::Unknown);
  EXPECT_EQ(store.size(), 5u);
}

TEST(VerdictStore, OverwriteKeepsOneEntry) {
  for (const FaultKind kind : {FaultKind::StuckAt, FaultKind::Transition,
                               FaultKind::Bridge, FaultKind::CellAware}) {
    FaultStatusCache store;
    Fault f;
    f.kind = kind;
    f.victim = NetId{7};
    if (kind == FaultKind::Bridge) f.aggressor = NetId{9};
    if (kind == FaultKind::CellAware) {
      f.owner = GateId{3};
      f.victim = NetId{first_output_of(3)};
    }
    store.store(f.key(), FaultStatus::Aborted);
    store.store(f.key(), FaultStatus::Detected);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.lookup(f.key()), FaultStatus::Detected);
    store.store(f.key(), FaultStatus::Unknown);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.lookup(f.key()), FaultStatus::Unknown);
  }
  // The same nets with victim and aggressor swapped are another bridge,
  // and so is the other bridge type.
  FaultStatusCache store;
  Fault b;
  b.kind = FaultKind::Bridge;
  b.victim = NetId{7};
  b.aggressor = NetId{9};
  store.store(b.key(), FaultStatus::Undetectable);
  Fault swapped = b;
  std::swap(swapped.victim, swapped.aggressor);
  EXPECT_EQ(store.lookup(swapped.key()), FaultStatus::Unknown);
  Fault other_type = b;
  other_type.bridge_type = BridgeType::DomOr;
  EXPECT_EQ(store.lookup(other_type.key()), FaultStatus::Unknown);
}

TEST(VerdictStore, OverlayOverBaseReadsAndFoldsExactly) {
  Rng rng(91);
  FaultStatusCache base;
  RefStore base_ref;
  for (int i = 0; i < 20000; ++i) {
    const Fault::Key k = random_key(rng, 2000);
    store_both(base, base_ref, k, random_status(rng), rng);
  }
  // An overlay over a subset of the base's keys and over fresh ids.
  FaultStatusCache overlay;
  RefStore overlay_ref;
  for (int i = 0; i < 5000; ++i) {
    const Fault::Key k = random_key(rng, 2400);
    FaultStatus s = random_status(rng);
    if (s == FaultStatus::Unknown) s = FaultStatus::Aborted;
    store_both(overlay, overlay_ref, k, s, rng);
  }
  RefStore merged = base_ref;
  for (const auto& [k, s] : overlay_ref) merged[k] = s;
  for (const auto& [k, s] : merged) {
    const FaultStatus d = overlay.lookup(k);
    ASSERT_EQ(d != FaultStatus::Unknown ? d : base.lookup(k), s);
  }
  base.merge(overlay);
  expect_same(base, merged);
  expect_same(overlay, overlay_ref);  // merge reads, never moves
}

TEST(VerdictStore, MergeVisitsEachKeyOnce) {
  Rng rng(5);
  FaultStatusCache delta;
  RefStore ref;
  for (int i = 0; i < 8000; ++i) {
    store_both(delta, ref, random_key(rng, 1500), random_status(rng), rng);
  }
  std::map<Fault::Key, int, KeyLess> visits;
  delta.for_each([&](const Fault::Key& k, FaultStatus) { ++visits[k]; });
  EXPECT_EQ(visits.size(), ref.size());
  for (const auto& [k, n] : visits) EXPECT_EQ(n, 1);
  FaultStatusCache folded;
  folded.merge(delta);
  expect_same(folded, ref);
  folded.merge(delta);  // folding the same delta again changes nothing
  expect_same(folded, ref);
  folded.clear();
  EXPECT_EQ(folded.size(), 0u);
  for (const auto& [k, s] : ref) EXPECT_EQ(folded.lookup(k), FaultStatus::Unknown);
}

TEST(VerdictStore, ConcurrentReadersShareOneBase) {
  // The parallel ladder's pattern: workers read one base that nobody
  // writes and each stores into a private overlay.
  Rng rng(17);
  FaultStatusCache base;
  RefStore base_ref;
  for (int i = 0; i < 20000; ++i) {
    store_both(base, base_ref, random_key(rng, 2000), random_status(rng), rng);
  }
  constexpr int kReaders = 4;
  std::vector<FaultStatusCache> overlays(kReaders);
  std::vector<RefStore> overlay_refs(kReaders);
  std::vector<std::size_t> mismatches(kReaders, 0);
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Rng local(100 + static_cast<std::uint64_t>(r));
        for (int i = 0; i < 20000; ++i) {
          const Fault::Key k = random_key(local, 2600);
          const auto it = base_ref.find(k);
          const FaultStatus want =
              it == base_ref.end() ? FaultStatus::Unknown : it->second;
          if (base.lookup(k) != want) ++mismatches[r];
          if (local.below(4) == 0) {
            store_both(overlays[r], overlay_refs[r], k, FaultStatus::Detected,
                       local);
          }
        }
      });
    }
  }
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(mismatches[r], 0u) << "reader " << r;
    expect_same(overlays[r], overlay_refs[r]);
  }
  expect_same(base, base_ref);
}

// ---- RelevantRegion signatures and the proof memo ----

/// Adds and removes `count` inverters on `in`: every gate and net built
/// afterwards gets an id `count` higher, and the logic is unchanged.
void shift_ids(Fixture& f, NetId in, int count) {
  for (int i = 0; i < count; ++i) f.nl.remove_gate(f.add("INVX1", {in}));
}

/// A small block for the signature tests. Built the same way every
/// time, so the ids match across variants; each test edits a copy.
///   n0 = INV(a); n1 = NAND2(a, b); {yc, ys} = HAX1(n1, c);
///   y = NOR2(ys, n0) -> PO.
/// The detect call targets n1 stuck-at-0 with the frame-1 literal
/// c = 1 (and a frame-0 literal detection must ignore). Its cone is
/// {HAX1, NOR2}; n0 is a driven side input, yc a dangling cone net.
/// `shift` renumbers every gate and internal net (see shift_ids).
struct SigBlock {
  Fixture f;
  NetId a, b, c, n0, n1, yc, ys, y;
  GateId inv, nand, ha, nor;
  Excitation exc;

  explicit SigBlock(bool swap_ha_pins = false, int shift = 0) {
    a = f.nl.add_primary_input();
    b = f.nl.add_primary_input();
    c = f.nl.add_primary_input();
    shift_ids(f, a, shift);
    inv = f.add("INVX1", {a});
    n0 = f.out(inv);
    nand = f.add("NAND2X1", {a, b});
    n1 = f.out(nand);
    yc = f.nl.add_net();
    ys = f.nl.add_net();
    const NetId ha_in[] = {n1, c};
    const NetId ha_out_a[] = {yc, ys};
    const NetId ha_out_b[] = {ys, yc};
    ha = f.nl.add_gate_driving(lib()->require("HAX1"), ha_in,
                               swap_ha_pins ? ha_out_b : ha_out_a);
    nor = f.add("NOR2X1", {ys, n0});
    y = f.out(nor);
    f.nl.mark_primary_output(y);
    exc.victim = n1;
    exc.faulty_value = false;
    exc.lits = {{c, true, 1}, {b, true, 0}};
  }

  [[nodiscard]] RegionSignature detect() const {
    const CombView view = CombView::build(f.nl);
    RelevantRegion region(f.nl, view);
    return region.detect(exc).signature();
  }
  [[nodiscard]] RegionSignature justify() const {
    const CombView view = CombView::build(f.nl);
    RelevantRegion region(f.nl, view);
    const CondLiteral lits[] = {{n1, true, 1}, {ys, false, 1}};
    return region.justify(lits).signature();
  }
};

TEST(RelevantRegion, BuildsConeAndBackwardClosure) {
  SigBlock blk;
  const CombView view = CombView::build(blk.f.nl);
  RelevantRegion region(blk.f.nl, view);
  region.detect(blk.exc);
  const std::vector<GateId> cone(region.cone_gates().begin(),
                                 region.cone_gates().end());
  EXPECT_EQ(cone, (std::vector<GateId>{blk.ha, blk.nor}));
  for (const NetId n : {blk.n1, blk.yc, blk.ys, blk.y}) {
    EXPECT_TRUE(region.in_cone(n)) << n.value();
  }
  EXPECT_FALSE(region.in_cone(blk.n0));
  // Detection reads the frame-1 literal only.
  ASSERT_EQ(region.lits().size(), 1u);
  EXPECT_EQ(region.lits()[0].net, blk.c);
  std::vector<NetId> nets(region.nets().begin(), region.nets().end());
  std::sort(nets.begin(), nets.end());
  std::vector<NetId> want{blk.a, blk.b,  blk.c,  blk.n0,
                          blk.n1, blk.yc, blk.ys, blk.y};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(nets, want);
  for (const GateId g : {blk.inv, blk.nand, blk.ha, blk.nor}) {
    EXPECT_TRUE(region.relevant_gate(g)) << g.value();
  }
  EXPECT_EQ(region.gates().size(), 4u);
  EXPECT_TRUE(region.is_source(blk.a));
  EXPECT_FALSE(region.is_source(blk.n0));
}

TEST(RelevantRegion, SignatureChangesUnderEachSingleMutation) {
  const RegionSignature base = SigBlock().detect();
  EXPECT_EQ(SigBlock().detect(), base);  // deterministic
  const CellId dff = lib()->require("DFFPOSX1");
  struct Mutation {
    const char* name;
    std::function<RegionSignature()> signature;
  };
  const std::vector<Mutation> mutations = {
      {"cell swap on a cone gate",
       [] {
         SigBlock blk;
         blk.f.nl.retype_gate(blk.nor, lib()->require("NAND2X1"));
         return blk.detect();
       }},
      {"cell swap on a side-input driver",
       [] {
         SigBlock blk;
         blk.f.nl.retype_gate(blk.inv, lib()->require("BUFX2"));
         return blk.detect();
       }},
      {"fanin rewire within the region",
       [] {
         SigBlock blk;
         blk.f.nl.rewire_fanin(blk.ha, 1, blk.b);
         return blk.detect();
       }},
      {"fanin order",
       [] {
         SigBlock blk;
         blk.f.nl.rewire_fanin(blk.nor, 0, blk.n0);
         blk.f.nl.rewire_fanin(blk.nor, 1, blk.ys);
         return blk.detect();
       }},
      {"driver pin",
       [] { return SigBlock(/*swap_ha_pins=*/true).detect(); }},
      {"PO flag on a cone net",
       [] {
         SigBlock blk;
         blk.f.nl.mark_primary_output(blk.yc);
         return blk.detect();
       }},
      {"flop sink on a cone net",
       [&] {
         SigBlock blk;
         blk.f.nl.add_gate(dff, std::vector<NetId>{blk.yc});
         return blk.detect();
       }},
      {"driven net turned into a source",
       [&] {
         SigBlock blk;
         blk.f.nl.retype_gate(blk.inv, dff);
         return blk.detect();
       }},
      {"literal value",
       [] {
         SigBlock blk;
         blk.exc.lits[0].value = false;
         return blk.detect();
       }},
      {"faulty value",
       [] {
         SigBlock blk;
         blk.exc.faulty_value = true;
         return blk.detect();
       }},
      {"justify instead of detect",
       [] {
         SigBlock blk;
         const CombView view = CombView::build(blk.f.nl);
         RelevantRegion region(blk.f.nl, view);
         const CondLiteral lits[] = {{blk.n1, true, 1}, {blk.c, true, 1}};
         return region.justify(lits).signature();
       }},
  };
  for (const Mutation& m : mutations) EXPECT_NE(m.signature(), base) << m.name;
}

TEST(RelevantRegion, SignatureIgnoresEditsOutsideTheRegion) {
  const RegionSignature base = SigBlock().detect();
  SigBlock blk;
  // A new output cone hanging off a relevant source, and an unrelated
  // gate: neither is read by the call.
  const NetId e = blk.f.nl.add_primary_input();
  blk.f.nl.mark_primary_output(blk.f.out(blk.f.add("AND2X2", {blk.a, e})));
  blk.f.nl.mark_primary_output(blk.f.out(blk.f.add("INVX1", {e})));
  // A frame-0 literal is a separate justify call, not part of detect.
  blk.exc.lits[1].value = false;
  EXPECT_EQ(blk.detect(), base);
  // A combinational sink on a cone net whose output is neither observed
  // nor read: no difference can be seen there, so it cannot change the
  // verdict, and the key (which reads observed cone nets only) ignores
  // it.
  SigBlock dangling;
  dangling.f.add("INVX1", {dangling.yc});
  EXPECT_EQ(dangling.detect(), base);
}

TEST(RelevantRegion, SignatureIgnoresIdRenumbering) {
  // The same logic with every gate and internal net renumbered (sources
  // keep their ids): a candidate's replacement logic reappears under
  // fresh ids, and the keys must not see them.
  const SigBlock blk;
  const SigBlock renumbered(/*swap_ha_pins=*/false, /*shift=*/3);
  ASSERT_NE(renumbered.n1, blk.n1);
  ASSERT_NE(renumbered.nor, blk.nor);
  EXPECT_EQ(renumbered.detect(), blk.detect());
  EXPECT_EQ(renumbered.justify(), blk.justify());
  EXPECT_NE(blk.justify(), blk.detect());
}

TEST(RelevantRegion, JustifySignatureIgnoresLiteralFrameAndOrder) {
  SigBlock blk;
  const CombView view = CombView::build(blk.f.nl);
  RelevantRegion region(blk.f.nl, view);
  const CondLiteral one[] = {{blk.n1, true, 0}, {blk.ys, false, 0}};
  const CondLiteral two[] = {{blk.ys, false, 1}, {blk.n1, true, 1}};
  const RegionSignature first = region.justify(one).signature();
  EXPECT_EQ(region.justify(two).signature(), first);
  for (const CondLiteral& lit : region.lits()) EXPECT_EQ(lit.frame, 1);
}

TEST(RelevantRegion, ConeSignatureIsTheLiteralFreeDetectKey) {
  SigBlock blk;
  const CombView view = CombView::build(blk.f.nl);
  RelevantRegion region(blk.f.nl, view);
  // Only the frame-0 literal left: detection reads no literal at all.
  Excitation bare = blk.exc;
  bare.lits.erase(bare.lits.begin());
  region.detect(bare);
  ASSERT_TRUE(region.lits().empty());
  const RegionSignature cone = region.cone_signature();
  EXPECT_EQ(region.signature(), cone);
  // The frame-1 literal c = 1 moves the call's key, not the cone's.
  region.detect(blk.exc);
  ASSERT_EQ(region.lits().size(), 1u);
  EXPECT_EQ(region.cone_signature(), cone);
  EXPECT_NE(region.signature(), cone);
  EXPECT_EQ(region.signature(), blk.detect());
  // Another faulty value is another cone key.
  Excitation flipped = bare;
  flipped.faulty_value = true;
  EXPECT_NE(region.detect(flipped).cone_signature(), cone);
}

TEST(ProofMemo, StoresSignaturesAndClearsAtTheCap) {
  ProofMemo memo;
  const auto sig = [](std::uint64_t i) {
    return RegionSignature{i * 0x9e3779b97f4a7c15ull + 1, i};
  };
  EXPECT_FALSE(memo.contains(sig(1)));
  for (std::uint64_t i = 0; i < ProofMemo::kMaxEntries; ++i) {
    memo.insert(sig(i));
  }
  memo.insert(sig(7));  // present: no growth
  EXPECT_EQ(memo.size(), ProofMemo::kMaxEntries);
  for (std::uint64_t i = 0; i < ProofMemo::kMaxEntries; i += 997) {
    EXPECT_TRUE(memo.contains(sig(i))) << i;
  }
  EXPECT_FALSE(memo.contains(sig(ProofMemo::kMaxEntries)));
  // The insert past the cap starts over.
  memo.insert(sig(ProofMemo::kMaxEntries));
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_TRUE(memo.contains(sig(ProofMemo::kMaxEntries)));
  EXPECT_FALSE(memo.contains(sig(0)));
}

/// Four copies of the absorbed term out = a | (a & b): every internal
/// fault of an AND gate that only ever pulls its output low is masked
/// by the OR, so phase 2 proves it undetectable. `shift` renumbers the
/// gates and internal nets (see shift_ids).
struct Absorbed {
  Fixture f;
  UdfmMap udfm{*lib()};
  FaultUniverse universe;

  explicit Absorbed(int shift = 0) {
    std::vector<NetId> pis;
    for (int i = 0; i < 8; ++i) pis.push_back(f.nl.add_primary_input());
    shift_ids(f, pis[0], shift);
    for (int i = 0; i < 4; ++i) {
      const NetId a = pis[2 * i];
      const NetId b = pis[2 * i + 1];
      const GateId and_g = f.add("AND2X2", {a, b});
      f.nl.mark_primary_output(f.out(f.add("OR2X2", {a, f.out(and_g)})));
    }
    universe = extract_internal_faults(f.nl, udfm);
  }
};

TEST(ProofMemo, ArenaMemoAnswersRepeatsWithIdenticalResults) {
  Absorbed blk;
  AtpgOptions options;
  options.random_batches = 1;
  options.num_threads = 1;
  const AtpgResult cold = run_atpg(blk.f.nl, blk.universe, blk.udfm, options);
  ASSERT_GT(cold.num_undetectable, 0u);
  ASSERT_EQ(cold.num_aborted, 0u);

  FaultSimArena arena;
  options.arena = &arena;
  const AtpgResult first = run_atpg(blk.f.nl, blk.universe, blk.udfm, options);
  EXPECT_GT(arena.proof_memo().size(), 0u);
  const AtpgResult again = run_atpg(blk.f.nl, blk.universe, blk.udfm, options);
  EXPECT_GT(again.counters.proof_memo_hits,
            first.counters.proof_memo_hits);
  for (const AtpgResult* r : {&first, &again}) {
    EXPECT_EQ(r->status, cold.status);
    EXPECT_EQ(r->tests, cold.tests);
  }
}

TEST(ProofMemo, RenumberedCandidateHitsTheMemo) {
  // A renumbered copy of the logic run on the arena that proved the
  // original: its undetectability proofs come from the memo, and it
  // ends exactly like a cold run of the copy.
  Absorbed original;
  Absorbed renumbered(/*shift=*/3);
  ASSERT_EQ(renumbered.f.nl.gate_capacity(),
            original.f.nl.gate_capacity() + 3);
  AtpgOptions options;
  options.random_batches = 0;  // every fault reaches phase 2
  options.num_threads = 1;
  const AtpgResult cold = run_atpg(renumbered.f.nl, renumbered.universe,
                                   renumbered.udfm, options);
  ASSERT_GT(cold.num_undetectable, 0u);
  ASSERT_EQ(cold.num_aborted, 0u);

  FaultSimArena arena;
  options.arena = &arena;
  (void)run_atpg(original.f.nl, original.universe, original.udfm, options);
  const AtpgResult warm = run_atpg(renumbered.f.nl, renumbered.universe,
                                   renumbered.udfm, options);
  EXPECT_GT(warm.counters.proof_memo_hits, cold.counters.proof_memo_hits);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.tests, cold.tests);
}

TEST(ProofMemo, LiteralFreeProofAnswersLaterCallsOnTheVictim) {
  // v = AND(p, q) feeds y = AND(v, s) -> PO, where the side input
  // s = OR(OR(z0, z1), OR(z2, z3)) with zi = XOR(xi, BUF(xi)) is the
  // constant 0: nothing on v is observable. PODEM cannot see the
  // constant within its handoff budget (it backtracks over every xi
  // trying to raise s), so SAT proves the first wired-AND bridge on v
  // undetectable, and that proof reads nothing of its aggressor. The
  // second bridge, with another aggressor and so another literal, is
  // then a hit on the cone key: no PODEM pass and no SAT call.
  Fixture f;
  UdfmMap udfm(*lib());
  const NetId p = f.nl.add_primary_input();
  const NetId q = f.nl.add_primary_input();
  const NetId a0 = f.nl.add_primary_input();
  const NetId a1 = f.nl.add_primary_input();
  NetId z[4];
  for (NetId& zi : z) {
    const NetId x = f.nl.add_primary_input();
    zi = f.out(f.add("XOR2X1", {x, f.out(f.add("BUFX2", {x}))}));
  }
  const NetId s = f.out(f.add("OR2X2", {f.out(f.add("OR2X2", {z[0], z[1]})),
                                        f.out(f.add("OR2X2", {z[2], z[3]}))}));
  const NetId v = f.out(f.add("AND2X2", {p, q}));
  f.nl.mark_primary_output(f.out(f.add("AND2X2", {v, s})));
  f.nl.mark_primary_output(a0);
  f.nl.mark_primary_output(a1);
  const auto bridge = [&](NetId aggressor) {
    Fault fault;
    fault.kind = FaultKind::Bridge;
    fault.victim = v;
    fault.aggressor = aggressor;
    fault.bridge_type = BridgeType::DomAnd;  // literal aggressor = 0
    return fault;
  };
  AtpgOptions options;
  options.random_batches = 0;  // every fault reaches phase 2
  options.num_threads = 1;
  FaultUniverse first;
  first.faults = {bridge(a0)};
  FaultUniverse both;
  both.faults = {bridge(a0), bridge(a1)};
  const AtpgResult one = run_atpg(f.nl, first, udfm, options);
  const AtpgResult two = run_atpg(f.nl, both, udfm, options);
  ASSERT_EQ(one.num_undetectable, 1u);
  ASSERT_EQ(two.num_undetectable, 2u);
  EXPECT_EQ(one.counters.sat_undetectable, 1u);
  EXPECT_EQ(one.counters.proof_memo_hits, 0u);
  EXPECT_EQ(two.counters.sat_calls, one.counters.sat_calls);
  EXPECT_EQ(two.counters.proof_memo_hits, 1u);
  EXPECT_EQ(two.counters.cone_proof_hits, 1u);
  EXPECT_GT(one.counters.podem_backtracks, 0u);
  EXPECT_EQ(two.counters.podem_backtracks, one.counters.podem_backtracks);
}

TEST(ProofMemo, ExpiredCancelStoresNothing) {
  Absorbed blk;
  FaultSimArena arena;
  CancelToken cancel;
  cancel.cancel();
  AtpgOptions options;
  options.random_batches = 0;  // every fault reaches phase 2
  options.arena = &arena;
  options.cancel = &cancel;
  const AtpgResult r = run_atpg(blk.f.nl, blk.universe, blk.udfm, options);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(arena.proof_memo().size(), 0u);
  EXPECT_EQ(r.counters.proof_memo_hits, 0u);
  // The same run, not cancelled, stores its proofs.
  options.cancel = nullptr;
  (void)run_atpg(blk.f.nl, blk.universe, blk.udfm, options);
  EXPECT_GT(arena.proof_memo().size(), 0u);
}

}  // namespace
}  // namespace dfmres
