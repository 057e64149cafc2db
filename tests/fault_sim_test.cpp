// Fault-simulation kernel and engine output checks. Detection masks are
// checked exactly on a tail-lane toy circuit and against a per-lane
// brute-force oracle on excitations drawn from real DFM fault
// universes, including queries that would read a stale observability
// memo after a reload. The cold engine's statuses and test patterns on
// two real blocks are pinned to recorded hashes, so a change to how
// phase 1 consumes the rng or credits pattern lanes shows up as a hash
// mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/atpg/engine.hpp"
#include "src/atpg/excitation.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/circuits/benchmarks.hpp"
#include "src/core/flow.hpp"
#include "src/dfm/checker.hpp"
#include "src/layout/floorplan.hpp"
#include "src/library/osu018.hpp"
#include "src/netlist/extract.hpp"
#include "src/synth/mapper.hpp"
#include "src/util/rng.hpp"

namespace dfmres {
namespace {

std::shared_ptr<const Library> lib() {
  static auto l = osu018_library();
  return l;
}

GateId add_gate(Netlist& nl, const char* cell,
                std::initializer_list<NetId> ins) {
  const std::vector<NetId> fanins(ins);
  return nl.add_gate(lib()->require(cell), fanins);
}

/// Mapped, placed and routed Table-II block with its DFM fault universe
/// (no ATPG).
struct RealBlock {
  Netlist nl;
  FaultUniverse universe;
};

RealBlock real_block(const char* name, const UdfmMap& udfm) {
  const Netlist rtl = build_benchmark(name).value();
  Netlist mapped =
      technology_map(rtl, lib(), macro_map_options(rtl.library(), *lib()))
          .value();
  const FlowOptions fopts;
  const Placement pl = global_place(
      mapped, make_floorplan(mapped, fopts.utilization), fopts.place);
  const RoutingResult routes = route(mapped, pl, fopts.route);
  FaultUniverse universe = extract_dfm_faults(mapped, pl, routes, udfm);
  return {std::move(mapped), std::move(universe)};
}

TEST(SimdKernel, TailLanesExactMask) {
  // AND output SA0 is detected exactly on lanes where both inputs are 1
  // — the even lanes of this pattern set — and never beyond the loaded
  // tail.
  Netlist nl(lib(), "tail");
  const NetId a = nl.add_primary_input();
  const NetId b = nl.add_primary_input();
  const GateId g = add_gate(nl, "AND2X2", {a, b});
  nl.mark_primary_output(nl.gate(g).outputs[0]);
  const CombView view = CombView::build(nl);

  Excitation exc;
  exc.victim = nl.gate(g).outputs[0];
  exc.faulty_value = false;
  const Excitation excs[] = {exc};

  FaultSimulator sim(nl, view);
  for (const std::size_t count : {1, 63, 64}) {
    std::vector<TestPattern> tests(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t v = i % 2 == 0;
      tests[i].frame0 = {v, v};
      tests[i].frame1 = {v, v};
    }
    sim.load(tests, 0, count);
    ASSERT_EQ(sim.lanes(), static_cast<int>(count));
    std::uint64_t expected = 0x5555555555555555ULL;
    if (count < 64) expected &= (1ULL << count) - 1;
    EXPECT_EQ(sim.detect_mask(excs), expected) << "count " << count;
  }
}

/// Per-lane reference for detect_mask, sharing nothing with the kernel
/// but the DenseView's gate rows: each pattern's good machine is
/// evaluated gate by gate in topological order, one bool per net; for
/// an excitation whose literals hold and whose victim's good value
/// opposes the forced value, the faulty machine re-evaluates the
/// victim's forward cone (found by a topological scan of fanin rows)
/// with the victim forced, and the pattern detects when any observe_flag
/// net differs.
class LaneOracle {
 public:
  LaneOracle(const DenseView& v, std::span<const TestPattern> patterns)
      : v_(v) {
    for (const TestPattern& t : patterns) {
      good0_.push_back(eval(t.frame0));
      good1_.push_back(eval(t.frame1));
    }
  }

  /// Whether pattern `p` detects a fault with these excitations.
  bool detects(std::span<const Excitation> excs, std::size_t p) {
    for (const Excitation& exc : excs) {
      bool active = true;
      for (const CondLiteral& lit : exc.lits) {
        const auto& frame = lit.frame == 0 ? good0_[p] : good1_[p];
        active = active && (frame[lit.net.value()] != 0) == lit.value;
      }
      const std::uint32_t victim = exc.victim.value();
      if (!active || (good1_[p][victim] != 0) == exc.faulty_value) continue;
      if (observed(victim, p)) return true;
    }
    return false;
  }

 private:
  std::vector<std::uint8_t> eval(const std::vector<std::uint8_t>& frame) {
    std::vector<std::uint8_t> val(v_.net_slots, 0);
    for (std::size_t s = 0; s < v_.sources.size(); ++s) {
      val[v_.sources[s]] = frame[s];
    }
    for (std::uint32_t gs : v_.order) eval_gate(gs, val);
    return val;
  }

  void eval_gate(std::uint32_t gs, std::vector<std::uint8_t>& val) const {
    std::uint32_t pattern = 0;
    for (std::uint32_t i = v_.fanin_offset[gs]; i < v_.fanin_offset[gs + 1];
         ++i) {
      if (val[v_.fanin_net[i]]) pattern |= 1u << (i - v_.fanin_offset[gs]);
    }
    for (std::uint32_t o = v_.output_offset[gs]; o < v_.output_offset[gs + 1];
         ++o) {
      val[v_.output_net[o]] =
          v_.cell[gs]->eval(static_cast<int>(o - v_.output_offset[gs]),
                            pattern);
    }
  }

  /// Flipping `victim` in pattern p changes an observation point
  /// (cached per victim and pattern: each query shape re-asks them).
  bool observed(std::uint32_t victim, std::size_t p) {
    std::vector<std::int8_t>& known = observed_[victim];
    if (known.empty()) known.assign(good1_.size(), -1);
    if (known[p] < 0) known[p] = resimulate(victim, p) ? 1 : 0;
    return known[p] != 0;
  }

  bool resimulate(std::uint32_t victim, std::size_t p) {
    const std::vector<std::uint32_t>& cone = cone_of(victim);
    std::vector<std::uint8_t> val = good1_[p];
    val[victim] ^= 1;
    bool diff = v_.observe_flag[victim] != 0;
    for (std::uint32_t gs : cone) {
      eval_gate(gs, val);
      for (std::uint32_t o = v_.output_offset[gs];
           o < v_.output_offset[gs + 1]; ++o) {
        const std::uint32_t n = v_.output_net[o];
        diff = diff || (v_.observe_flag[n] && val[n] != good1_[p][n]);
      }
    }
    return diff;
  }

  const std::vector<std::uint32_t>& cone_of(std::uint32_t victim) {
    auto it = cones_.find(victim);
    if (it != cones_.end()) return it->second;
    std::vector<std::uint8_t> in_cone(v_.net_slots, 0);
    in_cone[victim] = 1;
    std::vector<std::uint32_t> cone;
    for (std::uint32_t gs : v_.order) {
      bool reads = false;
      for (std::uint32_t i = v_.fanin_offset[gs]; i < v_.fanin_offset[gs + 1];
           ++i) {
        reads = reads || in_cone[v_.fanin_net[i]];
      }
      if (!reads) continue;
      cone.push_back(gs);
      for (std::uint32_t o = v_.output_offset[gs];
           o < v_.output_offset[gs + 1]; ++o) {
        in_cone[v_.output_net[o]] = 1;
      }
    }
    return cones_.emplace(victim, std::move(cone)).first->second;
  }

  const DenseView& v_;
  std::vector<std::vector<std::uint8_t>> good0_, good1_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> cones_;
  std::unordered_map<std::uint32_t, std::vector<std::int8_t>> observed_;
};

/// Random two-frame patterns over the view's sources.
std::vector<TestPattern> random_patterns(const DenseView& v, std::size_t n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestPattern> out(n);
  for (TestPattern& t : out) {
    t.frame0 = random_sim_frame(v.sources.size(), rng);
    t.frame1 = random_sim_frame(v.sources.size(), rng);
  }
  return out;
}

/// Excitation sets of `per_kind` faults of every fault kind, drawn with
/// a seeded rng from the universe.
std::vector<std::vector<Excitation>> sample_faults(const RealBlock& blk,
                                                   const UdfmMap& udfm,
                                                   std::size_t per_kind,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Excitation>> out;
  for (const FaultKind kind :
       {FaultKind::StuckAt, FaultKind::Transition, FaultKind::Bridge,
        FaultKind::CellAware}) {
    std::vector<std::size_t> of_kind;
    for (std::size_t i = 0; i < blk.universe.size(); ++i) {
      if (blk.universe.faults[i].kind == kind) of_kind.push_back(i);
    }
    EXPECT_FALSE(of_kind.empty()) << blk.nl.name() << " kind "
                                  << static_cast<int>(kind);
    for (std::size_t k = 0; k < per_kind && !of_kind.empty(); ++k) {
      const Fault& f = blk.universe.faults[of_kind[rng.below(of_kind.size())]];
      out.push_back(build_excitations(f, blk.nl, udfm));
    }
  }
  return out;
}

/// Checks sim's masks for every fault against the oracle; sim holds
/// patterns [first, first + sim.lanes()) of the oracle's pattern set.
/// Returns the number of detected (fault, lane) pairs; stops at the
/// first mismatch.
std::size_t expect_oracle_masks(FaultSimulator& sim, LaneOracle& oracle,
                                const std::vector<std::vector<Excitation>>& faults,
                                std::size_t first, const std::string& label) {
  std::size_t detections = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const std::uint64_t m = sim.detect_mask(faults[f]);
    for (int lane = 0; lane < sim.lanes(); ++lane) {
      const bool got = (m >> lane) & 1u;
      const bool want =
          oracle.detects(faults[f], first + static_cast<std::size_t>(lane));
      detections += want ? 1 : 0;
      if (got != want) {
        ADD_FAILURE() << label << " fault " << f << " lane " << lane
                      << ": kernel " << got << ", oracle " << want;
        return detections;
      }
    }
  }
  return detections;
}

TEST(SimdKernel, MasksMatchBruteForceOracleOnRealUniverses) {
  const UdfmMap udfm(*lib());
  std::size_t excitations = 0;
  for (const char* name : {"tv80", "sparc_tlu"}) {
    const RealBlock blk = real_block(name, udfm);
    const auto view = DenseView::build_shared(blk.nl, CombView::build(blk.nl));
    const auto faults = sample_faults(blk, udfm, 250, 7);
    for (const auto& excs : faults) excitations += excs.size();
    // One pattern pool serves every shape: a batch of `count` lanes
    // loaded at 0 holds pool patterns [0, count).
    const auto patterns = random_patterns(*view, 64, 11);
    LaneOracle oracle(*view, patterns);
    FaultSimulator sim(view);
    std::size_t detections = 0;
    for (const std::size_t count : {1, 63, 64}) {
      sim.load(patterns, 0, count);
      const std::string label =
          std::string(name) + " " + std::to_string(count) + " lanes";
      detections += expect_oracle_masks(sim, oracle, faults, 0, label);
      if (HasFailure()) return;
      // A second pass over the same batch is answered from the memo.
      const std::uint64_t waves = sim.obs_propagations();
      expect_oracle_masks(sim, oracle, faults, 0, label + " (memo)");
      if (HasFailure()) return;
      EXPECT_EQ(sim.obs_propagations(), waves) << label;
    }
    EXPECT_GT(detections, 0u) << name;
    EXPECT_GT(sim.obs_propagations(), 0u);
    EXPECT_LE(sim.obs_propagations(), sim.propagation_events());
  }
  EXPECT_GE(excitations, 2000u);
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
  auto mapped = technology_map(sub.circuit, lib(), mo);
  EXPECT_TRUE(mapped.has_value());
  EXPECT_TRUE(replace_region(edited, sub, *mapped).has_value());
  return edited;
}

TEST(SimdKernel, ReloadsNeverServeStaleObservability) {
  // Every reload path must drop the memo: query each victim on one
  // batch, reload different good values, and query the same victims
  // again against the oracle of the new batch.
  const UdfmMap udfm(*lib());
  const RealBlock blk = real_block("sparc_tlu", udfm);
  const auto faults = sample_faults(blk, udfm, 40, 5);
  const auto view = DenseView::build_shared(blk.nl, CombView::build(blk.nl));
  const auto patterns = random_patterns(*view, 103, 13);
  LaneOracle oracle(*view, patterns);

  // A candidate one gate away from the committed design, overlaid onto
  // the committed design's baseline frames.
  const Netlist edited = remap_one_gate(blk.nl);
  const auto cand_view =
      DenseView::build_shared(edited, CombView::build(edited));
  const std::vector<TestPattern> seeds(patterns.begin() + 3,
                                       patterns.begin() + 3 + 100);
  LaneOracle cand_oracle(*cand_view, seeds);
  const auto cand_full = random_patterns(*cand_view, 100, 17);
  LaneOracle cand_full_oracle(*cand_view, cand_full);
  const std::size_t count = 64;

  // A different full load.
  FaultSimulator sim(view);
  sim.load(patterns, 0, count);
  expect_oracle_masks(sim, oracle, faults, 0, "load@0");
  sim.load(patterns, 5, count);
  expect_oracle_masks(sim, oracle, faults, 5, "load@5");
  if (HasFailure()) return;

  // A worker adopting the master's batch, before and after the master
  // reloads.
  FaultSimulator master(view);
  FaultSimulator worker(view);
  master.load(patterns, 1, count);
  worker.load_from(master);
  expect_oracle_masks(worker, oracle, faults, 1, "worker@1");
  master.load(patterns, 2, count);
  worker.load_from(master);
  expect_oracle_masks(worker, oracle, faults, 2, "worker@2");
  if (HasFailure()) return;

  // An overlay load after a one-gate remap, following a full load of
  // other patterns on the same simulator.
  const SimBaseline base = build_sim_baseline(blk.nl, seeds);
  const CowPlan plan = build_cow_plan(*cand_view, *base.view);
  ASSERT_TRUE(plan.valid);
  FaultSimulator cand(cand_view);
  cand.load(cand_full, 0, cand_full.size());
  expect_oracle_masks(cand, cand_full_oracle, faults, 0,
                      "candidate full load");
  cand.load_baseline(base, plan, 0,
                     static_cast<std::size_t>(base.batches[0].lanes));
  EXPECT_EQ(cand.overlay_loads(), 1u);
  expect_oracle_masks(cand, cand_oracle, faults, 0, "candidate overlay load");
}

/// Order-sensitive digest of a run's statuses, in universe order.
std::uint64_t status_hash(const AtpgResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const FaultStatus s : r.status) {
    h ^= static_cast<std::uint64_t>(s);
    h *= 1099511628211ull;
  }
  return h;
}

/// Cold default-option run_atpg on `block` at 1 and 4 threads; `check`
/// sees each result.
template <typename Check>
void for_each_cold_run(const char* block, const Check& check) {
  const UdfmMap udfm(*lib());
  const RealBlock blk = real_block(block, udfm);
  for (const int threads : {1, 4}) {
    AtpgOptions options;
    options.num_threads = threads;
    const AtpgResult r = run_atpg(blk.nl, blk.universe, udfm, options);
    ASSERT_EQ(r.status.size(), blk.universe.size());
    check(r, threads);
  }
}

TEST(EnginePinned, StatusOrderMatchesRecordedHash) {
  // Statuses are hashed in universe order, so these also pin the
  // extractor's canonical fault order; identical for every thread count.
  // Which engine proves a verdict may change; the verdicts may not.
  const struct {
    const char* block;
    std::uint64_t hash;
  } kPinned[] = {
      {"sparc_tlu", 0xe5290e77de6851e6ull},
      {"tv80", 0xe2f0942e904d8d4dull},
  };
  for (const auto& pin : kPinned) {
    for_each_cold_run(pin.block, [&](const AtpgResult& r, int threads) {
      EXPECT_EQ(status_hash(r), pin.hash)
          << pin.block << " at " << threads << " threads: 0x" << std::hex
          << status_hash(r);
    });
  }
}

TEST(EnginePinned, ColdRunOutputMatchesRecordedHash) {
  // The compacted test set, in order. It moves whenever a search engine
  // concretizes a different pattern (a SAT model is not a PODEM cube),
  // so it is re-recorded on purpose when the phase-2 pipeline changes;
  // it is identical for every thread count.
  const struct {
    const char* block;
    std::uint64_t hash;
  } kPinned[] = {
      {"sparc_tlu", 0x4827125d8d472cc6ull},
      {"tv80", 0x3c1fbd19df002ac9ull},
  };
  for (const auto& pin : kPinned) {
    for_each_cold_run(pin.block, [&](const AtpgResult& r, int threads) {
      EXPECT_FALSE(r.tests.empty()) << pin.block;
      EXPECT_EQ(seed_tests_hash(r.tests), pin.hash)
          << pin.block << " at " << threads << " threads: 0x" << std::hex
          << seed_tests_hash(r.tests);
    });
  }
}

/// Order-independent: FNV-1a over the sorted (fault key, status) pairs,
/// so it holds however the extractor orders the universe as long as
/// every fault keeps its verdict.
std::uint64_t verdict_multiset_hash(const FaultUniverse& universe,
                                    const AtpgResult& r) {
  using Pair = std::pair<std::vector<std::uint64_t>, int>;
  std::vector<Pair> pairs;
  pairs.reserve(r.status.size());
  for (std::size_t i = 0; i < r.status.size(); ++i) {
    const Fault::Key k = universe.faults[i].key();
    pairs.push_back({{k.kind, k.bridge_type, k.victim, k.aggressor, k.owner,
                      k.udfm_index, k.value},
                     static_cast<int>(r.status[i])});
  }
  std::sort(pairs.begin(), pairs.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& [key, status] : pairs) {
    for (const std::uint64_t field : key) {
      h ^= field;
      h *= 1099511628211ull;
    }
    h ^= static_cast<std::uint64_t>(status);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(EnginePinned, VerdictMultisetMatchesRecordedHash) {
  // A cold default-option run_atpg.
  const struct {
    const char* block;
    std::uint64_t hash;
  } kPinned[] = {
      {"sparc_tlu", 0xe43c73b628bbc8c4ull},
      {"tv80", 0x7a7cf0b205ad04c0ull},
  };
  const UdfmMap udfm(*lib());
  for (const auto& pin : kPinned) {
    const RealBlock blk = real_block(pin.block, udfm);
    const AtpgResult r = run_atpg(blk.nl, blk.universe, udfm, {});
    ASSERT_EQ(r.status.size(), blk.universe.size());
    const std::uint64_t h = verdict_multiset_hash(blk.universe, r);
    EXPECT_EQ(h, pin.hash) << pin.block << ": 0x" << std::hex << h;
  }
}

TEST(EnginePinned, TwelveFlowVerdictMultisetMatchesRecordedHash) {
  // `dfmres flow` on every Table-II block: the verdict multisets of the
  // 12 run_initial calls, folded in block order into one hash.
  FlowOptions options;
  options.atpg.num_threads = 1;
  std::uint64_t h = 14695981039346656037ull;
  for (const auto name : benchmark_names()) {
    DesignFlow flow(lib(), options);
    const auto state = flow.run_initial(build_benchmark(name).value());
    ASSERT_TRUE(state.has_value()) << name;
    ASSERT_EQ(state->atpg.status.size(), state->universe.size()) << name;
    h ^= verdict_multiset_hash(state->universe, state->atpg);
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 0xf8ef8bc1aa3b54a2ull) << "0x" << std::hex << h;
}

}  // namespace
}  // namespace dfmres
