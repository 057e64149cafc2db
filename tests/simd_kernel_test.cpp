// W-sweep bit-identity suite for the SimWord fault-sim kernels: every
// mode (scalar, portable 4/8-word, AVX2, AVX-512, auto) must produce
// detection masks bit-identical per 64-lane group to the scalar kernel,
// for full batches and for every tail shape (1, 63, W*64-1 lanes).
// Also pins the dispatch table (parse/resolve/width invariants), the
// PortableWord operations, and end-to-end run_atpg identity across
// modes — cold, warm-start + overlay-baseline, and one tv80-sized run.
// A per-lane brute-force oracle checks the masks themselves (not just
// cross-mode agreement) on excitations drawn from real DFM fault
// universes, including queries that would read a stale observability
// memo after a reload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <set>
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
#include "src/sim/sim_word.hpp"
#include "src/sim/simd_dispatch.hpp"
#include "src/synth/mapper.hpp"
#include "src/util/rng.hpp"

namespace dfmres {
namespace {

std::shared_ptr<const Library> lib() {
  static auto l = osu018_library();
  return l;
}

/// Every requestable mode; resolution maps unsupported ISA modes onto
/// the portable kernel of the same width, so the whole list is runnable
/// on any machine.
GateId add_gate(Netlist& nl, const char* cell,
                std::initializer_list<NetId> ins) {
  const std::vector<NetId> fanins(ins);
  return nl.add_gate(lib()->require(cell), fanins);
}

constexpr SimdMode kAllModes[] = {
    SimdMode::kScalar, SimdMode::kPortable4, SimdMode::kPortable8,
    SimdMode::kAvx2,   SimdMode::kAvx512,    SimdMode::kAuto,
};

/// Temporarily pins the process-wide kernel request; restores on scope
/// exit so test order cannot leak a mode into unrelated tests.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode) : saved_(global_simd_mode()) {
    set_global_simd_mode(mode);
  }
  ~ScopedSimdMode() { set_global_simd_mode(saved_); }
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  SimdMode saved_;
};

// ---------------------------------------------------------------------------
// Word operations

template <int W>
void check_portable_word_ops(std::uint64_t seed) {
  Rng rng(seed);
  using Word = PortableWord<W>;
  std::uint64_t a[W], b[W], got[W];
  for (int i = 0; i < W; ++i) {
    a[i] = rng.next();
    b[i] = rng.next();
  }
  const Word wa = Word::load(a);
  const Word wb = Word::load(b);

  wa.store(got);
  for (int i = 0; i < W; ++i) EXPECT_EQ(got[i], a[i]) << "load/store " << i;
  (wa & wb).store(got);
  for (int i = 0; i < W; ++i) EXPECT_EQ(got[i], a[i] & b[i]) << "and " << i;
  (wa | wb).store(got);
  for (int i = 0; i < W; ++i) EXPECT_EQ(got[i], a[i] | b[i]) << "or " << i;
  (wa ^ wb).store(got);
  for (int i = 0; i < W; ++i) EXPECT_EQ(got[i], a[i] ^ b[i]) << "xor " << i;
  (~wa).store(got);
  for (int i = 0; i < W; ++i) EXPECT_EQ(got[i], ~a[i]) << "not " << i;
  wa.andnot(wb).store(got);
  for (int i = 0; i < W; ++i) EXPECT_EQ(got[i], a[i] & ~b[i]) << "andnot " << i;

  EXPECT_TRUE(Word::zero().none());
  EXPECT_FALSE(Word::ones().none());
  EXPECT_TRUE(wa == wa);
  EXPECT_FALSE(wa == wb);  // astronomically unlikely to collide
  EXPECT_TRUE((wa ^ wa).none());

  // A single bit anywhere must defeat none()/equality.
  std::uint64_t one_bit[W] = {};
  one_bit[W - 1] = 1ULL << 63;
  EXPECT_FALSE(Word::load(one_bit).none());
  EXPECT_FALSE(Word::load(one_bit) == Word::zero());
}

TEST(SimWord, PortableOpsMatchScalarReference) {
  check_portable_word_ops<1>(101);
  check_portable_word_ops<4>(202);
  check_portable_word_ops<8>(303);
}

// ---------------------------------------------------------------------------
// Dispatch invariants

TEST(SimdDispatch, ParseRoundTripsEverySpelling) {
  for (const SimdMode mode : kAllModes) {
    const auto parsed = parse_simd_mode(simd_mode_name(mode));
    ASSERT_TRUE(parsed.has_value()) << simd_mode_name(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_simd_mode("").has_value());
  EXPECT_FALSE(parse_simd_mode("sse2").has_value());
  EXPECT_FALSE(parse_simd_mode("avx").has_value());
}

TEST(SimdDispatch, ResolveNeverReturnsAutoAndKeepsWidths) {
  for (const SimdMode mode : kAllModes) {
    const SimdMode resolved = resolve_simd_mode(mode);
    EXPECT_NE(resolved, SimdMode::kAuto) << simd_mode_name(mode);
    // Resolving is idempotent.
    EXPECT_EQ(resolve_simd_mode(resolved), resolved);
  }
  // Portable kernels are always available verbatim.
  EXPECT_EQ(resolve_simd_mode(SimdMode::kScalar), SimdMode::kScalar);
  EXPECT_EQ(resolve_simd_mode(SimdMode::kPortable4), SimdMode::kPortable4);
  EXPECT_EQ(resolve_simd_mode(SimdMode::kPortable8), SimdMode::kPortable8);
  // ISA requests keep their lane width even when degraded to portable.
  EXPECT_EQ(simd_mode_words(resolve_simd_mode(SimdMode::kAvx2)), 4);
  EXPECT_EQ(simd_mode_words(resolve_simd_mode(SimdMode::kAvx512)), 8);
  // Auto picks a wide kernel (at least 4 words) on every build.
  EXPECT_GE(simd_mode_words(resolve_simd_mode(SimdMode::kAuto)), 4);
  // ISA kernels only resolve to themselves when the CPU has the feature.
  if (!cpu_supports_avx2()) {
    EXPECT_EQ(resolve_simd_mode(SimdMode::kAvx2), SimdMode::kPortable4);
  }
  if (!cpu_supports_avx512()) {
    EXPECT_EQ(resolve_simd_mode(SimdMode::kAvx512), SimdMode::kPortable8);
  }
}

TEST(SimdDispatch, SimulatorReportsResolvedKernel) {
  Netlist nl(lib(), "disp");
  const NetId a = nl.add_primary_input();
  const GateId g = add_gate(nl, "INVX1", {a});
  nl.mark_primary_output(nl.gate(g).outputs[0]);
  const CombView view = CombView::build(nl);
  for (const SimdMode mode : kAllModes) {
    const SimdMode resolved = resolve_simd_mode(mode);
    ScopedSimdMode scope(mode);
    FaultSimulator sim(nl, view);
    EXPECT_STREQ(sim.kernel_name(), simd_mode_name(resolved));
    EXPECT_EQ(sim.words(), simd_mode_words(resolved));
    EXPECT_EQ(sim.lane_capacity(), 64 * simd_mode_words(resolved));
  }
}

// ---------------------------------------------------------------------------
// W-sweep bit identity on synthetic blocks

struct Block {
  Netlist nl{lib(), "simd"};
  std::vector<Excitation> excs;
  std::vector<TestPattern> tests;
};

/// Random mapped block in the style of the atpg_test fixtures: 8 PIs, 40
/// gates over a mixed cell set, 4 POs, stuck-at excitations on every
/// internal net, and `num_tests` fully random two-frame patterns.
Block build_block(std::uint64_t seed, std::size_t num_tests) {
  Block blk;
  Rng rng(977 * seed + 11);
  std::vector<NetId> nets;
  for (int i = 0; i < 8; ++i) nets.push_back(blk.nl.add_primary_input());
  const char* kCells[] = {"NAND2X1", "NOR2X1", "XOR2X1",
                          "AOI22X1", "INVX1",  "AND2X2"};
  for (int i = 0; i < 40; ++i) {
    const CellId cell = lib()->require(kCells[rng.below(6)]);
    const CellSpec& spec = lib()->cell(cell);
    std::vector<NetId> fanins;
    for (int j = 0; j < spec.num_inputs; ++j) {
      fanins.push_back(nets[nets.size() - 1 -
                            rng.below(std::min<std::size_t>(nets.size(), 12))]);
    }
    nets.push_back(blk.nl.gate(blk.nl.add_gate(cell, fanins)).outputs[0]);
  }
  for (int i = 0; i < 4; ++i) {
    blk.nl.mark_primary_output(nets[nets.size() - 1 - i]);
  }

  for (std::size_t i = 8; i < nets.size(); ++i) {
    for (const bool fv : {false, true}) {
      Excitation exc;
      exc.victim = nets[i];
      exc.faulty_value = fv;
      blk.excs.push_back(exc);
    }
  }

  const CombView view = CombView::build(blk.nl);
  for (std::size_t t = 0; t < num_tests; ++t) {
    TestPattern p;
    p.frame0 = random_sim_frame(view.sources.size(), rng);
    p.frame1 = random_sim_frame(view.sources.size(), rng);
    blk.tests.push_back(std::move(p));
  }
  return blk;
}

/// Classifies every excitation over every test lane under `mode`,
/// batching at the mode's own lane capacity, and returns the detection
/// bits re-based onto global 64-lane groups: entry e*total_groups + g
/// holds lanes [64g, 64g+64) of excitation e. Identical for every mode
/// by the bit-identity contract.
std::vector<std::uint64_t> detect_bits(SimdMode mode, const Netlist& nl,
                                       const CombView& view,
                                       std::span<const TestPattern> tests,
                                       std::span<const Excitation> excs) {
  ScopedSimdMode scope(mode);
  FaultSimulator sim(nl, view);
  const std::size_t cap = static_cast<std::size_t>(sim.lane_capacity());
  const std::size_t total_groups = (tests.size() + 63) / 64;
  std::vector<std::uint64_t> out(excs.size() * total_groups, 0);
  for (std::size_t first = 0; first < tests.size(); first += cap) {
    const std::size_t count = std::min(cap, tests.size() - first);
    sim.load(tests, first, count);
    EXPECT_EQ(sim.lanes(), static_cast<int>(count));
    EXPECT_EQ(sim.groups(), static_cast<int>((count + 63) / 64));
    const std::size_t base = first / 64;
    for (std::size_t e = 0; e < excs.size(); ++e) {
      std::uint64_t m[kMaxSimWords] = {};
      sim.detect_masks(excs.subspan(e, 1), m);
      for (int g = 0; g < sim.groups(); ++g) {
        out[e * total_groups + base + static_cast<std::size_t>(g)] = m[g];
      }
    }
  }
  return out;
}

TEST(SimdKernel, WSweepBitIdentityTwelveBlocks) {
  // One pattern count per block, covering full batches and the tail
  // shapes the issue calls out: 1, 63, and W*64-1 for W in {1, 4, 8}
  // (63 / 255 / 511), plus assorted mid-batch tails.
  const std::size_t kCounts[12] = {1,   63,  64,  65,  100, 127,
                                   255, 256, 320, 511, 512, 3};
  for (std::uint64_t blkno = 0; blkno < 12; ++blkno) {
    const Block blk = build_block(blkno, kCounts[blkno]);
    const CombView view = CombView::build(blk.nl);
    const auto ref =
        detect_bits(SimdMode::kScalar, blk.nl, view, blk.tests, blk.excs);
    // The random blocks must actually exercise detection, not just agree
    // on all-zero masks.
    EXPECT_TRUE(std::any_of(ref.begin(), ref.end(),
                            [](std::uint64_t m) { return m != 0; }))
        << "block " << blkno;
    for (const SimdMode mode : kAllModes) {
      if (mode == SimdMode::kScalar) continue;
      EXPECT_EQ(detect_bits(mode, blk.nl, view, blk.tests, blk.excs), ref)
          << simd_mode_name(mode) << " diverges on block " << blkno << " ("
          << kCounts[blkno] << " lanes)";
    }
  }
}

TEST(SimdKernel, TailLanesExactMaskEveryMode) {
  // Ground-truth check (not just cross-mode agreement): AND output SA0
  // is detected exactly on lanes where both inputs are 1 — the even
  // lanes of this pattern set — and never beyond the loaded tail.
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

  for (const SimdMode mode : kAllModes) {
    ScopedSimdMode scope(mode);
    FaultSimulator sim(nl, view);
    const std::size_t cap = static_cast<std::size_t>(sim.lane_capacity());
    const std::set<std::size_t> counts = {1, 63, cap - 1, cap};
    for (const std::size_t count : counts) {
      std::vector<TestPattern> tests(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t v = i % 2 == 0;
        tests[i].frame0 = {v, v};
        tests[i].frame1 = {v, v};
      }
      sim.load(tests, 0, count);
      ASSERT_EQ(sim.lanes(), static_cast<int>(count));
      std::uint64_t m[kMaxSimWords] = {};
      sim.detect_masks(excs, m);
      for (int grp = 0; grp < sim.groups(); ++grp) {
        const std::size_t lanes_in_group =
            std::min<std::size_t>(64, count - 64 * grp);
        std::uint64_t expected = 0x5555555555555555ULL;
        if (lanes_in_group < 64) {
          expected &= (1ULL << lanes_in_group) - 1;
        }
        EXPECT_EQ(m[grp], expected)
            << simd_mode_name(mode) << " count " << count << " group " << grp;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Brute-force oracle on real fault universes

/// Mapped, placed and routed Table-II block with its DFM fault universe
/// (no ATPG: the oracle suite only needs excitations).
struct RealBlock {
  Netlist nl;
  FaultUniverse universe;
};

RealBlock real_block(const char* name, const UdfmMap& udfm) {
  const Netlist rtl = build_benchmark(name).value();
  // Same macro pinning as DesignFlow::run_initial.
  MapOptions mo;
  for (const auto& [src, dst] : {std::pair{"DFF", "DFFPOSX1"},
                                 std::pair{"FA", "FAX1"},
                                 std::pair{"HA", "HAX1"}}) {
    const auto s = rtl.library().find(src);
    const auto d = lib()->find(dst);
    if (s && d) mo.fixed_map.emplace(s->value(), *d);
  }
  Netlist mapped = technology_map(rtl, lib(), mo).value();
  const FlowOptions fopts;
  const Placement pl = global_place(
      mapped, make_floorplan(mapped, fopts.utilization), fopts.place);
  const RoutingResult routes = route(mapped, pl, fopts.route);
  FaultUniverse universe = extract_dfm_faults(mapped, pl, routes, udfm);
  return {std::move(mapped), std::move(universe)};
}

/// Per-lane reference for detect_masks, sharing nothing with the kernel
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
    std::uint64_t m[kMaxSimWords] = {};
    sim.detect_masks(faults[f], m);
    for (int lane = 0; lane < sim.lanes(); ++lane) {
      const bool got = (m[lane / 64] >> (lane % 64)) & 1u;
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
    // loaded at `first` holds pool patterns [first, first + count).
    const std::size_t pool = 64 * kMaxSimWords + 1;
    const auto patterns = random_patterns(*view, pool, 11);
    LaneOracle oracle(*view, patterns);
    for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAuto}) {
      ScopedSimdMode scope(mode);
      FaultSimulator sim(view);
      const std::size_t cap = static_cast<std::size_t>(sim.lane_capacity());
      std::size_t detections = 0;
      for (const std::size_t count : std::set<std::size_t>{1, 63, 64, 65, cap}) {
        if (count > cap) continue;
        sim.load(patterns, 0, count);
        const std::string label = std::string(name) + " " +
                                  simd_mode_name(mode) + " " +
                                  std::to_string(count) + " lanes";
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
  const auto patterns = random_patterns(*view, 64 * kMaxSimWords + 7, 13);
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

  for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAuto}) {
    ScopedSimdMode scope(mode);
    const std::string tag = simd_mode_name(mode);
    const std::size_t count = 64;

    // A different full load.
    FaultSimulator sim(view);
    sim.load(patterns, 0, count);
    expect_oracle_masks(sim, oracle, faults, 0, tag + " load@0");
    sim.load(patterns, 5, count);
    expect_oracle_masks(sim, oracle, faults, 5, tag + " load@5");
    if (HasFailure()) return;

    // A worker adopting the master's batch, before and after the master
    // reloads.
    FaultSimulator master(view);
    FaultSimulator worker(view);
    master.load(patterns, 1, count);
    worker.load_from(master);
    expect_oracle_masks(worker, oracle, faults, 1, tag + " worker@1");
    master.load(patterns, 2, count);
    worker.load_from(master);
    expect_oracle_masks(worker, oracle, faults, 2, tag + " worker@2");
    if (HasFailure()) return;

    // An overlay load after a one-gate remap, following a full load of
    // other patterns on the same simulator.
    const SimBaseline base = build_sim_baseline(blk.nl, seeds);
    const CowPlan plan = build_cow_plan(*cand_view, *base.view);
    ASSERT_TRUE(plan.valid);
    FaultSimulator cand(cand_view);
    cand.load(cand_full, 0, cand_full.size());
    expect_oracle_masks(cand, cand_full_oracle, faults, 0,
                        tag + " candidate full load");
    cand.load_baseline(base, plan, 0,
                       static_cast<std::size_t>(base.batches[0].lanes));
    EXPECT_EQ(cand.overlay_loads(), 1u);
    expect_oracle_masks(cand, cand_oracle, faults, 0,
                        tag + " candidate overlay load");
    if (HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Engine-level identity

/// The 4-bit ripple-carry adder block of Engine.EndToEndClassification:
/// big enough to include undetectable faults and multi-batch test sets.
Netlist build_adder() {
  Netlist nl(lib(), "fa");
  std::vector<NetId> a, b;
  for (int i = 0; i < 4; ++i) {
    a.push_back(nl.add_primary_input());
    b.push_back(nl.add_primary_input());
  }
  NetId carry = nl.add_primary_input();
  for (int i = 0; i < 4; ++i) {
    const GateId fa = add_gate(nl, "FAX1", {a[i], b[i], carry});
    carry = nl.gate(fa).outputs[0];
    nl.mark_primary_output(nl.gate(fa).outputs[1]);
  }
  nl.mark_primary_output(carry);
  return nl;
}

void expect_equal_results(const AtpgResult& got, const AtpgResult& ref,
                          const char* label) {
  EXPECT_EQ(got.status, ref.status) << label;
  EXPECT_EQ(got.tests, ref.tests) << label;
  EXPECT_EQ(got.num_detected, ref.num_detected) << label;
  EXPECT_EQ(got.num_undetectable, ref.num_undetectable) << label;
  EXPECT_EQ(got.num_aborted, ref.num_aborted) << label;
}

TEST(SimdKernel, EngineColdRunBitIdenticalAcrossModes) {
  const Netlist nl = build_adder();
  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(nl, udfm);
  ASSERT_GT(universe.size(), 50u);
  AtpgOptions options;
  options.random_batches = 4;

  const auto run_mode = [&](SimdMode mode) {
    ScopedSimdMode scope(mode);
    return run_atpg(nl, universe, udfm, options);
  };
  const AtpgResult ref = run_mode(SimdMode::kScalar);
  EXPECT_GT(ref.num_detected, 0u);
  EXPECT_FALSE(ref.tests.empty());
  for (const SimdMode mode : kAllModes) {
    if (mode == SimdMode::kScalar) continue;
    expect_equal_results(run_mode(mode), ref, simd_mode_name(mode));
  }
}

TEST(SimdKernel, EngineWarmOverlayRunBitIdenticalAcrossModes) {
  // Warm-start replay over a baseline built under the same mode: covers
  // the wide overlay loads (seed batches and pre-simulated random
  // batches) plus the verify-overlays cross-check, which recomputes
  // every replay batch with a full load and compares masks in-engine.
  const Netlist nl = build_adder();
  UdfmMap udfm(*lib());
  const FaultUniverse universe = extract_internal_faults(nl, udfm);
  AtpgOptions options;
  options.random_batches = 4;

  const std::vector<TestPattern> seeds = [&] {
    ScopedSimdMode scope(SimdMode::kScalar);
    return run_atpg(nl, universe, udfm, options).tests;
  }();
  ASSERT_FALSE(seeds.empty());

  const auto warm_run = [&](SimdMode mode) {
    ScopedSimdMode scope(mode);
    const SimBaseline base =
        build_sim_baseline(nl, seeds, options.seed, options.random_batches);
    EXPECT_EQ(base.words, simd_mode_words(resolve_simd_mode(mode)));
    AtpgOptions warm = options;
    warm.seed_tests = &seeds;
    warm.baseline = &base;
    warm.verify_overlays = true;
    const AtpgResult result = run_atpg(nl, universe, udfm, warm);
    EXPECT_GT(result.counters.overlay_verified_batches, 0u)
        << simd_mode_name(mode);
    EXPECT_EQ(result.counters.overlay_verify_mismatches, 0u)
        << simd_mode_name(mode);
    return result;
  };
  const AtpgResult ref = warm_run(SimdMode::kScalar);
  for (const SimdMode mode : kAllModes) {
    if (mode == SimdMode::kScalar) continue;
    expect_equal_results(warm_run(mode), ref, simd_mode_name(mode));
  }
}

TEST(SimdKernelHeavy, Tv80ClassificationBitIdenticalScalarVsAuto) {
  // One realistic-sized end-to-end fingerprint: classify the full DFM
  // fault universe of the mapped tv80 benchmark under the scalar kernel
  // and under auto (the widest kernel this machine has), and require
  // identical statuses and an identical compacted test set. Budgets are
  // trimmed so the whole test stays bounded on one core.
  FlowOptions fopts;
  fopts.atpg.random_batches = 4;
  fopts.atpg.backtrack_limit = 1000;
  DesignFlow flow(lib(), fopts);
  const FlowState state =
      flow.run_initial(build_benchmark("tv80").value()).value();
  ASSERT_GT(state.num_faults(), 1000u);

  const auto run_mode = [&](SimdMode mode) {
    ScopedSimdMode scope(mode);
    return run_atpg(state.netlist, state.universe, flow.udfm(), fopts.atpg);
  };
  const AtpgResult ref = run_mode(SimdMode::kScalar);
  const AtpgResult wide = run_mode(SimdMode::kAuto);
  expect_equal_results(wide, ref, "auto vs scalar on tv80");
}

}  // namespace
}  // namespace dfmres
