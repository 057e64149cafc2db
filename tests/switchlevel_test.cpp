#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/library/osu018.hpp"
#include "src/switchlevel/switch_sim.hpp"
#include "src/switchlevel/udfm.hpp"

namespace dfmres {
namespace {

const CellSpec& cell(const char* name) {
  static const auto lib = osu018_library();
  return lib->cell(lib->require(name));
}

TEST(SwitchSim, InverterGoodMachine) {
  const CellSpec& inv = cell("INVX1");
  const SwitchSim sim(inv.network);
  EXPECT_EQ(sim.eval(0)[inv.network.output_nodes[0]], SwitchValue::One);
  EXPECT_EQ(sim.eval(1)[inv.network.output_nodes[0]], SwitchValue::Zero);
}

TEST(SwitchSim, InverterPmosStuckOpenFloatsHigh) {
  const CellSpec& inv = cell("INVX1");
  const SwitchSim sim(inv.network);
  // Find the PMOS device.
  std::uint16_t pmos = 0;
  for (std::uint16_t t = 0; t < inv.network.transistors.size(); ++t) {
    if (inv.network.transistors[t].is_pmos) pmos = t;
  }
  const CellDefect defect{DefectKind::TransistorStuckOpen, pmos, 0};
  // A=0: pull-up gone, pull-down off -> Z.
  const auto v0 = sim.eval(0, &defect);
  EXPECT_EQ(v0[inv.network.output_nodes[0]], SwitchValue::Z);
  // Two-pattern: A=1 initializes output to 0; then A=0 retains 0 (fault!).
  const auto init = sim.eval(1, &defect);
  EXPECT_EQ(init[inv.network.output_nodes[0]], SwitchValue::Zero);
  const auto seq = sim.eval(0, &defect, init);
  EXPECT_EQ(seq[inv.network.output_nodes[0]], SwitchValue::Zero);
}

TEST(SwitchSim, InverterNmosStuckOnFightsToX) {
  const CellSpec& inv = cell("INVX1");
  const SwitchSim sim(inv.network);
  std::uint16_t nmos = 0;
  for (std::uint16_t t = 0; t < inv.network.transistors.size(); ++t) {
    if (!inv.network.transistors[t].is_pmos) nmos = t;
  }
  const CellDefect defect{DefectKind::TransistorStuckOn, nmos, 0};
  // A=0: pull-up on AND stuck-on pull-down -> rail fight -> X; the UDFM
  // layer turns this into a worst-case detection.
  const auto v = sim.eval(0, &defect);
  EXPECT_EQ(v[inv.network.output_nodes[0]], SwitchValue::X);
}

TEST(SwitchSim, OutputShortToRails) {
  const CellSpec& inv = cell("INVX1");
  const SwitchSim sim(inv.network);
  const std::uint16_t out = inv.network.output_nodes[0];
  // A hard short merges the output with the rail: the output is pinned to
  // the rail value (a strong detect when the good value differs).
  const CellDefect to_gnd{DefectKind::NodeShortToGnd, out, 0};
  EXPECT_EQ(sim.eval(0, &to_gnd)[out], SwitchValue::Zero);  // good = 1
  EXPECT_EQ(sim.eval(1, &to_gnd)[out], SwitchValue::Zero);  // matches good
  const CellDefect to_vdd{DefectKind::NodeShortToVdd, out, 0};
  EXPECT_EQ(sim.eval(1, &to_vdd)[out], SwitchValue::One);  // good = 0
  EXPECT_EQ(sim.eval(0, &to_vdd)[out], SwitchValue::One);  // matches good
}

TEST(SwitchSim, Nand2SeriesStuckOpenNeedsSpecificPattern) {
  const CellSpec& nand2 = cell("NAND2X1");
  const SwitchSim sim(nand2.network);
  const std::uint16_t out = nand2.network.output_nodes[0];
  // Find one NMOS in the series stack.
  std::uint16_t nmos = 0;
  for (std::uint16_t t = 0; t < nand2.network.transistors.size(); ++t) {
    if (!nand2.network.transistors[t].is_pmos) {
      nmos = t;
      break;
    }
  }
  const CellDefect defect{DefectKind::TransistorStuckOpen, nmos, 0};
  // Pattern 3 (A=B=1): pull-down broken -> Z (needs two-pattern detect).
  EXPECT_EQ(sim.eval(3, &defect)[out], SwitchValue::Z);
  // Other patterns unaffected.
  EXPECT_EQ(sim.eval(0, &defect)[out], SwitchValue::One);
  EXPECT_EQ(sim.eval(1, &defect)[out], SwitchValue::One);
  EXPECT_EQ(sim.eval(2, &defect)[out], SwitchValue::One);
}

TEST(SwitchSim, PinOpenGivesX) {
  const CellSpec& nand2 = cell("NAND2X1");
  const SwitchSim sim(nand2.network);
  const std::uint16_t out = nand2.network.output_nodes[0];
  const CellDefect defect{DefectKind::PinOpen, 0, 0};  // pin A floats
  // B=1: output = !A -> unknown.
  EXPECT_EQ(sim.eval(3, &defect)[out], SwitchValue::X);
  // B=0 (pattern 0): output 1 regardless of A; the pull-up through B
  // conducts definitely and the series pull-down is definitely broken.
  EXPECT_EQ(sim.eval(0, &defect)[out], SwitchValue::One);
}

TEST(EnumerateDefects, CountsGrowWithComplexity) {
  const auto n = [&](const char* name) {
    return enumerate_cell_defects(cell(name)).size();
  };
  EXPECT_GT(n("NAND2X1"), n("INVX1"));
  EXPECT_GT(n("AOI22X1"), n("NAND2X1"));
  EXPECT_GT(n("FAX1"), n("AOI22X1"));
  EXPECT_GT(n("INVX8"), n("INVX1"));  // finger sites
}

TEST(EnumerateDefects, NoDefectsForSequentialCells) {
  EXPECT_TRUE(enumerate_cell_defects(cell("DFFPOSX1")).empty());
}

TEST(Udfm, Nand2StuckOpenIsTwoPatternDetected) {
  const CellUdfm udfm = extract_cell_udfm(cell("NAND2X1"));
  // Find the stuck-open fault of an NMOS device; it must carry two-pattern
  // entries whose final pattern is A=B=1 (pattern 3).
  bool found = false;
  for (const auto& f : udfm.faults) {
    if (f.defect.kind != DefectKind::TransistorStuckOpen) continue;
    if (cell("NAND2X1").network.transistors[f.defect.a].is_pmos) continue;
    found = true;
    ASSERT_FALSE(f.patterns.empty());
    for (const auto& p : f.patterns) {
      EXPECT_TRUE(p.has_prev);
      EXPECT_EQ(p.inputs, 3u);
      EXPECT_EQ(p.faulty_value, true);  // output stuck high from init
    }
  }
  EXPECT_TRUE(found);
}

TEST(Udfm, DriveFingerOpenIsStaticallyUndetectable) {
  // A single open finger only weakens the drive; no static scan pattern
  // detects it (it would need an at-speed test under worst-case load).
  const CellUdfm udfm = extract_cell_udfm(cell("INVX2"));
  bool found = false;
  for (const auto& f : udfm.faults) {
    if (f.defect.kind != DefectKind::DriveFingerOpen) continue;
    found = true;
    EXPECT_TRUE(f.patterns.empty());
  }
  EXPECT_TRUE(found);
}

TEST(Udfm, DeterministicAcrossCalls) {
  const CellUdfm a = extract_cell_udfm(cell("AOI22X1"));
  const CellUdfm b = extract_cell_udfm(cell("AOI22X1"));
  ASSERT_EQ(a.num_faults(), b.num_faults());
  for (std::size_t i = 0; i < a.num_faults(); ++i) {
    EXPECT_EQ(a.faults[i].defect, b.faults[i].defect);
    EXPECT_EQ(a.faults[i].patterns.size(), b.faults[i].patterns.size());
  }
}

/// FNV-1a over every cell's extracted UDFM, in library order: per cell
/// its fault count, per fault the defect and its pattern count, per
/// pattern every field.
std::uint64_t library_udfm_digest(const Library& lib) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const CellSpec& c : lib) {
    const CellUdfm udfm = extract_cell_udfm(c);
    mix(udfm.num_faults());
    for (const CellInternalFault& f : udfm.faults) {
      mix(static_cast<std::uint64_t>(f.defect.kind));
      mix(f.defect.a);
      mix(f.defect.b);
      mix(f.patterns.size());
      for (const UdfmPattern& p : f.patterns) {
        mix(p.inputs);
        mix(p.prev_inputs);
        mix(p.has_prev);
        mix(p.output);
        mix(p.faulty_value);
      }
    }
  }
  return h;
}

// Pins the switch-level extraction of both shipped libraries bit for
// bit: a faster simulator or a shared UDFM must not move one pattern.
TEST(Udfm, LibraryDigestPinned) {
  EXPECT_EQ(library_udfm_digest(*osu018_library()), 0x3907489c1d1df567ull);
  EXPECT_EQ(library_udfm_digest(*generic_library()), 0x8421ae126c7ced25ull);
}

}  // namespace
}  // namespace dfmres
