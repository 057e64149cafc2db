// The SAT stage: CDCL solver units, then a PODEM-vs-SAT differential
// over every fault of two benchmark blocks.

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/atpg/engine.hpp"
#include "src/atpg/excitation.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/atpg/podem.hpp"
#include "src/atpg/sat.hpp"
#include "src/atpg/sat_atpg.hpp"
#include "src/circuits/benchmarks.hpp"
#include "src/core/flow.hpp"
#include "src/library/osu018.hpp"
#include "src/util/rng.hpp"

namespace dfmres {
namespace {

using Clause = std::vector<SatLit>;

/// Pigeonhole principle: `pigeons` pigeons into `holes` holes, every
/// pigeon somewhere, no hole shared. UNSAT iff pigeons > holes.
std::vector<Clause> pigeonhole(std::uint32_t pigeons, std::uint32_t holes) {
  const auto var = [&](std::uint32_t p, std::uint32_t h) {
    return p * holes + h;
  };
  std::vector<Clause> out;
  for (std::uint32_t p = 0; p < pigeons; ++p) {
    Clause c;
    for (std::uint32_t h = 0; h < holes; ++h) c.push_back(SatLit::pos(var(p, h)));
    out.push_back(c);
  }
  for (std::uint32_t h = 0; h < holes; ++h) {
    for (std::uint32_t p = 0; p < pigeons; ++p) {
      for (std::uint32_t q = p + 1; q < pigeons; ++q) {
        out.push_back({SatLit::neg(var(p, h)), SatLit::neg(var(q, h))});
      }
    }
  }
  return out;
}

void load(SatSolver& s, std::uint32_t vars, const std::vector<Clause>& cnf) {
  s = SatSolver();
  for (std::uint32_t v = 0; v < vars; ++v) s.new_var();
  for (const Clause& c : cnf) s.add_clause(c);
}

/// Solves with no assumptions, deciding every variable.
SatSolver::Result solve_all(SatSolver& s, long budget,
                            const CancelToken* cancel = nullptr) {
  std::vector<std::uint32_t> all(s.num_vars());
  for (std::uint32_t v = 0; v < s.num_vars(); ++v) all[v] = v;
  return s.solve({}, all, budget, cancel);
}

bool satisfies(const std::vector<Clause>& cnf,
               const std::vector<bool>& model) {
  for (const Clause& c : cnf) {
    bool any = false;
    for (const SatLit l : c) any = any || model[l.var()] != l.negated();
    if (!any) return false;
  }
  return true;
}

std::vector<bool> model_of(const SatSolver& s, std::uint32_t vars) {
  std::vector<bool> m(vars);
  for (std::uint32_t v = 0; v < vars; ++v) m[v] = s.model_value(v);
  return m;
}

TEST(SatSolver, PigeonholeFiveIntoFourIsUnsat) {
  SatSolver s;
  load(s, 20, pigeonhole(5, 4));
  EXPECT_EQ(solve_all(s, 1'000'000), SatSolver::Result::Unsat);
  load(s, 20, pigeonhole(4, 5));
  ASSERT_EQ(solve_all(s, 1'000'000), SatSolver::Result::Sat);
  EXPECT_TRUE(satisfies(pigeonhole(4, 5), model_of(s, 20)));
}

TEST(SatSolver, Random3SatMatchesBruteForce) {
  Rng rng(2024);
  SatSolver s;
  int sat = 0, unsat = 0;
  for (int round = 0; round < 300; ++round) {
    const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.below(18));
    // Around the 4.26 clauses/variable threshold: both answers occur.
    const std::size_t m = n * 4 + rng.below(2 * n + 1);
    std::vector<Clause> cnf(m);
    for (Clause& c : cnf) {
      for (int k = 0; k < 3; ++k) {
        c.push_back(SatLit::of(static_cast<std::uint32_t>(rng.below(n)),
                               rng.flip()));
      }
    }
    bool brute = false;
    std::vector<bool> model(n);
    for (std::uint32_t bits = 0; bits < (1u << n) && !brute; ++bits) {
      for (std::uint32_t v = 0; v < n; ++v) model[v] = (bits >> v) & 1u;
      brute = satisfies(cnf, model);
    }
    load(s, n, cnf);
    const SatSolver::Result r = solve_all(s, 1'000'000);
    ASSERT_NE(r, SatSolver::Result::Unknown) << "round " << round;
    ASSERT_EQ(r == SatSolver::Result::Sat, brute) << "round " << round;
    if (brute) {
      EXPECT_TRUE(satisfies(cnf, model_of(s, n))) << "round " << round;
      ++sat;
    } else {
      ++unsat;
    }
  }
  EXPECT_GT(sat, 30);
  EXPECT_GT(unsat, 30);
}

TEST(SatSolver, RunsAreDeterministic) {
  Rng rng(7);
  std::vector<Clause> cnf(170);
  for (Clause& c : cnf) {
    for (int k = 0; k < 3; ++k) {
      c.push_back(SatLit::of(static_cast<std::uint32_t>(rng.below(40)),
                             rng.flip()));
    }
  }
  SatSolver a, b;
  load(a, 40, cnf);
  const SatSolver::Result ra = solve_all(a, 1'000'000);
  // b first solves an unrelated instance, then starts over.
  load(b, 20, pigeonhole(5, 4));
  (void)solve_all(b, 1'000'000);
  load(b, 40, cnf);
  const SatSolver::Result rb = solve_all(b, 1'000'000);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(a.conflicts(), b.conflicts());
  if (ra == SatSolver::Result::Sat) {
    EXPECT_EQ(model_of(a, 40), model_of(b, 40));
  }
}

TEST(SatSolver, LearntClauseReductionKeepsProofsSound) {
  // Past 2000 learnt clauses the solver halves its learnt database and
  // compacts the arena, relinking every watch: the answers must survive.
  SatSolver s;
  load(s, 72, pigeonhole(9, 8));
  EXPECT_EQ(solve_all(s, 10'000'000), SatSolver::Result::Unsat);
  EXPECT_GT(s.conflicts(), 10'000u) << "reduction never ran";
  load(s, 72, pigeonhole(8, 9));
  ASSERT_EQ(solve_all(s, 10'000'000), SatSolver::Result::Sat);
  EXPECT_TRUE(satisfies(pigeonhole(8, 9), model_of(s, 72)));
}

TEST(SatSolver, BudgetExhaustionIsUnknown) {
  SatSolver s;
  load(s, 56, pigeonhole(8, 7));
  EXPECT_EQ(solve_all(s, 10), SatSolver::Result::Unknown);
  EXPECT_EQ(s.conflicts(), 11u);
}

TEST(SatSolver, CancelledRunIsUnknown) {
  SatSolver s;
  load(s, 90, pigeonhole(10, 9));
  CancelToken cancel;
  cancel.cancel();
  EXPECT_EQ(solve_all(s, 1'000'000'000, &cancel), SatSolver::Result::Unknown);
  EXPECT_LE(s.conflicts(), 64u);
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  SatSolver s;
  const std::uint32_t v = s.new_var();
  EXPECT_TRUE(s.add_clause({SatLit::pos(v)}));
  EXPECT_FALSE(s.add_clause({SatLit::neg(v)}));
  EXPECT_EQ(solve_all(s, 100), SatSolver::Result::Unsat);
}

/// One solve of guarded_random_solves(): the solver, the clauses that
/// constrain it under act (the base first, then the live group's clauses
/// without their ~act guard), their variables (the base first, then the
/// group's own; act is not among them) and the assumptions (act first).
struct GuardedSolve {
  SatSolver& s;
  const std::vector<Clause>& cnf;
  std::size_t base_clauses;
  const std::vector<std::uint32_t>& vars;
  std::size_t base_vars;
  const std::vector<SatLit>& assumptions;
};

/// One solver across many activation groups, as an ATPG run uses it: a
/// random base CNF, then groups of clauses guarded by ~act over the base
/// and the group's own variables, each solved (by `check`) under act
/// plus up to two random base literals, then retired. Retired groups'
/// variables come back through collections, so the solver stays smaller
/// than everything ever allocated.
template <typename Check>
void guarded_random_solves(Check check) {
  Rng rng(2026);
  for (int instance = 0; instance < 8; ++instance) {
    SatSolver s;
    int allocated = 0;
    const std::uint32_t n = 4 + static_cast<std::uint32_t>(rng.below(5));
    std::vector<std::uint32_t> base;
    for (std::uint32_t v = 0; v < n; ++v) base.push_back(s.new_var());
    const auto random_clause = [&](const std::vector<std::uint32_t>& vars) {
      Clause c;
      for (int k = 0; k < 3; ++k) {
        c.push_back(SatLit::of(vars[rng.below(vars.size())], rng.flip()));
      }
      return c;
    };
    std::vector<Clause> base_cnf(2 * n);
    for (Clause& c : base_cnf) {
      c = random_clause(base);
      s.add_clause(c);
    }
    for (int group = 0; group < 150; ++group) {
      const SatLit act = SatLit::pos(s.new_var());
      std::vector<std::uint32_t> own;
      const int k = 1 + static_cast<int>(rng.below(3));
      for (int i = 0; i < k; ++i) own.push_back(s.new_var());
      allocated += 1 + k;
      std::vector<std::uint32_t> vars = base;
      vars.insert(vars.end(), own.begin(), own.end());
      std::vector<Clause> cnf = base_cnf;
      const std::size_t m = 2 + rng.below(3 * vars.size());
      for (std::size_t i = 0; i < m; ++i) {
        Clause c = random_clause(vars);
        cnf.push_back(c);
        c.push_back(~act);
        s.add_clause(c);
      }
      for (int solve = 0; solve < 3; ++solve) {
        std::vector<SatLit> assumptions{act};
        for (std::uint64_t a = rng.below(3); a > 0; --a) {
          assumptions.push_back(SatLit::of(base[rng.below(n)], rng.flip()));
        }
        check(GuardedSolve{s, cnf, base_cnf.size(), vars, base.size(),
                           assumptions});
      }
      s.retire(act, own);
    }
    EXPECT_LT(s.num_vars(), n + static_cast<std::uint32_t>(allocated));
  }
}

/// Brute force: whether `cnf` plus the unit clauses `units` has a model
/// over `vars` (every clause's variables among them).
bool brute_sat(std::vector<Clause> cnf, std::span<const SatLit> units,
               const std::vector<std::uint32_t>& vars,
               std::uint32_t num_vars) {
  for (const SatLit l : units) cnf.push_back({l});
  std::vector<bool> model(num_vars);
  for (std::uint32_t bits = 0; bits < (1u << vars.size()); ++bits) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      model[vars[i]] = (bits >> i) & 1u;
    }
    if (satisfies(cnf, model)) return true;
  }
  return false;
}

TEST(SatSolver, AssumptionsMatchBruteForce) {
  // Every answer under assumptions is checked by brute force, and every
  // model against the clauses and assumptions.
  int sat = 0, unsat = 0;
  guarded_random_solves([&](const GuardedSolve& g) {
    const std::span<const SatLit> after_act(g.assumptions.begin() + 1,
                                            g.assumptions.end());
    const bool brute = brute_sat(g.cnf, after_act, g.vars, g.s.num_vars());
    const SatSolver::Result r = g.s.solve(g.assumptions, g.vars, 1'000'000);
    ASSERT_NE(r, SatSolver::Result::Unknown);
    ASSERT_EQ(r == SatSolver::Result::Sat, brute);
    if (!brute) {
      ++unsat;
      return;
    }
    std::vector<Clause> with_units = g.cnf;
    for (const SatLit l : after_act) with_units.push_back({l});
    std::vector<bool> model(g.s.num_vars());
    for (const std::uint32_t v : g.vars) model[v] = g.s.model_value(v);
    EXPECT_TRUE(satisfies(with_units, model));
    ++sat;
  });
  EXPECT_GT(sat, 100);
  EXPECT_GT(unsat, 100);
}

TEST(SatSolver, FailedAssumptionCoreMatchesBruteForce) {
  // On every Unsat, the first core_depth() assumptions alone must be
  // unsatisfiable. Depth 0 claims the clauses alone are: with act free
  // the group's guarded clauses hold, so that is the base alone.
  int unsat = 0, shallow = 0;
  guarded_random_solves([&](const GuardedSolve& g) {
    const SatSolver::Result r = g.s.solve(g.assumptions, g.vars, 1'000'000);
    ASSERT_NE(r, SatSolver::Result::Unknown);
    if (r != SatSolver::Result::Unsat) return;
    ++unsat;
    const std::size_t depth = g.s.core_depth();
    ASSERT_LE(depth, g.assumptions.size());
    if (depth < g.assumptions.size()) ++shallow;
    if (depth == 0) {
      const std::vector<Clause> base(g.cnf.begin(),
                                     g.cnf.begin() + static_cast<std::ptrdiff_t>(
                                                         g.base_clauses));
      const std::vector<std::uint32_t> base_vars(
          g.vars.begin(),
          g.vars.begin() + static_cast<std::ptrdiff_t>(g.base_vars));
      EXPECT_FALSE(brute_sat(base, {}, base_vars, g.s.num_vars()));
      return;
    }
    // act (assumption 0) is in the prefix, so the group's clauses hold.
    const std::span<const SatLit> prefix_after_act(g.assumptions.begin() + 1,
                                                   depth - 1);
    EXPECT_FALSE(brute_sat(g.cnf, prefix_after_act, g.vars, g.s.num_vars()))
        << "core depth " << depth << " of " << g.assumptions.size();
  });
  EXPECT_GT(unsat, 100);
  EXPECT_GT(shallow, 20);
}

/// Completes a V3 assignment with random don't-cares.
std::vector<std::uint8_t> complete(const std::vector<V3>& assign,
                                   std::size_t width, Rng& rng) {
  std::vector<std::uint8_t> out(width);
  for (std::size_t i = 0; i < width; ++i) {
    out[i] = assign.empty() || assign[i] == V3::X ? (rng.flip() ? 1 : 0)
                                                  : assign[i] == V3::One;
  }
  return out;
}

/// Every excitation of every fault: SAT must decide it within 10^6
/// conflicts, agree with PODEM wherever PODEM decides within 10^4
/// backtracks, and every SAT test must detect its fault in a fresh fault
/// simulator. Every U proof SAT reports literal-free must hold for the
/// call without its literals, on a fresh solver. (PODEM's hard targets cost ~10 us per backtrack: at 10^6
/// backtracks the sparc_tlu differential alone runs for over six
/// minutes.)
void differential(std::string_view block) {
  FlowOptions options;
  options.atpg.num_threads = 1;
  DesignFlow flow(osu018_library(), options);
  const FlowState s = flow.run_initial(build_benchmark(block).value()).value();
  const CombView view = CombView::build(s.netlist);
  Podem podem(s.netlist, view, {10'000});
  RelevantRegion region(s.netlist, view);
  RelevantRegion bare(s.netlist, view);
  SatAtpg sat(s.netlist, view, {1'000'000});
  FaultSimulator fsim(s.netlist, view);
  Rng rng(99);
  std::size_t compared = 0, detected = 0, undetectable = 0;
  std::size_t podem_aborted = 0, literal_free = 0;
  for (const Fault& fault : s.universe.faults) {
    for (const Excitation& exc : build_excitations(fault, s.netlist, flow.udfm())) {
      std::vector<CondLiteral> frame0;
      for (const CondLiteral& lit : exc.lits) {
        if (lit.frame == 0) frame0.push_back(lit);
      }
      std::vector<V3> p0, s0, p1, s1;
      if (!frame0.empty()) {
        region.justify(frame0);
        const auto pj = podem.search(region, &p0);
        const auto sj = sat.justify(region, &s0);
        ASSERT_NE(sj, Podem::Outcome::Aborted) << block;
        if (pj == Podem::Outcome::Aborted) {
          ++podem_aborted;
        } else {
          ASSERT_EQ(pj, sj) << block << " frame-0 justify, victim "
                            << exc.victim.value();
        }
        if (sj == Podem::Outcome::Undetectable) continue;
      }
      region.detect(exc);
      const auto sd = sat.detect(region, &s1);
      ASSERT_NE(sd, Podem::Outcome::Aborted) << block;
      const auto pd = podem.search(region, &p1);
      if (pd == Podem::Outcome::Aborted) {
        ++podem_aborted;
      } else {
        ASSERT_EQ(pd, sd) << block << " detect, victim "
                          << exc.victim.value();
      }
      ++compared;
      if (sd != Podem::Outcome::Detected) {
        ++undetectable;
        if (sat.proof_literal_free()) {
          ++literal_free;
          Excitation no_lits = exc;
          no_lits.lits.clear();
          SatAtpg fresh(s.netlist, view, {1'000'000});
          EXPECT_EQ(fresh.detect(bare.detect(no_lits), nullptr),
                    Podem::Outcome::Undetectable)
              << block << " literal-free proof, victim "
              << exc.victim.value();
          EXPECT_EQ(bare.signature(), region.cone_signature());
        }
        continue;
      }
      ++detected;
      const std::vector<TestPattern> test{
          {complete(s0, view.sources.size(), rng),
           complete(s1, view.sources.size(), rng)}};
      fsim.load(test, 0, 1);
      const Excitation one[] = {exc};
      EXPECT_NE(fsim.detect_mask(one), 0u)
          << block << " SAT test misses victim " << exc.victim.value();
    }
  }
  EXPECT_GT(detected, 100u) << block;
  EXPECT_GT(undetectable, 0u) << block;
  EXPECT_EQ(sat.stats().aborted, 0u);
  EXPECT_GT(literal_free, 0u) << block;
  EXPECT_EQ(compared, detected + undetectable);
  std::printf(
      "%s: %zu excitations, %zu D / %zu U by SAT (%zu literal-free), %zu "
      "PODEM aborts\n",
      std::string(block).c_str(), compared, detected, undetectable,
      literal_free, podem_aborted);
}

TEST(SatAtpg, AgreesWithPodemOnSparcTlu) { differential("sparc_tlu"); }

TEST(SatAtpg, PersistentSolverMatchesFreshPerCall) {
  // Every excitation of sparc_tlu through one run-long SatAtpg (good
  // machine kept, cones retired and collected) and through a fresh
  // SatAtpg per call: the outcomes must agree, and every test the
  // persistent solver returns must detect its fault in a fresh fault
  // simulator.
  FlowOptions options;
  options.atpg.num_threads = 1;
  DesignFlow flow(osu018_library(), options);
  const FlowState s =
      flow.run_initial(build_benchmark("sparc_tlu").value()).value();
  const CombView view = CombView::build(s.netlist);
  RelevantRegion region(s.netlist, view);
  SatAtpg persistent(s.netlist, view, {1'000'000});
  FaultSimulator fsim(s.netlist, view);
  Rng rng(5);
  std::size_t detected = 0, undetectable = 0;
  const auto fresh = [&](std::vector<V3>* test) {
    SatAtpg once(s.netlist, view, {1'000'000});
    return region.is_detect() ? once.detect(region, test)
                              : once.justify(region, test);
  };
  for (const Fault& fault : s.universe.faults) {
    for (const Excitation& exc :
         build_excitations(fault, s.netlist, flow.udfm())) {
      std::vector<CondLiteral> frame0;
      for (const CondLiteral& lit : exc.lits) {
        if (lit.frame == 0) frame0.push_back(lit);
      }
      std::vector<V3> t0, t1, scratch;
      if (!frame0.empty()) {
        region.justify(frame0);
        const auto pj = persistent.justify(region, &t0);
        ASSERT_EQ(pj, fresh(&scratch)) << "justify, victim "
                                       << exc.victim.value();
        if (pj == Podem::Outcome::Undetectable) continue;
      }
      region.detect(exc);
      const auto pd = persistent.detect(region, &t1);
      ASSERT_EQ(pd, fresh(&scratch)) << "detect, victim "
                                     << exc.victim.value();
      ASSERT_NE(pd, Podem::Outcome::Aborted);
      if (pd == Podem::Outcome::Undetectable) {
        ++undetectable;
        continue;
      }
      ++detected;
      const std::vector<TestPattern> test{
          {complete(t0, view.sources.size(), rng),
           complete(t1, view.sources.size(), rng)}};
      fsim.load(test, 0, 1);
      const Excitation one[] = {exc};
      EXPECT_NE(fsim.detect_mask(one), 0u)
          << "persistent SAT test misses victim " << exc.victim.value();
    }
  }
  EXPECT_GT(detected, 100u);
  EXPECT_GT(undetectable, 0u);
  EXPECT_EQ(persistent.stats().aborted, 0u);
}

TEST(SatAtpg, AgreesWithPodemOnTv80) { differential("tv80"); }

}  // namespace
}  // namespace dfmres
