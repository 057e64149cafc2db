#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/util/cancel.hpp"

namespace dfmres {

/// Literal of the CDCL solver: variable v in positive (2v) or negated
/// (2v + 1) polarity.
struct SatLit {
  std::uint32_t x = 0;

  [[nodiscard]] static SatLit pos(std::uint32_t var) { return {var * 2}; }
  [[nodiscard]] static SatLit neg(std::uint32_t var) { return {var * 2 + 1}; }
  /// The literal that is true when `var` takes `value`.
  [[nodiscard]] static SatLit of(std::uint32_t var, bool value) {
    return {var * 2 + (value ? 0u : 1u)};
  }
  [[nodiscard]] std::uint32_t var() const { return x >> 1; }
  [[nodiscard]] bool negated() const { return (x & 1u) != 0; }
  [[nodiscard]] SatLit operator~() const { return {x ^ 1u}; }
  friend bool operator==(SatLit, SatLit) = default;
};

/// Small conflict-driven clause-learning SAT solver for the ATPG miters
/// (DESIGN.md §18): two watched literals with blocking literals,
/// first-UIP learning with recursive clause minimization, a VSIDS
/// variable heap, phase saving, Luby restarts and LBD-based learnt
/// clause reduction.
///
/// The solver is built for many small instances in a row: all storage
/// is a fixed set of flat arrays (per variable, per literal, the clause
/// arena, and the watch lists as linked nodes in one array), and
/// `reset()` keeps their capacity, so a warm solver issues no
/// allocations for instances it has already seen the size of. An array
/// above kKeepWords words is freed at reset, so one huge instance does
/// not pin its memory for the rest of the run.
///
/// Deterministic: no randomness and no wall-clock decisions; the only
/// outside input is the cancel token, polled every 64 conflicts.
class SatSolver {
 public:
  enum class Result { Sat, Unsat, Unknown };

  /// Forgets every variable and clause of the previous instance.
  void reset();

  std::uint32_t new_var();
  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(assign_.size());
  }

  /// Adds a clause at decision level 0 (before solve). Duplicate
  /// literals are merged, tautologies dropped. Returns false once the
  /// instance is known unsatisfiable.
  bool add_clause(std::span<const SatLit> lits);
  bool add_clause(std::initializer_list<SatLit> lits) {
    return add_clause(std::span<const SatLit>(lits.begin(), lits.size()));
  }

  /// Searches for a model. Unknown when more than `conflict_budget`
  /// conflicts were needed or `cancel` expired.
  Result solve(long conflict_budget, const CancelToken* cancel = nullptr);

  /// Value of `var` in the model of the last Sat answer.
  [[nodiscard]] bool model_value(std::uint32_t var) const {
    return assign_[var] == kTrue;
  }
  /// Conflicts of the last solve() call.
  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }

 private:
  static constexpr std::uint8_t kTrue = 0, kFalse = 1, kUndef = 2;
  static constexpr std::uint32_t kNoReason = 0xffffffffu;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kKeepWords = 1u << 18;

  /// One watch of a clause, linked into its literal's list.
  struct Watch {
    std::uint32_t cref;
    SatLit blocker;  ///< some other literal of the clause
    std::uint32_t next;
  };

  // Clause arena layout, one word each: [size | deleted << 31, lbd,
  // lits...]; the two header words are stored as raw SatLit values.
  [[nodiscard]] std::uint32_t clause_size(std::uint32_t c) const {
    return arena_[c].x & 0x7fffffffu;
  }
  [[nodiscard]] bool clause_deleted(std::uint32_t c) const {
    return (arena_[c].x >> 31) != 0;
  }
  [[nodiscard]] std::uint32_t& clause_lbd(std::uint32_t c) {
    return arena_[c + 1].x;
  }
  [[nodiscard]] SatLit* clause_lits(std::uint32_t c) { return &arena_[c + 2]; }

  [[nodiscard]] std::uint8_t value(SatLit l) const {
    const std::uint8_t a = assign_[l.var()];
    return a == kUndef ? kUndef : static_cast<std::uint8_t>(a ^ (l.x & 1u));
  }
  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim_.size());
  }

  std::uint32_t alloc_clause(std::span<const SatLit> lits, std::uint32_t lbd);
  void attach(std::uint32_t c);
  void watch(SatLit l, std::uint32_t c, SatLit blocker);
  void enqueue(SatLit l, std::uint32_t reason);
  std::uint32_t propagate();
  void analyze(std::uint32_t confl, std::vector<SatLit>& learnt,
               int& backtrack_level, std::uint32_t& lbd);
  bool redundant(SatLit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  SatLit pick_branch();
  void reduce_learnts();
  void collect_garbage();

  void bump(std::uint32_t v);
  void heap_insert(std::uint32_t v);
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);
  std::uint32_t heap_pop();

  bool ok_ = true;
  std::vector<std::uint8_t> assign_;
  std::vector<std::uint8_t> polarity_;  ///< saved phase (kTrue / kFalse)
  std::vector<std::uint8_t> seen_;
  std::vector<int> level_;
  std::vector<std::uint32_t> reason_;
  std::vector<double> activity_;
  std::vector<std::int32_t> heap_index_;  ///< -1 when not in the heap
  std::vector<std::uint32_t> heap_;
  double var_inc_ = 1.0;

  std::vector<SatLit> arena_;
  std::size_t wasted_words_ = 0;
  std::vector<std::uint32_t> learnts_;
  std::vector<std::uint32_t> watch_head_;  ///< by literal: first node
  std::vector<Watch> watch_nodes_;

  std::vector<SatLit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<SatLit> add_scratch_;
  std::vector<SatLit> learnt_scratch_;
  std::vector<SatLit> analyze_stack_;
  std::vector<std::uint32_t> analyze_toclear_;
  std::vector<std::uint32_t> lbd_stamp_;
  std::uint32_t lbd_epoch_ = 0;

  std::uint64_t conflicts_ = 0;
};

}  // namespace dfmres
