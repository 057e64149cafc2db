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
/// The solver is incremental: one instance serves a whole ATPG run.
/// Each call adds the clauses it needs, guards the ones that are only
/// its own with an activation literal, solves under assumptions over
/// its own decision variables, and retires its scope afterwards. Learnt
/// clauses that do not depend on a retired scope stay for later calls.
///
/// Deterministic: no randomness and no wall-clock decisions; the only
/// outside input is the cancel token, polled every 64 conflicts.
class SatSolver {
 public:
  enum class Result { Sat, Unsat, Unknown };

  /// A new variable: a fresh index, or one a collection handed back
  /// (see retire()).
  std::uint32_t new_var();
  /// Indices ever handed out, free ones included: [0, num_vars()).
  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(assign_.size());
  }

  /// Adds a clause at decision level 0; the last model is dropped.
  /// Duplicate literals are merged, tautologies dropped. Returns false
  /// once the clauses are known unsatisfiable.
  bool add_clause(std::span<const SatLit> lits);
  bool add_clause(std::initializer_list<SatLit> lits) {
    return add_clause(std::span<const SatLit>(lits.begin(), lits.size()));
  }

  /// Searches for an assignment that makes every assumption true and
  /// leaves no clause false, branching on `decisions` only. Sat means
  /// every decision variable is assigned and propagation found no
  /// conflict; a caller that passes a subset of the variables must know
  /// that every such assignment extends to a model of all clauses
  /// (DESIGN.md §18 gives the ATPG miter's reason). Activities and saved
  /// phases of `decisions` start at 0, so on equal activity they are
  /// taken in order.
  /// Unsat means unsatisfiable under the assumptions (and, once a
  /// level-0 conflict was found, for good). Unknown when more than
  /// `conflict_budget` conflicts were needed or `cancel` expired.
  Result solve(std::span<const SatLit> assumptions,
               std::span<const std::uint32_t> decisions, long conflict_budget,
               const CancelToken* cancel = nullptr);

  /// Ends the scope of activation literal `act`: every clause of the
  /// scope contains ~act, and `act` itself occurs in none. The unit ~act
  /// satisfies them for good. `vars` (the scope's own variables) and
  /// act's variable must occur in no clause outside the scope. From time
  /// to time a collection drops every clause satisfied at level 0 (the
  /// retired scopes' clauses and the learnt clauses derived from them)
  /// and hands the retired variables back to new_var().
  void retire(SatLit act, std::span<const std::uint32_t> vars);

  /// Value of `var` in the model of the last Sat answer, valid until the
  /// next add_clause() or retire().
  [[nodiscard]] bool model_value(std::uint32_t var) const {
    return assign_[var] == kTrue;
  }
  /// Conflicts of the last solve() call.
  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }
  /// After an Unsat answer: the length of the assumption prefix the
  /// refutation read. The first core_depth() assumptions alone are
  /// unsatisfiable with the clauses; 0 means the clauses alone are.
  [[nodiscard]] std::size_t core_depth() const { return core_depth_; }

 private:
  static constexpr std::uint8_t kTrue = 0, kFalse = 1, kUndef = 2;
  static constexpr std::uint32_t kNoReason = 0xffffffffu;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kMinCollectWords = 1u << 12;

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
  void collect_retired();

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

  // Decisions of the current solve(): variable v is one iff stamp_[v] ==
  // epoch_, at position rank_[v] of order_. The heap holds only bumped
  // ones (activity > 0); the never-bumped ones (activity 0) are taken in
  // order from cursor_, which backtracking moves back. Together that is
  // the order of one heap keyed (activity, then rank), built in
  // O(decisions) per call instead of O(decisions log decisions).
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> order_;
  std::uint32_t epoch_ = 0;
  std::size_t cursor_ = 0;

  std::vector<std::uint32_t> retired_;  ///< awaiting a collection
  std::vector<std::uint32_t> free_;     ///< collected, for new_var()
  std::size_t collected_words_ = 0;     ///< arena size after the last one

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
  std::size_t core_depth_ = 0;
};

}  // namespace dfmres
