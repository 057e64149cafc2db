#include "src/atpg/sat.hpp"

#include <algorithm>
#include <cassert>

namespace dfmres {

namespace {

/// Luby restart sequence 1 1 2 1 1 2 4 1 1 2 ... (0-based index).
double luby(std::uint64_t x) {
  std::uint64_t size = 1;
  int seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x %= size;
  }
  return static_cast<double>(1ull << seq);
}

constexpr double kVarDecay = 0.95;
constexpr double kRestartBase = 100;

}  // namespace

std::uint32_t SatSolver::new_var() {
  if (!free_.empty()) {
    // Collected: no clause mentions it, and its per-variable state was
    // cleared then.
    const std::uint32_t v = free_.back();
    free_.pop_back();
    return v;
  }
  const std::uint32_t v = num_vars();
  assign_.push_back(kUndef);
  polarity_.push_back(kFalse);
  seen_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  heap_index_.push_back(-1);
  stamp_.push_back(0);
  rank_.push_back(0);
  watch_head_.push_back(kNone);
  watch_head_.push_back(kNone);
  return v;
}

std::uint32_t SatSolver::alloc_clause(std::span<const SatLit> lits,
                                      std::uint32_t lbd) {
  const auto c = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back({static_cast<std::uint32_t>(lits.size())});
  arena_.push_back({lbd});
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  return c;
}

void SatSolver::watch(SatLit l, std::uint32_t c, SatLit blocker) {
  watch_nodes_.push_back({c, blocker, watch_head_[l.x]});
  watch_head_[l.x] = static_cast<std::uint32_t>(watch_nodes_.size() - 1);
}

void SatSolver::attach(std::uint32_t c) {
  const SatLit* lits = clause_lits(c);
  watch(lits[0], c, lits[1]);
  watch(lits[1], c, lits[0]);
}

bool SatSolver::add_clause(std::span<const SatLit> lits) {
  backtrack(0);
  if (!ok_) return false;
  std::vector<SatLit>& out = add_scratch_;
  out.assign(lits.begin(), lits.end());
  std::sort(out.begin(), out.end(),
            [](SatLit a, SatLit b) { return a.x < b.x; });
  std::size_t j = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const SatLit l = out[i];
    if (j > 0 && out[j - 1] == l) continue;
    if (j > 0 && out[j - 1] == ~l) return true;  // tautology
    const std::uint8_t v = value(l);
    if (v == kTrue) return true;  // satisfied at level 0
    if (v == kFalse) continue;
    out[j++] = l;
  }
  out.resize(j);
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kNoReason);
    return true;
  }
  attach(alloc_clause(out, 0));
  return true;
}

void SatSolver::enqueue(SatLit l, std::uint32_t reason) {
  const std::uint32_t v = l.var();
  assign_[v] = l.negated() ? kFalse : kTrue;
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

std::uint32_t SatSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const SatLit false_lit = ~trail_[qhead_++];
    // Walk the list through the link that points at each node, so a
    // node can move to another literal's list in place.
    std::uint32_t* link = &watch_head_[false_lit.x];
    while (*link != kNone) {
      const std::uint32_t id = *link;
      Watch& w = watch_nodes_[id];
      if (value(w.blocker) == kTrue) {
        link = &w.next;
        continue;
      }
      SatLit* lits = clause_lits(w.cref);
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      const SatLit first = lits[0];
      w.blocker = first;
      if (value(first) == kTrue) {
        link = &w.next;
        continue;
      }
      const std::uint32_t size = clause_size(w.cref);
      std::uint32_t k = 2;
      while (k < size && value(lits[k]) == kFalse) ++k;
      if (k < size) {
        lits[1] = lits[k];
        lits[k] = false_lit;
        *link = w.next;
        w.next = watch_head_[lits[1].x];
        watch_head_[lits[1].x] = id;
        continue;
      }
      if (value(first) == kFalse) {
        qhead_ = trail_.size();
        return w.cref;
      }
      enqueue(first, w.cref);
      link = &w.next;
    }
  }
  return kNoReason;
}

void SatSolver::analyze(std::uint32_t confl, std::vector<SatLit>& learnt,
                        int& backtrack_level, std::uint32_t& lbd) {
  learnt.clear();
  learnt.push_back(SatLit{});  // the asserting literal, filled in below
  int path = 0;
  SatLit p{};
  bool have_p = false;
  std::size_t index = trail_.size();
  do {
    const SatLit* lits = clause_lits(confl);
    const std::uint32_t size = clause_size(confl);
    for (std::uint32_t k = have_p ? 1 : 0; k < size; ++k) {
      const SatLit q = lits[k];
      const std::uint32_t v = q.var();
      if (seen_[v] || level_[v] == 0) continue;
      bump(v);
      seen_[v] = 1;
      if (level_[v] >= decision_level()) {
        ++path;
      } else {
        learnt.push_back(q);
      }
    }
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    have_p = true;
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    --path;
  } while (path > 0);
  learnt[0] = ~p;

  // Recursive minimization: drop literals implied by the rest.
  analyze_toclear_.clear();
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    analyze_toclear_.push_back(learnt[i].var());
    abstract_levels |= 1u << (level_[learnt[i].var()] & 31);
  }
  std::size_t j = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const std::uint32_t v = learnt[i].var();
    if (reason_[v] == kNoReason || !redundant(learnt[i], abstract_levels)) {
      learnt[j++] = learnt[i];
    }
  }
  learnt.resize(j);
  for (const std::uint32_t v : analyze_toclear_) seen_[v] = 0;

  // Second watch = highest level among the rest; that is where to go.
  backtrack_level = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[learnt[1].var()];
  }
  ++lbd_epoch_;
  lbd = 0;
  for (const SatLit l : learnt) {
    const int lv = level_[l.var()];
    if (lbd_stamp_[static_cast<std::size_t>(lv)] != lbd_epoch_) {
      lbd_stamp_[static_cast<std::size_t>(lv)] = lbd_epoch_;
      ++lbd;
    }
  }
}

bool SatSolver::redundant(SatLit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const std::uint32_t c = reason_[analyze_stack_.back().var()];
    analyze_stack_.pop_back();
    const SatLit* lits = clause_lits(c);
    const std::uint32_t size = clause_size(c);
    for (std::uint32_t k = 1; k < size; ++k) {
      const std::uint32_t v = lits[k].var();
      if (seen_[v] || level_[v] == 0) continue;
      if (reason_[v] != kNoReason &&
          ((1u << (level_[v] & 31)) & abstract_levels) != 0) {
        seen_[v] = 1;
        analyze_stack_.push_back(lits[k]);
        analyze_toclear_.push_back(v);
      } else {
        for (std::size_t i = top; i < analyze_toclear_.size(); ++i) {
          seen_[analyze_toclear_[i]] = 0;
        }
        analyze_toclear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void SatSolver::backtrack(int level) {
  if (decision_level() <= level) return;
  const std::size_t stop = trail_lim_[static_cast<std::size_t>(level)];
  for (std::size_t c = trail_.size(); c-- > stop;) {
    const std::uint32_t v = trail_[c].var();
    polarity_[v] = assign_[v];
    assign_[v] = kUndef;
    if (stamp_[v] != epoch_) continue;  // not a decision of this solve
    if (activity_[v] > 0.0) {
      if (heap_index_[v] < 0) heap_insert(v);
    } else {
      cursor_ = std::min<std::size_t>(cursor_, rank_[v]);
    }
  }
  trail_.resize(stop);
  trail_lim_.resize(static_cast<std::size_t>(level));
  qhead_ = stop;
}

SatLit SatSolver::pick_branch() {
  while (!heap_.empty()) {
    const std::uint32_t v = heap_pop();
    if (assign_[v] == kUndef) return SatLit::of(v, polarity_[v] == kTrue);
  }
  // Every unassigned bumped decision is in the heap; the rest tie at
  // activity 0 and go by rank.
  for (; cursor_ < order_.size(); ++cursor_) {
    const std::uint32_t v = order_[cursor_];
    if (assign_[v] == kUndef && activity_[v] == 0.0) {
      return SatLit::of(v, polarity_[v] == kTrue);
    }
  }
  return SatLit{kNone};  // every decision variable assigned
}

void SatSolver::reduce_learnts() {
  // Lowest-quality half first: high LBD, then older clauses.
  std::vector<std::uint32_t>& order = learnts_;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t la = clause_lbd(a), lb = clause_lbd(b);
    return la != lb ? la > lb : a < b;
  });
  const std::size_t target = order.size() / 2;
  std::size_t removed = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t c = order[i];
    const SatLit first = clause_lits(c)[0];
    const bool locked =
        reason_[first.var()] == c && value(first) == kTrue;
    if (removed < target && clause_lbd(c) > 2 && !locked) {
      arena_[c].x |= 1u << 31;
      wasted_words_ += 2 + clause_size(c);
      ++removed;
    } else {
      order[j++] = c;
    }
  }
  order.resize(j);
  std::sort(order.begin(), order.end());
  collect_garbage();
}

void SatSolver::collect_garbage() {
  std::vector<SatLit> fresh;
  fresh.reserve(arena_.size() - wasted_words_);
  for (std::size_t c = 0; c < arena_.size();) {
    const std::size_t words = 2 + clause_size(static_cast<std::uint32_t>(c));
    if (!clause_deleted(static_cast<std::uint32_t>(c))) {
      const auto moved = static_cast<std::uint32_t>(fresh.size());
      fresh.insert(fresh.end(), arena_.begin() + static_cast<std::ptrdiff_t>(c),
                   arena_.begin() + static_cast<std::ptrdiff_t>(c + words));
      clause_lbd(static_cast<std::uint32_t>(c)) = moved;  // forwarding address
    }
    c += words;
  }
  for (const SatLit l : trail_) {
    std::uint32_t& r = reason_[l.var()];
    if (r != kNoReason) r = clause_lbd(r);
  }
  for (std::uint32_t& c : learnts_) c = clause_lbd(c);
  arena_.swap(fresh);
  wasted_words_ = 0;
  // Every clause watches its first two literals, so the lists rebuild
  // from the arena alone.
  std::fill(watch_head_.begin(), watch_head_.end(), kNone);
  watch_nodes_.clear();
  for (std::uint32_t c = 0; c < arena_.size(); c += 2 + clause_size(c)) {
    attach(c);
  }
}

SatSolver::Result SatSolver::solve(std::span<const SatLit> assumptions,
                                   std::span<const std::uint32_t> decisions,
                                   long conflict_budget,
                                   const CancelToken* cancel) {
  conflicts_ = 0;
  core_depth_ = 0;
  backtrack(0);
  if (!ok_) return Result::Unsat;
  // This call's decisions, each starting unbumped with phase 0, so the
  // first decisions follow `decisions`' order (O(decisions)).
  for (const std::uint32_t v : heap_) heap_index_[v] = -1;
  heap_.clear();
  ++epoch_;
  order_.assign(decisions.begin(), decisions.end());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const std::uint32_t v = order_[i];
    stamp_[v] = epoch_;
    rank_[v] = static_cast<std::uint32_t>(i);
    activity_[v] = 0.0;
    polarity_[v] = kFalse;
  }
  cursor_ = 0;
  var_inc_ = 1.0;
  // One level per decision or assumption.
  const std::size_t max_levels = order_.size() + assumptions.size() + 1;
  if (lbd_stamp_.size() < max_levels) lbd_stamp_.resize(max_levels, 0);

  if (propagate() != kNoReason) {
    ok_ = false;
    return Result::Unsat;
  }
  const std::size_t original_words = arena_.size();
  double max_learnts =
      std::max(2000.0, static_cast<double>(original_words) / 12.0);
  std::uint64_t restarts = 0;
  double restart_limit = kRestartBase * luby(restarts);
  std::uint64_t since_restart = 0;
  std::vector<SatLit>& learnt = learnt_scratch_;
  for (;;) {
    const std::uint32_t confl = propagate();
    if (confl != kNoReason) {
      ++conflicts_;
      ++since_restart;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::Unsat;
      }
      int backtrack_level = 0;
      std::uint32_t lbd = 0;
      analyze(confl, learnt, backtrack_level, lbd);
      backtrack(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const std::uint32_t c = alloc_clause(learnt, lbd);
        learnts_.push_back(c);
        attach(c);
        enqueue(learnt[0], c);
      }
      var_inc_ /= kVarDecay;
      if (static_cast<long>(conflicts_) > conflict_budget ||
          ((conflicts_ & 63) == 0 && cancel_expired(cancel))) {
        backtrack(0);
        return Result::Unknown;
      }
      continue;
    }
    if (static_cast<double>(since_restart) >= restart_limit) {
      backtrack(0);
      since_restart = 0;
      restart_limit = kRestartBase * luby(++restarts);
    }
    if (static_cast<double>(learnts_.size()) >=
        max_learnts + static_cast<double>(trail_.size())) {
      reduce_learnts();
      max_learnts *= 1.1;
    }
    // Assumptions first, one level each (an already-true one opens an
    // empty level, so level i + 1 always belongs to assumption i).
    SatLit next{kNone};
    while (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
      const SatLit a = assumptions[static_cast<std::size_t>(decision_level())];
      const std::uint8_t v = value(a);
      if (v == kUndef) {
        next = a;
        break;
      }
      if (v == kFalse) {
        // a is assumption i = decision_level(). Every variable assigned
        // now sits at a level <= i, set at level 0 or under an earlier
        // assumption (level j + 1 belongs to assumption j), so the walk
        // from a through its reasons (MiniSat's analyzeFinal) reads no
        // assumption past a: the first i + 1 are unsatisfiable.
        core_depth_ = static_cast<std::size_t>(decision_level()) + 1;
        backtrack(0);
        return Result::Unsat;
      }
      trail_lim_.push_back(trail_.size());
    }
    if (next.x == kNone) {
      next = pick_branch();
      if (next.x == kNone) return Result::Sat;
    }
    trail_lim_.push_back(trail_.size());
    enqueue(next, kNoReason);
  }
}

void SatSolver::retire(SatLit act, std::span<const std::uint32_t> vars) {
  backtrack(0);
  if (value(act) == kUndef) enqueue(~act, kNoReason);
  retired_.push_back(act.var());
  retired_.insert(retired_.end(), vars.begin(), vars.end());
  // Collect once the arena has doubled since the last collection, so
  // each pass over the clauses is paid for by as many new words.
  if (arena_.size() >= 2 * collected_words_ + kMinCollectWords) {
    collect_retired();
  }
}

void SatSolver::collect_retired() {
  if (propagate() != kNoReason) ok_ = false;
  for (std::uint32_t c = 0; c < arena_.size(); c += 2 + clause_size(c)) {
    if (clause_deleted(c)) continue;
    const SatLit* lits = clause_lits(c);
    for (std::uint32_t k = 0; k < clause_size(c); ++k) {
      if (value(lits[k]) == kTrue) {
        arena_[c].x |= 1u << 31;
        wasted_words_ += 2 + clause_size(c);
        break;
      }
    }
  }
  std::erase_if(learnts_, [&](std::uint32_t c) { return clause_deleted(c); });
  // Level-0 reasons are never read (analysis skips level 0), and a
  // deleted clause can be one.
  for (const SatLit l : trail_) reason_[l.var()] = kNoReason;
  collect_garbage();
  for (const std::uint32_t v : retired_) seen_[v] = 1;
#ifndef NDEBUG
  for (std::uint32_t c = 0; c < arena_.size(); c += 2 + clause_size(c)) {
    for (std::uint32_t k = 0; k < clause_size(c); ++k) {
      assert(!seen_[clause_lits(c)[k].var()] && "retired variable in use");
    }
  }
#endif
  collected_words_ = arena_.size();
  std::erase_if(trail_, [&](SatLit l) { return seen_[l.var()] != 0; });
  qhead_ = trail_.size();
  for (const std::uint32_t v : retired_) {
    seen_[v] = 0;
    assign_[v] = kUndef;
    polarity_[v] = kFalse;
    level_[v] = 0;
    activity_[v] = 0.0;
    stamp_[v] = 0;
    free_.push_back(v);
  }
  retired_.clear();
}

// ---- VSIDS heap (max-activity first, lower rank on ties) ----

void SatSolver::bump(std::uint32_t v) {
  if (stamp_[v] != epoch_) return;  // never decided this solve
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (const std::uint32_t u : order_) activity_[u] *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_index_[v] >= 0) heap_up(static_cast<std::size_t>(heap_index_[v]));
}

void SatSolver::heap_insert(std::uint32_t v) {
  heap_index_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_.size() - 1);
}

void SatSolver::heap_up(std::size_t i) {
  const std::uint32_t v = heap_[i];
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    return activity_[a] > activity_[b] ||
           (activity_[a] == activity_[b] && rank_[a] < rank_[b]);
  };
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<std::int32_t>(i);
}

void SatSolver::heap_down(std::size_t i) {
  const std::uint32_t v = heap_[i];
  const auto before = [&](std::uint32_t a, std::uint32_t b) {
    return activity_[a] > activity_[b] ||
           (activity_[a] == activity_[b] && rank_[a] < rank_[b]);
  };
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!before(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<std::int32_t>(i);
}

std::uint32_t SatSolver::heap_pop() {
  const std::uint32_t top = heap_.front();
  heap_index_[top] = -1;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_index_[last] = 0;
    heap_down(0);
  }
  return top;
}

}  // namespace dfmres
