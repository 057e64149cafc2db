#include "src/atpg/verdict_store.hpp"

#include <algorithm>

namespace dfmres {

void FaultStatusCache::store(const Fault::Key& k, FaultStatus s,
                             std::uint32_t cell_faults) {
  verdict_index::check(k);
  assert(k.victim != verdict_index::kNone);
  switch (k.kind) {
    case verdict_index::kBridge: {
      if (k.victim >= bridges_.size()) {
        if (s == FaultStatus::Unknown) return;
        bridges_.resize(std::size_t{k.victim} + 1);
      }
      std::vector<BridgeEntry>& list = bridges_[k.victim];
      const std::uint32_t partner = verdict_index::bridge_partner(k);
      const auto it = list.begin() + static_cast<std::ptrdiff_t>(
                                         bridge_position(list, partner));
      const bool found = it != list.end() && it->partner == partner;
      if (found && s == FaultStatus::Unknown) {
        list.erase(it);
        --size_;
      } else if (found) {
        it->status = s;
      } else if (s != FaultStatus::Unknown) {
        list.insert(it, BridgeEntry{partner, s});
        ++size_;
      }
      return;
    }
    case verdict_index::kCellAware: {
      assert(k.owner != verdict_index::kNone);
      if (k.owner >= gates_.size()) {
        if (s == FaultStatus::Unknown) return;
        gates_.resize(std::size_t{k.owner} + 1);
      }
      GateBlock& b = gates_[k.owner];
      // The slot drops the victim: every cell-aware key of one owner
      // names the owner's first output.
      assert(b.size == 0 || b.victim == k.victim);
      if (k.udfm_index >= b.size) {
        if (s == FaultStatus::Unknown) return;
        // A new block, or a regrown one at the end of the slot array (the
        // old slots are abandoned); sized by the cell's UDFM fault count,
        // so an engine-fed store never regrows.
        const std::uint32_t size =
            std::max({cell_faults, k.udfm_index + 1, 2 * b.size});
        const auto offset = static_cast<std::uint32_t>(cell_aware_.size());
        cell_aware_.resize(cell_aware_.size() + size, FaultStatus::Unknown);
        std::copy_n(cell_aware_.begin() + b.offset, b.size,
                    cell_aware_.begin() + offset);
        b = GateBlock{offset, size, k.victim};
      }
      put(cell_aware_[b.offset + k.udfm_index], s);
      return;
    }
    default: {
      const std::size_t j = verdict_index::net_slot(k);
      if (j >= net_.size()) {
        if (s == FaultStatus::Unknown) return;
        net_.resize((std::size_t{k.victim} + 1) * 4, FaultStatus::Unknown);
      }
      put(net_[j], s);
      return;
    }
  }
}

void FaultStatusCache::merge(const FaultStatusCache& delta) {
  delta.visit([this](const Fault::Key& k, FaultStatus s,
                     std::uint32_t cell_faults) { store(k, s, cell_faults); });
}

void FaultStatusCache::clear() {
  net_.clear();
  gates_.clear();
  cell_aware_.clear();
  bridges_.clear();
  size_ = 0;
}

void RepresentativeMarks::begin_run(const FaultUniverse& universe,
                                    std::size_t net_capacity,
                                    std::size_t gate_capacity) {
  if (++epoch_ == 0) {
    // Wrapped: no stamp may read as this run's.
    std::fill(net_marks_.begin(), net_marks_.end(), Mark{});
    std::fill(gate_marks_.begin(), gate_marks_.end(), GateMark{});
    std::fill(victim_marks_.begin(), victim_marks_.end(), Mark{});
    epoch_ = 1;
  }
  if (net_marks_.size() < 4 * net_capacity) {
    net_marks_.resize(4 * net_capacity);
    victim_marks_.resize(net_capacity);
    partner_marks_.resize(2 * net_capacity);
  }
  if (gate_marks_.size() < gate_capacity) gate_marks_.resize(gate_capacity);
  cell_aware_.clear();
  bridges_.clear();
  next_bridge_ = 0;
  victims_.clear();
  for (std::uint32_t i = 0; i < universe.size(); ++i) {
    if (universe.faults[i].kind != FaultKind::Bridge) continue;
    const Fault::Key k = universe.faults[i].key();
    verdict_index::check(k);
    const std::uint32_t v = k.victim;
    assert(v < net_capacity && k.aggressor < net_capacity);
    Mark& count = victim_marks_[v];
    if (count.stamp != epoch_) {
      count = {epoch_, 0};
      victims_.push_back(v);
    }
    ++count.value;
    bridges_.push_back({i, v, verdict_index::bridge_partner(k), i});
  }
  mark_bridges();
}

void RepresentativeMarks::mark_bridges() {
  // Counting sort by victim, stable, so each group ascends by index.
  std::uint32_t end = 0;
  for (const std::uint32_t v : victims_) {
    const std::uint32_t count = victim_marks_[v].value;
    victim_marks_[v].value = end;  // the group's next free position
    end += count;
  }
  grouped_.resize(bridges_.size());
  for (std::uint32_t b = 0; b < bridges_.size(); ++b) {
    grouped_[victim_marks_[bridges_[b].victim].value++] = b;
  }
  // victim_marks_[v].value is now the end of v's group.
  std::uint32_t begin = 0;
  for (const std::uint32_t v : victims_) {
    if (++group_epoch_ == 0) {
      std::fill(partner_marks_.begin(), partner_marks_.end(), Mark{});
      group_epoch_ = 1;
    }
    const std::uint32_t group_end = victim_marks_[v].value;
    for (std::uint32_t g = begin; g < group_end; ++g) {
      Bridge& b = bridges_[grouped_[g]];
      Mark& m = partner_marks_[b.partner];
      if (m.stamp != group_epoch_) m = {group_epoch_, b.fault};
      b.rep = m.value;
    }
    begin = group_end;
  }
}

}  // namespace dfmres
