#include "src/atpg/region.hpp"

#include <algorithm>
#include <cassert>

namespace dfmres {

namespace {

/// splitmix64's finalizer: a strong 64-bit mix.
std::uint64_t fmix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Record tags, so no two kinds of record or label can hash alike.
enum : std::uint64_t {
  kCallRecord = 1,
  kLiteralRecord = 2,
  kObservedRecord = 3,
  kSourceLabel = 4,
  kConstantLabel = 5,
  kGateLabel = 6,
};

/// One record hashed in two independent lanes: word-wise multiplicative
/// folds with different seeds and multipliers, each finished by fmix.
/// A finished record is a label, or is summed into a key, so the order
/// of a key's records cannot matter.
class Record {
 public:
  explicit Record(std::uint64_t tag)
      : a_((0x6a09e667f3bcc909ull ^ tag) * kMulA),
        b_((0xbb67ae8584caa73bull + tag) * kMulB) {}
  Record& add(std::uint64_t w) {
    a_ = (a_ ^ w) * kMulA;
    b_ = (b_ + w) * kMulB;
    return *this;
  }
  Record& add(const RegionSignature& label) {
    return add(label.lo).add(label.hi);
  }
  [[nodiscard]] RegionSignature finish() const {
    return {fmix(a_), fmix(b_ ^ 0x3c6ef372fe94f82bull)};
  }
  void into(RegionSignature& sig) const {
    const RegionSignature r = finish();
    sig.lo += r.lo;
    sig.hi += r.hi;
  }

 private:
  static constexpr std::uint64_t kMulA = 0x100000001b3ull;
  static constexpr std::uint64_t kMulB = 0x9e3779b97f4a7c15ull;
  std::uint64_t a_, b_;
};

/// A summed key as stored: never {0, 0}, which marks empty memo slots.
RegionSignature finish_key(RegionSignature sig) {
  if (sig == RegionSignature{}) sig.lo = 1;
  return sig;
}

/// The label of a constant net; the constant 0 is what an undriven net
/// reads.
RegionSignature constant_label(bool value) {
  return Record(kConstantLabel).add(value ? 1 : 0).finish();
}

/// The label of output `pin` of `gate` whose fanins carry `fanin_label`.
template <typename FaninLabel>
RegionSignature gate_label(const Netlist::Gate& gate, std::size_t pin,
                           const FaninLabel& fanin_label) {
  Record rec(kGateLabel);
  rec.add(gate.cell.value()).add(pin);
  for (NetId in : gate.fanin) rec.add(fanin_label(in));
  return rec.finish();
}

}  // namespace

RelevantRegion::RelevantRegion(const Netlist& nl, const CombView& view)
    : nl_(nl) {
  topo_pos_.assign(nl.gate_capacity(), 0);
  for (std::uint32_t i = 0; i < view.order.size(); ++i) {
    topo_pos_[view.order[i].value()] = i;
  }
  observe_.assign(view.net_slots, 0);
  for (NetId obs : view.observe) observe_[obs.value()] = 1;
  source_.assign(view.net_slots, 0);
  for (NetId src : view.sources) source_[src.value()] = 1;
  label_.assign(view.net_slots, constant_label(false));
  for (NetId src : view.sources) {
    label_[src.value()] = Record(kSourceLabel).add(src.value()).finish();
  }
  const auto good_label = [&](NetId n) { return label_[n.value()]; };
  for (GateId g : view.order) {
    const auto& gate = nl.gate(g);
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      label_[gate.outputs[k].value()] = gate_label(gate, k, good_label);
    }
  }
  faulty_label_.resize(view.net_slots);
  cone_net_.assign(view.net_slots, 0);
  cone_gate_.assign(nl.gate_capacity(), 0);
  closure_.net_mark.assign(view.net_slots, 0);
  closure_.gate_mark.assign(nl.gate_capacity(), 0);
}

void RelevantRegion::begin() {
  ++cone_epoch_;
  cone_gates_.clear();
  stack_.clear();
  closure_.built = false;
  sig_ = {};
}

void RelevantRegion::add_literals() {
  for (const CondLiteral& lit : lits_) {
    Record(kLiteralRecord)
        .add(label_[lit.net.value()])
        .add(lit.value ? 1 : 0)
        .into(sig_);
  }
}

const RelevantRegion& RelevantRegion::detect(const Excitation& exc) {
  begin();
  detect_ = true;
  victim_ = exc.victim;
  faulty_value_ = exc.faulty_value;
  lits_.clear();
  for (const CondLiteral& lit : exc.lits) {
    if (lit.frame == 1) lits_.push_back(lit);
  }
  // The fanout cone: a walk over sinks, then a topological sort.
  cone_net_[victim_.value()] = cone_epoch_;
  stack_.push_back(victim_);
  while (!stack_.empty()) {
    const NetId n = stack_.back();
    stack_.pop_back();
    for (const PinRef& sink : nl_.net(n).sinks) {
      if (nl_.cell_of(sink.gate).sequential) continue;
      if (cone_gate_[sink.gate.value()] == cone_epoch_) continue;
      cone_gate_[sink.gate.value()] = cone_epoch_;
      cone_gates_.push_back(sink.gate);
      for (NetId out : nl_.gate(sink.gate).outputs) {
        if (cone_net_[out.value()] != cone_epoch_) {
          cone_net_[out.value()] = cone_epoch_;
          stack_.push_back(out);
        }
      }
    }
  }
  std::sort(cone_gates_.begin(), cone_gates_.end(),
            [&](GateId a, GateId b) {
              return topo_pos_[a.value()] < topo_pos_[b.value()];
            });
  Record(kCallRecord)
      .add(1)
      .add(label_[victim_.value()])
      .add(faulty_value_ ? 1 : 0)
      .into(sig_);
  // Faulty labels in topological order; an observed cone net adds its
  // (good, faulty) pair, the only place a difference can be seen.
  const auto observe = [&](NetId n) {
    if (!is_observed(n)) return;
    Record(kObservedRecord)
        .add(label_[n.value()])
        .add(faulty_label_[n.value()])
        .into(sig_);
  };
  faulty_label_[victim_.value()] = constant_label(faulty_value_);
  observe(victim_);
  const auto faulty_label = [&](NetId n) {
    return in_cone(n) ? faulty_label_[n.value()] : label_[n.value()];
  };
  for (GateId g : cone_gates_) {
    const auto& gate = nl_.gate(g);
    for (std::size_t k = 0; k < gate.outputs.size(); ++k) {
      const NetId out = gate.outputs[k];
      faulty_label_[out.value()] = gate_label(gate, k, faulty_label);
      observe(out);
    }
  }
  // Records are summed, so the literals can come last.
  cone_sig_ = finish_key(sig_);
  add_literals();
  sig_ = finish_key(sig_);
  return *this;
}

const RelevantRegion& RelevantRegion::justify(
    std::span<const CondLiteral> lits) {
  begin();
  detect_ = false;
  victim_ = NetId::invalid();
  faulty_value_ = false;
  lits_.assign(lits.begin(), lits.end());
  for (CondLiteral& lit : lits_) lit.frame = 1;
  Record(kCallRecord).add(0).into(sig_);
  add_literals();
  sig_ = finish_key(sig_);
  return *this;
}

void RelevantRegion::build_closure() const {
  Closure& c = closure_;
  c.built = true;
  ++c.epoch;
  c.nets.clear();
  c.gates.clear();
  c.stack.clear();
  const auto push = [&c](NetId n) {
    if (n.valid() && c.net_mark[n.value()] != c.epoch) {
      c.net_mark[n.value()] = c.epoch;
      c.nets.push_back(n);
      c.stack.push_back(n);
    }
  };
  for (const CondLiteral& lit : lits_) push(lit.net);
  if (detect_) {
    push(victim_);
    for (GateId g : cone_gates_) {
      const auto& gate = nl_.gate(g);
      for (NetId out : gate.outputs) push(out);
      for (NetId in : gate.fanin) push(in);
    }
  }
  // Backward over combinational drivers; sources and undriven nets
  // terminate it.
  while (!c.stack.empty()) {
    const NetId n = c.stack.back();
    c.stack.pop_back();
    const auto& net = nl_.net(n);
    if (is_source(n) || !net.has_gate_driver()) continue;
    const GateId g = net.driver_gate;
    if (c.gate_mark[g.value()] != c.epoch) {
      c.gate_mark[g.value()] = c.epoch;
      c.gates.push_back(g);
    }
    for (NetId in : nl_.gate(g).fanin) push(in);
  }
}

bool ProofMemo::contains(const RegionSignature& s) const {
  return size_ != 0 && slots_[probe(s)] == s;
}

void ProofMemo::insert(const RegionSignature& s) {
  assert(!(s == RegionSignature{}));
  if (contains(s)) return;
  if (size_ == kMaxEntries) clear();
  if (2 * (size_ + 1) > slots_.size()) grow();
  slots_[probe(s)] = s;
  ++size_;
}

void ProofMemo::clear() {
  std::fill(slots_.begin(), slots_.end(), RegionSignature{});
  size_ = 0;
}

std::size_t ProofMemo::probe(const RegionSignature& s) const {
  // The signature is already well mixed; linear probing from its low
  // bits stops at the key or at an empty slot (load stays <= 1/2).
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(s.lo) & mask;
  while (!(slots_[i] == s) && !(slots_[i] == RegionSignature{})) {
    i = (i + 1) & mask;
  }
  return i;
}

void ProofMemo::grow() {
  std::vector<RegionSignature> old = std::move(slots_);
  slots_.assign(old.empty() ? 1024 : 2 * old.size(), RegionSignature{});
  for (const RegionSignature& s : old) {
    if (!(s == RegionSignature{})) slots_[probe(s)] = s;
  }
}

}  // namespace dfmres
