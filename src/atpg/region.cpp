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

/// Record tags, so a literal can never hash like a net record.
enum : std::uint64_t { kCallRecord = 1, kLiteralRecord = 2, kNetRecord = 3 };
/// Net classes in a net record.
enum : std::uint64_t { kSource = 0, kUndriven = 1, kDriven = 2 };

/// One record hashed in two independent lanes: word-wise multiplicative
/// folds with different seeds and multipliers, each finished by fmix.
/// Records are summed into the signature, so their order cannot matter.
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
  void into(RegionSignature& sig) const {
    sig.lo += fmix(a_);
    sig.hi += fmix(b_ ^ 0x3c6ef372fe94f82bull);
  }

 private:
  static constexpr std::uint64_t kMulA = 0x100000001b3ull;
  static constexpr std::uint64_t kMulB = 0x9e3779b97f4a7c15ull;
  std::uint64_t a_, b_;
};

}  // namespace

RelevantRegion::RelevantRegion(const Netlist& nl, const CombView& view)
    : nl_(nl) {
  topo_pos_.assign(nl.gate_capacity(), 0);
  for (std::uint32_t i = 0; i < view.order.size(); ++i) {
    topo_pos_[view.order[i].value()] = i;
  }
  observe_.assign(view.net_slots, 0);
  for (NetId obs : view.observe) observe_[obs.value()] = 1;
  cone_net_.assign(view.net_slots, 0);
  cone_gate_.assign(nl.gate_capacity(), 0);
  relevant_net_.assign(view.net_slots, 0);
  relevant_gate_.assign(nl.gate_capacity(), 0);
}

bool RelevantRegion::is_source(NetId n) const {
  const auto& net = nl_.net(n);
  return net.is_primary_input ||
         (net.has_gate_driver() && nl_.cell_of(net.driver_gate).sequential);
}

void RelevantRegion::begin() {
  ++cone_epoch_;
  ++relevant_epoch_;
  cone_gates_.clear();
  nets_.clear();
  gates_.clear();
  stack_.clear();
  sig_ = {};
}

void RelevantRegion::push(NetId n) {
  if (n.valid() && relevant_net_[n.value()] != relevant_epoch_) {
    relevant_net_[n.value()] = relevant_epoch_;
    nets_.push_back(n);
    stack_.push_back(n);
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
  for (const CondLiteral& lit : lits_) push(lit.net);
  push(victim_);
  for (GateId g : cone_gates_) {
    const auto& gate = nl_.gate(g);
    for (NetId out : gate.outputs) push(out);
    for (NetId in : gate.fanin) push(in);
  }
  Record(kCallRecord)
      .add(1)
      .add(victim_.value())
      .add(faulty_value_ ? 1 : 0)
      .into(sig_);
  close();
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
  for (const CondLiteral& lit : lits_) push(lit.net);
  Record(kCallRecord).add(0).into(sig_);
  close();
  return *this;
}

void RelevantRegion::close() {
  for (const CondLiteral& lit : lits_) {
    Record(kLiteralRecord)
        .add(lit.net.value())
        .add(lit.value ? 1 : 0)
        .into(sig_);
  }
  // Backward closure over combinational drivers; sources and undriven
  // nets terminate it. Each net is hashed as it is popped.
  while (!stack_.empty()) {
    const NetId n = stack_.back();
    stack_.pop_back();
    Record rec(kNetRecord);
    rec.add(n.value());
    if (in_cone(n)) rec.add(is_observed(n) ? 3 : 2);
    const auto& net = nl_.net(n);
    if (is_source(n)) {
      rec.add(kSource).into(sig_);
      continue;
    }
    if (!net.has_gate_driver()) {
      rec.add(kUndriven).into(sig_);
      continue;
    }
    const GateId g = net.driver_gate;
    const auto& gate = nl_.gate(g);
    rec.add(kDriven).add(g.value()).add(gate.cell.value()).add(net.driver_pin);
    for (NetId in : gate.fanin) rec.add(in.value());
    rec.into(sig_);
    if (relevant_gate_[g.value()] != relevant_epoch_) {
      relevant_gate_[g.value()] = relevant_epoch_;
      gates_.push_back(g);
    }
    for (NetId in : gate.fanin) push(in);
  }
  if (sig_ == RegionSignature{}) sig_.lo = 1;  // {0, 0} marks empty slots
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
