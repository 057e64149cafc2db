#include "src/switchlevel/switch_sim.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace dfmres {

namespace {

enum class Conduction : std::uint8_t { Off, On, Maybe };

constexpr std::uint16_t kGnd = TransistorNetwork::kGnd;
constexpr std::uint16_t kVdd = TransistorNetwork::kVdd;

/// Reach flag of one (driven value, mode) sweep. `mode` 0 = strong
/// definite path (full-swing devices only), 1 = any definite path
/// (possibly degraded), 2 = path through uncertain (X-gate) devices.
constexpr std::uint8_t reach_bit(bool value, int mode) {
  return static_cast<std::uint8_t>(1u << ((value ? 3 : 0) + mode));
}

/// Working buffers of one eval(), kept per thread and reused.
struct Scratch {
  std::vector<std::uint16_t> rep;     ///< representative of each node
  std::vector<SwitchValue> value;     ///< per representative
  std::vector<std::uint8_t> pinned;   ///< per representative: a source
  std::vector<std::uint8_t> reach;    ///< per representative: reach_bit set
  std::vector<std::uint16_t> source;  ///< per device: source representative
  std::vector<std::uint16_t> drain;   ///< per device: drain representative
  std::vector<Conduction> cond;       ///< per device
  std::vector<std::uint32_t> adj_begin;  ///< CSR offsets, one per node + 1
  std::vector<std::uint32_t> adj;        ///< device ids, two per device
  std::vector<std::uint16_t> stack;      ///< BFS frontier
};

thread_local Scratch tls_scratch;

std::uint16_t find(std::vector<std::uint16_t>& parent, std::uint16_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Merges two nodes' classes, preferring rails (then the lower index) as
/// the root so that rail identity survives bridging defects.
void merge(std::vector<std::uint16_t>& parent, std::uint16_t a,
           std::uint16_t b) {
  a = find(parent, a);
  b = find(parent, b);
  if (a == b) return;
  if (b == kGnd || b == kVdd || (a != kGnd && a != kVdd && b < a)) {
    std::swap(a, b);
  }
  parent[b] = a;
}

}  // namespace

SwitchSim::SwitchSim(const TransistorNetwork& network) : network_(network) {}

std::vector<SwitchValue> SwitchSim::eval(
    std::uint32_t pattern, const CellDefect* defect,
    std::span<const SwitchValue> prev) const {
  std::vector<SwitchValue> out;
  eval(pattern, defect, prev, out);
  return out;
}

void SwitchSim::eval(std::uint32_t pattern, const CellDefect* defect,
                     std::span<const SwitchValue> prev,
                     std::vector<SwitchValue>& out) const {
  const auto& nw = network_;
  const std::size_t n = nw.num_nodes;
  const std::size_t num_devices = nw.transistors.size();
  Scratch& sc = tls_scratch;

  // Apply topology-changing defects, then flatten every node onto its
  // class representative.
  auto& rep = sc.rep;
  rep.resize(n);
  std::iota(rep.begin(), rep.end(), std::uint16_t{0});
  if (defect) {
    switch (defect->kind) {
      case DefectKind::NodeShortToVdd: merge(rep, defect->a, kVdd); break;
      case DefectKind::NodeShortToGnd: merge(rep, defect->a, kGnd); break;
      case DefectKind::NodeBridge: merge(rep, defect->a, defect->b); break;
      default: break;
    }
  }
  for (std::uint16_t i = 0; i < n; ++i) rep[i] = find(rep, i);

  // Pinned values: rails and input pins are driver sources. A rep merged
  // with a rail takes the rail value.
  auto& value = sc.value;
  auto& pinned = sc.pinned;
  value.assign(n, SwitchValue::X);
  pinned.assign(n, 0);
  auto pin = [&](std::uint16_t node, SwitchValue v) {
    const std::uint16_t r = rep[node];
    if (!pinned[r]) {
      value[r] = v;
      pinned[r] = 1;
    }
  };
  pin(kGnd, SwitchValue::Zero);
  pin(kVdd, SwitchValue::One);
  for (std::size_t i = 0; i < nw.input_nodes.size(); ++i) {
    pin(nw.input_nodes[i],
        ((pattern >> i) & 1u) ? SwitchValue::One : SwitchValue::Zero);
  }

  // Per-device terminals and the CSR adjacency on representatives, each
  // node's devices in device order.
  auto& source = sc.source;
  auto& drain = sc.drain;
  auto& adj_begin = sc.adj_begin;
  auto& adj = sc.adj;
  source.resize(num_devices);
  drain.resize(num_devices);
  adj_begin.assign(n + 1, 0);
  for (std::size_t t = 0; t < num_devices; ++t) {
    source[t] = rep[nw.transistors[t].source_node];
    drain[t] = rep[nw.transistors[t].drain_node];
    ++adj_begin[source[t] + 1];
    ++adj_begin[drain[t] + 1];
  }
  for (std::size_t i = 0; i < n; ++i) adj_begin[i + 1] += adj_begin[i];
  // The offsets double as fill cursors, each ending on the next node's
  // start; shifting them back by one node restores them.
  adj.resize(2 * num_devices);
  for (std::uint32_t t = 0; t < num_devices; ++t) {
    adj[adj_begin[source[t]]++] = t;
    adj[adj_begin[drain[t]]++] = t;
  }
  for (std::size_t i = n; i > 0; --i) adj_begin[i] = adj_begin[i - 1];
  adj_begin[0] = 0;

  auto& cond = sc.cond;
  auto& reach = sc.reach;
  auto& stack = sc.stack;
  cond.assign(num_devices, Conduction::Off);

  // Sweep from one driver source. `value_driven` selects device strength:
  // NMOS passes 0 at full swing but degrades 1; PMOS the reverse.
  const auto run_reach = [&](std::uint16_t start, bool value_driven,
                             int mode) {
    const std::uint8_t bit = reach_bit(value_driven, mode);
    if (reach[start] & bit) return;  // another source of this class swept
    stack.clear();
    stack.push_back(start);
    reach[start] |= bit;
    while (!stack.empty()) {
      const std::uint16_t node = stack.back();
      stack.pop_back();
      if (node != start && pinned[node]) continue;  // sources end paths
      for (std::uint32_t i = adj_begin[node]; i < adj_begin[node + 1]; ++i) {
        const std::uint32_t t = adj[i];
        const Conduction c = cond[t];
        if (c == Conduction::Off) continue;
        if (mode < 2 && c == Conduction::Maybe) continue;
        if (mode == 0) {
          const bool full_swing = value_driven ? nw.transistors[t].is_pmos
                                               : !nw.transistors[t].is_pmos;
          if (!full_swing) continue;
        }
        const std::uint16_t other =
            (source[t] == node) ? drain[t] : source[t];
        if (!(reach[other] & bit)) {
          reach[other] |= bit;
          stack.push_back(other);
        }
      }
    }
  };

  for (int iter = 0; iter < 8; ++iter) {
    // Transistor conduction from gate values.
    for (std::uint32_t t = 0; t < num_devices; ++t) {
      const Transistor& tr = nw.transistors[t];
      if (defect && defect->kind == DefectKind::TransistorStuckOpen &&
          defect->a == t) {
        cond[t] = Conduction::Off;
        continue;
      }
      if (defect && defect->kind == DefectKind::TransistorStuckOn &&
          defect->a == t) {
        cond[t] = Conduction::On;
        continue;
      }
      SwitchValue g = value[rep[tr.gate_node]];
      if (defect && defect->kind == DefectKind::PinOpen &&
          tr.gate_node == nw.input_nodes[defect->a]) {
        g = SwitchValue::X;  // floating gate
      }
      switch (g) {
        case SwitchValue::Zero:
          cond[t] = tr.is_pmos ? Conduction::On : Conduction::Off;
          break;
        case SwitchValue::One:
          cond[t] = tr.is_pmos ? Conduction::Off : Conduction::On;
          break;
        default:
          cond[t] = Conduction::Maybe;
          break;
      }
    }

    // Reachability from every driver source, split by driven value.
    reach.assign(n, 0);
    for (std::uint16_t node = 0; node < n; ++node) {
      if (rep[node] != node || !pinned[node]) continue;
      const SwitchValue v = value[node];
      if (v == SwitchValue::Zero || v == SwitchValue::X) {
        for (int mode = 0; mode < 3; ++mode) run_reach(node, false, mode);
      }
      if (v == SwitchValue::One || v == SwitchValue::X) {
        for (int mode = 0; mode < 3; ++mode) run_reach(node, true, mode);
      }
    }

    bool changed = false;
    for (std::uint16_t r = 0; r < n; ++r) {
      if (rep[r] != r || pinned[r]) continue;
      const std::uint8_t f = reach[r];
      const bool s0 = f & reach_bit(false, 0), a0 = f & reach_bit(false, 1),
                 m0 = f & reach_bit(false, 2);
      const bool s1 = f & reach_bit(true, 0), a1 = f & reach_bit(true, 1),
                 m1 = f & reach_bit(true, 2);
      SwitchValue v;
      if (s0 && !a1 && !m1) {
        v = SwitchValue::Zero;
      } else if (s1 && !a0 && !m0) {
        v = SwitchValue::One;
      } else if (a0 || a1 || m0 || m1) {
        // Fight, degraded-only drive, or uncertain topology: the node
        // voltage is not a dependable full-swing logic level.
        v = SwitchValue::X;
      } else if (!prev.empty()) {
        v = prev[r];  // isolated: retain charge
      } else {
        v = SwitchValue::Z;
      }
      if (value[r] != v) {
        value[r] = v;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Expand representative values to all nodes.
  out.resize(n);
  for (std::uint16_t i = 0; i < n; ++i) out[i] = value[rep[i]];
}

}  // namespace dfmres
