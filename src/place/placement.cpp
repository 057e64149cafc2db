#include "src/place/placement.hpp"

#include "src/place/site_map.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

namespace dfmres {

namespace {

double net_hpwl(const Netlist& nl, const Placement& pl, NetId net_id) {
  const auto& net = nl.net(net_id);
  double lo_x = 1e18, hi_x = -1e18, lo_y = 1e18, hi_y = -1e18;
  int pins = 0;
  const auto add = [&](double x, double y) {
    lo_x = std::min(lo_x, x);
    hi_x = std::max(hi_x, x);
    lo_y = std::min(lo_y, y);
    hi_y = std::max(hi_y, y);
    ++pins;
  };
  if (net.has_gate_driver()) {
    const auto [x, y] =
        pl.pin_of(net.driver_gate, nl.cell_of(net.driver_gate).width_sites);
    add(x, y);
  }
  if (net.is_primary_input || net.is_primary_output) {
    const auto [x, y] = pad_position(nl, pl.plan, net_id);
    add(x, y);
  }
  for (const PinRef& sink : net.sinks) {
    const auto [x, y] = pl.pin_of(sink.gate, nl.cell_of(sink.gate).width_sites);
    add(x, y);
  }
  if (pins < 2) return 0.0;
  return (hi_x - lo_x) + 2.0 * (hi_y - lo_y);  // rows are taller than sites
}

}  // namespace

std::pair<double, double> pad_position(const Netlist& nl,
                                       const Floorplan& plan, NetId net) {
  // Spread pads deterministically along the left (PI) / right (PO) edge.
  const auto& n = nl.net(net);
  const double y =
      (net.value() * 2654435761u % 1000) / 1000.0 * std::max(1, plan.rows - 1);
  const double x = n.is_primary_input ? -1.0 : plan.sites_per_row;
  return {x, y};
}

double total_hpwl(const Netlist& nl, const Placement& pl) {
  double total = 0.0;
  for (NetId net : nl.live_nets()) total += net_hpwl(nl, pl, net);
  return total;
}

Placement global_place(const Netlist& nl, const Floorplan& plan,
                       const PlaceOptions& options) {
  Placement pl;
  pl.plan = plan;
  pl.pos.resize(nl.gate_capacity());

  // Initial order: breadth-first from primary inputs for locality.
  std::vector<GateId> order;
  {
    std::vector<bool> queued(nl.gate_capacity(), false);
    std::deque<GateId> frontier;
    const auto push_sinks = [&](NetId net) {
      for (const PinRef& sink : nl.net(net).sinks) {
        if (!queued[sink.gate.value()]) {
          queued[sink.gate.value()] = true;
          frontier.push_back(sink.gate);
        }
      }
    };
    for (NetId pi : nl.primary_inputs()) push_sinks(pi);
    while (!frontier.empty()) {
      const GateId g = frontier.front();
      frontier.pop_front();
      order.push_back(g);
      for (NetId out : nl.gate(g).outputs) push_sinks(out);
    }
    for (GateId g : nl.live_gates()) {
      if (!queued[g.value()]) order.push_back(g);  // e.g. gates fed by consts
    }
  }

  // Boustrophedon row fill.
  SiteMap sites(plan);
  {
    int x = 0, y = 0;
    bool reverse = false;
    for (GateId g : order) {
      const int w = nl.cell_of(g).width_sites;
      if (x + w > plan.sites_per_row) {
        x = 0;
        ++y;
        reverse = !reverse;
        if (y >= plan.rows) y = plan.rows - 1;  // overflow: pack last row
      }
      int real_x = reverse ? plan.sites_per_row - x - w : x;
      if (!sites.free_run(real_x, y, w)) {
        if (!sites.find_nearest(real_x, y, w, real_x, y)) {
          // Die genuinely full: caller sized the floorplan, so this is a
          // programming error rather than a recoverable failure.
          assert(false && "global_place: floorplan too small");
        }
      }
      sites.occupy(real_x, y, w);
      pl.pos[g.value()] = {real_x, y};
      x += w;
    }
  }

  // Simulated annealing: swap two gates or move one to free space.
  Rng rng(options.seed);
  const auto live = nl.live_gates();
  if (live.size() < 2) return pl;
  const long moves =
      static_cast<long>(options.moves_per_gate) * static_cast<long>(live.size());

  const auto gate_nets_cost = [&](GateId g) {
    double c = 0.0;
    for (NetId in : nl.gate(g).fanin) c += net_hpwl(nl, pl, in);
    for (NetId out : nl.gate(g).outputs) c += net_hpwl(nl, pl, out);
    return c;
  };

  double temperature = 8.0;
  const double cooling = std::pow(0.02 / temperature,
                                  1.0 / std::max(1L, moves));
  for (long m = 0; m < moves; ++m, temperature *= cooling) {
    const GateId a = live[rng.below(live.size())];
    const GateId b = live[rng.below(live.size())];
    if (a == b) continue;
    const int wa = nl.cell_of(a).width_sites;
    const int wb = nl.cell_of(b).width_sites;
    if (wa != wb) continue;  // equal-width swaps keep legality trivial
    const double before = gate_nets_cost(a) + gate_nets_cost(b);
    std::swap(pl.pos[a.value()], pl.pos[b.value()]);
    const double after = gate_nets_cost(a) + gate_nets_cost(b);
    const double delta = after - before;
    if (delta > 0 && rng.uniform() >= std::exp(-delta / temperature)) {
      std::swap(pl.pos[a.value()], pl.pos[b.value()]);  // reject
    }
  }
  return pl;
}

std::optional<Placement> incremental_place(const Netlist& nl,
                                           const Placement& previous,
                                           std::uint64_t seed) {
  Placement pl;
  pl.plan = previous.plan;
  pl.pos.assign(nl.gate_capacity(), {});

  SiteMap sites(pl.plan);
  std::vector<GateId> fresh;
  for (GateId g : nl.live_gates()) {
    const bool survived = g.value() < previous.pos.size() &&
                          previous.pos[g.value()].valid();
    if (survived) {
      pl.pos[g.value()] = previous.pos[g.value()];
      sites.occupy(pl.pos[g.value()].x, pl.pos[g.value()].y,
                   nl.cell_of(g).width_sites);
    } else {
      fresh.push_back(g);
    }
  }

  Rng rng(seed);
  for (GateId g : fresh) {
    // Centroid of already-placed neighbors.
    double sx = 0, sy = 0;
    int n = 0;
    const auto consider = [&](GateId other) {
      if (!pl.pos[other.value()].valid()) return;
      const auto [x, y] = pl.pin_of(other, nl.cell_of(other).width_sites);
      sx += x;
      sy += y;
      ++n;
    };
    for (NetId in : nl.gate(g).fanin) {
      const auto& net = nl.net(in);
      if (net.has_gate_driver()) consider(net.driver_gate);
    }
    for (NetId out : nl.gate(g).outputs) {
      for (const PinRef& sink : nl.net(out).sinks) consider(sink.gate);
    }
    int tx, ty;
    if (n > 0) {
      tx = static_cast<int>(sx / n);
      ty = static_cast<int>(sy / n);
    } else {
      tx = static_cast<int>(rng.below(static_cast<std::uint64_t>(
          std::max(1, pl.plan.sites_per_row))));
      ty = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(std::max(1, pl.plan.rows))));
    }
    const int w = nl.cell_of(g).width_sites;
    int x, y;
    if (!sites.find_nearest(tx, ty, w, x, y)) {
      return std::nullopt;  // area constraint violated
    }
    sites.occupy(x, y, w);
    pl.pos[g.value()] = {x, y};
  }
  return pl;
}

}  // namespace dfmres
