#include "perfbench/self_time.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {

using dfmres::TraceEvent;

SpanTotals span_totals(const std::vector<TraceEvent>& events,
                       const char* root_cat) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < events.size(); ++i) {
    index_of.emplace(events[i].id, i);
  }
  // Child intervals per parent, same thread only.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      events.size());
  for (const TraceEvent& e : events) {
    if (e.parent == 0) continue;
    const auto it = index_of.find(e.parent);
    if (it == index_of.end() || events[it->second].tid != e.tid) continue;
    children[it->second].emplace_back(e.start_ns, e.start_ns + e.dur_ns);
  }

  SpanTotals out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const std::uint64_t lo = e.start_ns;
    const std::uint64_t hi = e.start_ns + e.dur_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the child intervals, clipped to [lo, hi).
    std::uint64_t covered = 0;
    std::uint64_t cursor = lo;
    for (const auto& [a, b] : kids) {
      const std::uint64_t from = std::max(a, cursor);
      const std::uint64_t to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    const double self = static_cast<double>(e.dur_ns - covered) * 1e-9;
    const std::string name = e.name;
    out.self_s[name] += self;
    out.total_s[name] += static_cast<double>(e.dur_ns) * 1e-9;
    ++out.count[name];
    if (e.parent == 0 && std::strcmp(e.cat, root_cat) == 0) {
      out.root_s += static_cast<double>(e.dur_ns) * 1e-9;
    }
  }
  return out;
}

std::string self_time_selftest() {
  // root [0,100) on thread 0
  //   a [10,40)            thread 0
  //     a1 [15,25)         thread 0
  //     a2 [20,30)         thread 0 (overlaps a1: the union counts once)
  //   b [50,60)            thread 0
  //   lane [20,90)         thread 1, parent root: not subtracted
  //   (a second "b" span [70,75) shows that names aggregate)
  const auto ev = [](const char* name, std::uint64_t start, std::uint64_t end,
                     std::uint64_t id, std::uint64_t parent,
                     std::uint32_t tid) {
    TraceEvent e;
    e.name = name;
    e.cat = parent == 0 ? "perfbench" : "test";
    e.start_ns = start * 1000000000ull;
    e.dur_ns = (end - start) * 1000000000ull;
    e.id = id;
    e.parent = parent;
    e.tid = tid;
    return e;
  };
  const std::vector<TraceEvent> events = {
      ev("root", 0, 100, 1, 0, 0), ev("a", 10, 40, 2, 1, 0),
      ev("a1", 15, 25, 3, 2, 0),   ev("a2", 20, 30, 4, 2, 0),
      ev("b", 50, 60, 5, 1, 0),    ev("lane", 20, 90, 6, 1, 1),
      ev("b", 70, 75, 7, 1, 0),
  };
  const SpanTotals t = span_totals(events, "perfbench");
  const std::pair<const char*, double> want[] = {
      {"root", 100.0 - 30.0 - 10.0 - 5.0},
      {"a", 30.0 - 15.0},
      {"a1", 10.0},
      {"a2", 10.0},
      {"b", 15.0},
      {"lane", 70.0},
  };
  for (const auto& [name, self] : want) {
    const auto it = t.self_s.find(name);
    const double got = it == t.self_s.end() ? -1.0 : it->second;
    if (std::fabs(got - self) > 1e-9) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "self(%s) = %g, want %g", name, got,
                    self);
      return buf;
    }
  }
  if (t.count.at("b") != 2 || std::fabs(t.root_s - 100.0) > 1e-9) {
    return "span counts or root total wrong";
  }
  return "";
}

}  // namespace perfbench
