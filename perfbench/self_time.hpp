#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/trace.hpp"

namespace perfbench {

/// Per-span-name totals over a Tracer snapshot.
struct SpanTotals {
  /// Sum over spans of (duration minus the part of the span's interval
  /// covered by its children recorded on the same thread), seconds.
  std::map<std::string, double> self_s;
  /// Sum of whole durations, seconds.
  std::map<std::string, double> total_s;
  std::map<std::string, std::uint64_t> count;
  /// Sum of durations of root spans (parent 0) of category `root_cat`.
  double root_s = 0.0;
};

/// Self time per span name. Children on other threads (thread-pool lanes
/// inheriting a parent) are not subtracted: the parent's thread was
/// waiting for them, and that wait is the parent's own time.
[[nodiscard]] SpanTotals span_totals(const std::vector<dfmres::TraceEvent>& events,
                                     const char* root_cat);

/// Checks span_totals on a hand-built span tree with nested, sibling and
/// cross-thread children. Returns an empty string on success, otherwise a
/// description of the first mismatch.
[[nodiscard]] std::string self_time_selftest();

}  // namespace perfbench
