#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dfmres {

/// Pending gates of one event-driven wave, bucketed by combinational
/// level (CombView::level): push is O(1), and pop returns a gate of the
/// lowest pending level, walking a cursor upward over the buckets.
///
/// Levels strictly increase along every combinational edge, so a wave
/// that pushes only sinks of gates it has popped never pushes below the
/// cursor, and it evaluates each gate after every scheduled predecessor.
/// The order among gates of one level is unspecified (LIFO): no gate
/// reads another of its level, so it cannot change any value.
///
/// The queue stores each push; callers that may schedule a gate twice
/// dedupe with their own marks. Buffers only grow, so a queue reused
/// across waves and rebinds stops allocating once warm.
class LevelQueue {
 public:
  /// Drops every pending gate and accepts levels [0, num_levels).
  void reset(std::size_t num_levels) {
    clear();
    if (buckets_.size() < num_levels) buckets_.resize(num_levels);
    num_levels_ = num_levels;
  }

  /// Drops every pending gate.
  void clear() {
    for (std::size_t l = lo_; size_ != 0; ++l) {
      size_ -= buckets_[l].size();
      buckets_[l].clear();
    }
  }

  void push(std::uint32_t level, std::uint32_t gate) {
    assert(level < num_levels_);
    if (size_ == 0 || level < lo_) lo_ = level;
    buckets_[level].push_back(gate);
    ++size_;
  }

  /// Removes and returns a gate of the lowest pending level; the queue
  /// must not be empty.
  std::uint32_t pop() {
    assert(size_ > 0);
    while (buckets_[lo_].empty()) ++lo_;
    std::vector<std::uint32_t>& bucket = buckets_[lo_];
    const std::uint32_t gate = bucket.back();
    bucket.pop_back();
    --size_;
    return gate;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::size_t num_levels_ = 0;
  std::size_t size_ = 0;
  // While size_ > 0, no pending gate sits below bucket lo_.
  std::size_t lo_ = 0;
};

}  // namespace dfmres
