#include "src/util/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "src/util/json.hpp"

namespace dfmres {

void MetricsRegistry::add(std::string_view counter, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(counter);
  if (it == counters_.end()) {
    counters_.emplace(std::string(counter), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view gauge, double value) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(gauge);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(gauge), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view histogram, double value) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(histogram);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(histogram), RunningStats{}).first;
  }
  it->second.add(value);
}

void MetricsRegistry::sample(std::string_view series, double x, double y) {
  std::lock_guard lock(mutex_);
  auto it = series_.find(series);
  if (it == series_.end()) {
    it = series_.emplace(std::string(series), std::vector<MetricSample>{})
             .first;
  }
  it->second.push_back(MetricSample{x, y});
}

void MetricsRegistry::absorb(const AtpgCounters& counters,
                             std::string_view prefix) {
  const std::string p(prefix);
  add(p + "patterns_simulated", counters.patterns_simulated);
  add(p + "detect_mask_calls", counters.detect_mask_calls);
  add(p + "propagation_events", counters.propagation_events);
  add(p + "obs_propagations", counters.obs_propagations);
  add(p + "podem_backtracks", counters.podem_backtracks);
  add(p + "replay_drops", counters.replay_drops);
  add(p + "cancelled_targets", counters.cancelled_targets);
  add(p + "frame_bytes_materialized", counters.frame_bytes_materialized);
  add(p + "full_loads", counters.full_loads);
  add(p + "overlay_loads", counters.overlay_loads);
  add(p + "overlay_dirty_nets", counters.overlay_dirty_nets);
  add(p + "overlay_verified_batches", counters.overlay_verified_batches);
  add(p + "overlay_verify_mismatches", counters.overlay_verify_mismatches);
  add(p + "podem_handoffs", counters.podem_handoffs);
  add(p + "sat_calls", counters.sat_calls);
  add(p + "sat_conflicts", counters.sat_conflicts);
  add(p + "sat_detected", counters.sat_detected);
  add(p + "sat_undetectable", counters.sat_undetectable);
  add(p + "sat_aborted", counters.sat_aborted);
  add(p + "sat_clauses", counters.sat_clauses);
  add(p + "proof_memo_hits", counters.proof_memo_hits);
  add(p + "memo_hits", counters.memo_hits);
  add(p + "verdict_stores", counters.verdict_stores);
  observe(p + "sat_seconds", counters.sat_seconds);
  observe(p + "load_seconds", counters.load_seconds);
  observe(p + "phase0_seconds", counters.phase0_seconds);
  observe(p + "phase1_seconds", counters.phase1_seconds);
  observe(p + "phase2_seconds", counters.phase2_seconds);
  observe(p + "phase3_seconds", counters.phase3_seconds);
  set_gauge(p + "threads_used", counters.threads_used);
}

void MetricsRegistry::merge(const MetricsRegistry& shard) {
  // Copy the shard under its own lock first; taking both locks at once
  // invites lock-order inversion if two registries ever merge into each
  // other.
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, RunningStats, std::less<>> histograms;
  std::map<std::string, std::vector<MetricSample>, std::less<>> series;
  {
    std::lock_guard lock(shard.mutex_);
    counters = shard.counters_;
    gauges = shard.gauges_;
    histograms = shard.histograms_;
    series = shard.series_;
  }
  std::lock_guard lock(mutex_);
  for (const auto& [name, v] : counters) counters_[name] += v;
  for (const auto& [name, v] : gauges) gauges_[name] = v;
  for (const auto& [name, v] : histograms) histograms_[name].merge(v);
  for (const auto& [name, v] : series) {
    auto& dst = series_[name];
    dst.insert(dst.end(), v.begin(), v.end());
    std::stable_sort(dst.begin(), dst.end(),
                     [](const MetricSample& a, const MetricSample& b) {
                       return a.x < b.x;
                     });
  }
}

Status MetricsRegistry::merge_json(const JsonValue& doc) {
  const auto bad = [](const char* what) {
    return make_status(StatusCode::kInvalidArgument,
                       "metrics document: %s", what);
  };
  if (!doc.is_object()) return bad("not an object");
  // Stage into a private registry first so a mid-document parse error
  // leaves this registry untouched, then reuse the deterministic merge.
  MetricsRegistry staged;
  for (const auto& [section, body] : doc.members()) {
    if (!body.is_object()) return bad("section is not an object");
    if (section == "counters") {
      for (const auto& [name, v] : body.members()) {
        if (!v.is_number() || v.as_number() < 0) return bad("bad counter");
        staged.counters_[name] = static_cast<std::uint64_t>(v.as_number());
      }
    } else if (section == "gauges") {
      for (const auto& [name, v] : body.members()) {
        if (!v.is_number()) return bad("bad gauge");
        staged.gauges_[name] = v.as_number();
      }
    } else if (section == "histograms") {
      for (const auto& [name, v] : body.members()) {
        const JsonValue* count = v.find("count");
        const JsonValue* sum = v.find("sum");
        const JsonValue* min = v.find("min");
        const JsonValue* max = v.find("max");
        if (count == nullptr || !count->is_number() ||
            count->as_number() < 0 || sum == nullptr || !sum->is_number() ||
            min == nullptr || !min->is_number() || max == nullptr ||
            !max->is_number()) {
          return bad("bad histogram");
        }
        staged.histograms_[name] = RunningStats::restore(
            static_cast<std::size_t>(count->as_number()), sum->as_number(),
            min->as_number(), max->as_number());
      }
    } else if (section == "series") {
      for (const auto& [name, points] : body.members()) {
        if (!points.is_array()) return bad("bad series");
        auto& dst = staged.series_[name];
        for (const JsonValue& p : points.items()) {
          if (!p.is_array() || p.items().size() != 2 ||
              !p.items()[0].is_number() || !p.items()[1].is_number()) {
            return bad("bad series point");
          }
          dst.push_back(
              MetricSample{p.items()[0].as_number(), p.items()[1].as_number()});
        }
      }
    } else {
      return bad("unknown section");
    }
  }
  merge(staged);
  return Status::ok();
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

RunningStats MetricsRegistry::histogram_stats(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? RunningStats{} : it->second;
}

std::vector<MetricSample> MetricsRegistry::series(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = series_.find(name);
  return it == series_.end() ? std::vector<MetricSample>{} : it->second;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : counters_) w.field(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : gauges_) w.field(name, v);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, v] : histograms_) {
    w.key(name);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(v.count()));
    w.field("sum", v.sum());
    w.field("min", v.min());
    w.field("max", v.max());
    w.field("mean", v.mean());
    w.end_object();
  }
  w.end_object();
  w.key("series");
  w.begin_object();
  for (const auto& [name, points] : series_) {
    w.key(name);
    w.begin_array();
    for (const MetricSample& p : points) {
      w.begin_array();
      w.value(p.x);
      w.value(p.y);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

Status MetricsRegistry::write_json(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return make_status(StatusCode::kInvalidArgument,
                       "cannot open metrics output '%s'", path.c_str());
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return make_status(StatusCode::kDataLoss,
                       "short write to metrics output '%s'", path.c_str());
  }
  return Status::ok();
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace dfmres
