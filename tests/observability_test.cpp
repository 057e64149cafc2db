#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/circuits/builder.hpp"
#include "src/core/flow.hpp"
#include "src/core/resynthesis.hpp"
#include "src/core/run_report.hpp"
#include "src/library/osu018.hpp"
#include "src/util/cancel.hpp"
#include "src/util/metrics.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/trace.hpp"

namespace dfmres {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON syntax checker: enough to prove the writers emit
// well-formed documents without pulling in a parser dependency. Returns
// the index one past the parsed value, or npos on a syntax error.
// ---------------------------------------------------------------------

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

std::size_t parse_value(const std::string& s, std::size_t i);

std::size_t parse_string(const std::string& s, std::size_t i) {
  if (i >= s.size() || s[i] != '"') return std::string::npos;
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
      continue;
    }
    if (s[i] == '"') return i + 1;
    if (static_cast<unsigned char>(s[i]) < 0x20) return std::string::npos;
  }
  return std::string::npos;
}

std::size_t parse_object(const std::string& s, std::size_t i) {
  ++i;  // consume '{'
  i = skip_ws(s, i);
  if (i < s.size() && s[i] == '}') return i + 1;
  while (i < s.size()) {
    i = parse_string(s, skip_ws(s, i));
    if (i == std::string::npos) return i;
    i = skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') return std::string::npos;
    i = parse_value(s, skip_ws(s, i + 1));
    if (i == std::string::npos) return i;
    i = skip_ws(s, i);
    if (i < s.size() && s[i] == ',') {
      i = skip_ws(s, i + 1);
      continue;
    }
    if (i < s.size() && s[i] == '}') return i + 1;
    return std::string::npos;
  }
  return std::string::npos;
}

std::size_t parse_array(const std::string& s, std::size_t i) {
  ++i;  // consume '['
  i = skip_ws(s, i);
  if (i < s.size() && s[i] == ']') return i + 1;
  while (i < s.size()) {
    i = parse_value(s, i);
    if (i == std::string::npos) return i;
    i = skip_ws(s, i);
    if (i < s.size() && s[i] == ',') {
      i = skip_ws(s, i + 1);
      continue;
    }
    if (i < s.size() && s[i] == ']') return i + 1;
    return std::string::npos;
  }
  return std::string::npos;
}

std::size_t parse_value(const std::string& s, std::size_t i) {
  i = skip_ws(s, i);
  if (i >= s.size()) return std::string::npos;
  switch (s[i]) {
    case '{': return parse_object(s, i);
    case '[': return parse_array(s, i);
    case '"': return parse_string(s, i);
    case 't': return s.compare(i, 4, "true") == 0 ? i + 4 : std::string::npos;
    case 'f': return s.compare(i, 5, "false") == 0 ? i + 5 : std::string::npos;
    case 'n': return s.compare(i, 4, "null") == 0 ? i + 4 : std::string::npos;
    default: {
      const std::size_t start = i;
      if (s[i] == '-') ++i;
      while (i < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
              s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
        ++i;
      }
      return i > start && i != start + (s[start] == '-' ? 1u : 0u)
                 ? i
                 : std::string::npos;
    }
  }
}

::testing::AssertionResult is_valid_json(const std::string& s) {
  const std::size_t end = parse_value(s, 0);
  if (end == std::string::npos) {
    return ::testing::AssertionFailure() << "JSON syntax error";
  }
  if (skip_ws(s, end) != s.size()) {
    return ::testing::AssertionFailure()
           << "trailing garbage at offset " << end;
  }
  return ::testing::AssertionSuccess();
}

/// Clears any events left over from other tests sharing the process-wide
/// tracer, runs enabled for the scope, disables on exit.
class ScopedTracing {
 public:
  ScopedTracing() {
    Tracer::instance().reset();
    Tracer::instance().enable();
  }
  ~ScopedTracing() {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  Tracer::instance().reset();
  ASSERT_FALSE(Tracer::instance().enabled());
  {
    TraceSpan span("obs.noop", "test");
    EXPECT_FALSE(span.active());
    span.arg("k", 1);
  }
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

TEST(Trace, SpanNestingPropagatesAcrossPoolWorkers) {
  ScopedTracing tracing;
  ThreadPool& pool = ThreadPool::shared();
  ASSERT_GE(pool.size(), 4);

  // On a single-core host the submitting thread can drain every chunk
  // before a worker wakes; hold each chunk until a second thread has
  // joined so the cross-thread propagation is actually exercised.
  std::mutex participants_mutex;
  std::set<std::thread::id> participants;
  const auto barrier_until_two_threads = [&] {
    {
      std::lock_guard<std::mutex> lock(participants_mutex);
      participants.insert(std::this_thread::get_id());
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < give_up) {
      {
        std::lock_guard<std::mutex> lock(participants_mutex);
        if (participants.size() >= 2) return;
      }
      std::this_thread::yield();
    }
  };

  std::uint64_t root_id = 0;
  {
    TraceSpan root("obs.root", "test");
    ASSERT_TRUE(root.active());
    root_id = root.id();
    pool.parallel_for(256, 8, pool.size(),
                      [&](int, std::size_t b, std::size_t e) {
                        TraceSpan work("obs.work", "test");
                        work.arg("items", static_cast<std::uint64_t>(e - b));
                        barrier_until_two_threads();
                      });
  }
  EXPECT_GE(participants.size(), 2u);

  // parallel_for returns once every chunk ran, but a worker's lane span
  // closes (and flushes) just after its last chunk completes — poll the
  // snapshot until every work span's parent lane span has landed.
  std::vector<TraceEvent> events;
  std::set<std::uint64_t> chunk_ids;
  std::set<std::uint32_t> chunk_tids;
  std::size_t work_spans = 0;
  const auto flush_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    events = Tracer::instance().snapshot();
    chunk_ids.clear();
    chunk_tids.clear();
    work_spans = 0;
    bool consistent = true;
    for (const TraceEvent& e : events) {
      if (std::string_view(e.name) == "pool.chunks") {
        chunk_ids.insert(e.id);
        chunk_tids.insert(e.tid);
      }
    }
    for (const TraceEvent& e : events) {
      if (std::string_view(e.name) == "obs.work") {
        ++work_spans;
        consistent = consistent && chunk_ids.count(e.parent) > 0;
      }
    }
    if (consistent) break;
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < flush_deadline);

  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) == "pool.chunks") {
      // Worker-side lane spans must nest under the submitting span even
      // though they run on different threads.
      EXPECT_EQ(e.parent, root_id);
    } else if (std::string_view(e.name) == "obs.work") {
      EXPECT_EQ(chunk_ids.count(e.parent), 1u)
          << "work span not parented to a pool lane span";
    }
  }
  EXPECT_GE(work_spans, 1u);
  ASSERT_FALSE(chunk_ids.empty());
  // The shared pool's floor guarantees real workers, so the lane spans
  // must come from more than one thread.
  EXPECT_GT(chunk_tids.size(), 1u);

  const std::string json = Tracer::instance().chrome_json();
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("obs.root"), std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

TEST(Metrics, ShardMergeMatchesSerialBitForBit) {
  // One thread feeding everything...
  MetricsRegistry serial;
  for (int i = 0; i < 40; ++i) {
    serial.add("c.events");
    serial.add("c.bytes", static_cast<std::uint64_t>(i));
    serial.observe("h.latency", 0.25 * i);
    serial.sample("s.progress", static_cast<double>(i), 100.0 - i);
  }
  serial.set_gauge("g.level", 7.5);

  // ...must serialize identically to four shards fed round-robin and
  // merged in lane order.
  MetricsRegistry shards[4];
  for (int i = 0; i < 40; ++i) {
    MetricsRegistry& shard = shards[i % 4];
    shard.add("c.events");
    shard.add("c.bytes", static_cast<std::uint64_t>(i));
    shard.observe("h.latency", 0.25 * i);
    shard.sample("s.progress", static_cast<double>(i), 100.0 - i);
  }
  MetricsRegistry merged;
  for (MetricsRegistry& shard : shards) merged.merge(shard);
  merged.set_gauge("g.level", 7.5);

  EXPECT_EQ(merged.counter("c.events"), 40u);
  EXPECT_EQ(merged.counter("c.bytes"), 40u * 39u / 2u);
  EXPECT_EQ(merged.series("s.progress").size(), 40u);
  EXPECT_EQ(serial.to_json(), merged.to_json());
  EXPECT_TRUE(is_valid_json(merged.to_json()));
}

TEST(Metrics, AbsorbAtpgCounters) {
  AtpgCounters counters;
  counters.patterns_simulated = 128;
  counters.detect_mask_calls = 9001;
  counters.phase2_seconds = 1.5;
  counters.threads_used = 4;
  counters.memo_hits = 40;
  counters.verdict_stores = 3;
  counters.proof_memo_hits = 11;
  counters.cone_proof_hits = 5;

  MetricsRegistry registry;
  registry.absorb(counters);
  registry.absorb(counters);  // second run accumulates
  EXPECT_EQ(registry.counter("atpg.patterns_simulated"), 256u);
  EXPECT_EQ(registry.counter("atpg.detect_mask_calls"), 18002u);
  EXPECT_EQ(registry.counter("atpg.memo_hits"), 80u);
  EXPECT_EQ(registry.counter("atpg.verdict_stores"), 6u);
  EXPECT_EQ(registry.counter("atpg.proof_memo_hits"), 22u);
  EXPECT_EQ(registry.counter("atpg.cone_proof_hits"), 10u);
  EXPECT_EQ(registry.histogram_stats("atpg.phase2_seconds").count(), 2u);
  EXPECT_DOUBLE_EQ(registry.histogram_stats("atpg.phase2_seconds").sum(), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("atpg.threads_used"), 4.0);
}

// ---------------------------------------------------------------------
// Run reports.
// ---------------------------------------------------------------------

TEST(RunReportTest, JsonRoundTripsThroughTheSyntaxChecker) {
  RunReport report("resyn", "unit_block");
  report.set_threads(4);
  report.set_fingerprint(0xdeadbeefcafe1234ull);
  report.set_runtime_seconds(12.5);

  AtpgCounters atpg;
  atpg.patterns_simulated = 77;
  report.set_atpg_totals(atpg);

  ResynthesisReport resyn;
  resyn.q_used = 5;
  resyn.any_accepted = true;
  resyn.candidates_built = 9;
  IterationRecord rec;
  rec.q = 5;
  rec.phase = 2;
  rec.smax = 11;
  rec.undetectable = 42;
  rec.accepted = true;
  rec.banned_through = "NAND2X1 \"quoted\"";  // exercises escaping
  rec.faults = 1000;
  rec.delay = 3.25;
  rec.power = 99.5;
  rec.seconds = 1.75;
  resyn.trace.push_back(rec);
  report.set_resynthesis(resyn);

  const std::string json = report.to_json();
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("\"schema\":\"dfmres-run-report-v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\":\"deadbeefcafe1234\""),
            std::string::npos);
  EXPECT_NE(json.find("\"partial\":false"), std::string::npos);
  EXPECT_NE(json.find("\"convergence\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"smax_pct\":1.1"), std::string::npos);
}

TEST(RunReportTest, ProbePhase2CountersReachReportMetricsAndCliLine) {
  ResynthesisReport resyn;
  resyn.probe_podem_handoffs = 12;
  resyn.probe_sat_detected = 2;
  resyn.probe_sat_undetectable = 10;
  resyn.probe_sat_clauses = 480;
  resyn.probe_sat_seconds = 0.25;
  resyn.probe_phase2_seconds = 0.5;
  resyn.probe_proof_memo_hits = 7;
  resyn.probe_cone_proof_hits = 3;
  RunReport report("resyn", "unit_block");
  report.set_resynthesis(resyn);
  const std::string json = report.to_json();
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("\"probe_podem_handoffs\":12"), std::string::npos);
  EXPECT_NE(json.find("\"probe_proof_memo_hits\":7"), std::string::npos);
  EXPECT_NE(json.find("\"probe_cone_proof_hits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"probe_sat_clauses\":480"), std::string::npos);
  MetricsRegistry registry;
  publish_metrics(resyn, registry);
  EXPECT_EQ(registry.counter("resyn.probe_sat_undetectable"), 10u);
  EXPECT_EQ(registry.counter("resyn.probe_proof_memo_hits"), 7u);
  EXPECT_EQ(registry.counter("resyn.probe_cone_proof_hits"), 3u);
  EXPECT_EQ(registry.counter("resyn.probe_sat_clauses"), 480u);
  EXPECT_DOUBLE_EQ(registry.histogram_stats("resyn.probe_phase2_seconds").sum(),
                   0.5);
  EXPECT_EQ(resyn.probe_atpg_summary(),
            "atpg (probes): phase 2 0.500s, 12 handoffs, sat 2 D/10 U/0 A "
            "(480 clauses, 0.250s), 7 proof memo hits (3 by cone)");
}

TEST(RunReportTest, PublishMetricsEmitsConvergenceSeries) {
  ResynthesisReport resyn;
  for (int i = 0; i < 3; ++i) {
    IterationRecord rec;
    rec.seconds = 0.5 * (i + 1);
    rec.undetectable = 30 - i;
    rec.smax = 20 - i;
    rec.faults = 100;
    rec.accepted = i != 1;
    resyn.trace.push_back(rec);
  }
  MetricsRegistry registry;
  publish_metrics(resyn, registry);
  EXPECT_EQ(registry.counter("resyn.candidates_recorded"), 3u);
  EXPECT_EQ(registry.counter("resyn.accepted"), 2u);
  const auto series = registry.series("resyn.series.undetectable");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].x, 0.5);
  EXPECT_DOUBLE_EQ(series[2].y, 28.0);
}

/// Same registered datapath as core_test / resilience_test: rich enough
/// to produce undetectable internal faults, small enough for a unit test.
Netlist small_block() {
  CircuitBuilder cb("small");
  const auto a = cb.dff_bus(cb.input_bus("a", 6));
  const auto b = cb.dff_bus(cb.input_bus("b", 6));
  const NetId cin = cb.input("cin");
  auto [sum, carry] = cb.ripple_add(a, b, cin);
  cb.output_bus(cb.dff_bus(sum));
  cb.output(carry);
  cb.output(cb.equals(a, b));
  cb.output(cb.xor_n(sum));
  return cb.take();
}

FlowOptions fast_options() {
  FlowOptions options;
  options.atpg.random_batches = 4;
  options.atpg.backtrack_limit = 2000;
  return options;
}

TEST(RunReportTest, DeadlineExpiryProducesPartialReport) {
  DesignFlow flow(osu018_library(), fast_options());
  const FlowState original = flow.run_initial(small_block()).value();

  // A pre-expired deadline: the procedure returns immediately with the
  // original design, and the report must say so rather than masquerade
  // as a completed run.
  const CancelToken token =
      CancelToken::with_deadline(std::chrono::nanoseconds(0));
  ResynthesisOptions options;
  options.cancel = &token;
  const ResynthesisResult result =
      resynthesize(flow, original, options).value();
  ASSERT_TRUE(result.report.deadline_expired);

  RunReport report("resyn", "small");
  report.set_initial(original);
  report.set_final(result.state);
  report.set_resynthesis(result.report);

  const std::string json = report.to_json();
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("\"partial\":true"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_expired\":true"), std::string::npos);
  EXPECT_NE(json.find("\"initial\""), std::string::npos);
  EXPECT_NE(json.find("\"final\""), std::string::npos);
}

}  // namespace
}  // namespace dfmres
