#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "src/util/cancel.hpp"
#include "src/util/duration.hpp"
#include "src/util/ids.hpp"
#include "src/util/json.hpp"
#include "src/util/logging.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/union_find.hpp"

namespace dfmres {
namespace {

TEST(Ids, DefaultIsInvalid) {
  GateId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, GateId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  NetId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_NE(id, NetId{41});
  EXPECT_LT(NetId{41}, id);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(UnionFind, MergeAndFind) {
  UnionFind uf(10);
  EXPECT_EQ(uf.num_sets(), 10u);
  EXPECT_TRUE(uf.merge(0, 1));
  EXPECT_TRUE(uf.merge(1, 2));
  EXPECT_FALSE(uf.merge(0, 2));
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(0, 3));
  EXPECT_EQ(uf.num_sets(), 8u);
  EXPECT_EQ(uf.size_of(1), 3u);
}

TEST(UnionFind, TransitiveClosureMatchesBruteForce) {
  Rng rng(99);
  const std::size_t n = 64;
  UnionFind uf(n);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int i = 0; i < 40; ++i) {
    edges.emplace_back(rng.below(n), rng.below(n));
    uf.merge(edges.back().first, edges.back().second);
  }
  // Brute-force reachability.
  std::vector<std::uint32_t> label(n);
  for (std::uint32_t i = 0; i < n; ++i) label[i] = i;
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto [a, b] : edges) {
      const std::uint32_t m = std::min(label[a], label[b]);
      if (label[a] != m || label[b] != m) {
        label[a] = label[b] = m;
        changed = true;
      }
    }
    // Propagate labels through shared labels.
    for (std::uint32_t i = 0; i < n; ++i) {
      if (label[label[i]] != label[i]) {
        label[i] = label[label[i]];
        changed = true;
      }
    }
  }
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      EXPECT_EQ(uf.same(a, b), label[a] == label[b]) << a << "," << b;
    }
  }
}

TEST(Stats, RunningStats) {
  RunningStats s;
  for (double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

// Regression: the first sample must seed min/max even when every value is
// negative (a zero-initialized min_ of 0.0 would win otherwise).
TEST(Stats, RunningStatsNegativeOnlySamples) {
  RunningStats s;
  for (double x : {-5.0, -1.0, -3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), -1.0);
  EXPECT_DOUBLE_EQ(s.mean(), -3.0);
}

TEST(Stats, RunningStatsMerge) {
  RunningStats a, b, empty;
  for (double x : {-2.0, -8.0}) a.add(x);
  for (double x : {4.0, 6.0}) b.add(x);

  RunningStats seeded;
  seeded.merge(a);  // merge into empty adopts the source verbatim
  EXPECT_EQ(seeded.count(), 2u);
  EXPECT_DOUBLE_EQ(seeded.min(), -8.0);
  EXPECT_DOUBLE_EQ(seeded.max(), -2.0);

  a.merge(empty);  // merging an empty accumulator is a no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.max(), -2.0);

  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.min(), -8.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
}

TEST(Stats, Histogram) {
  std::vector<double> v{0.1, 0.2, 0.9, 1.5, -3.0};
  auto h = histogram(v, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 3u);  // 0.1, 0.2, -3.0 (clamped)
  EXPECT_EQ(h[1], 2u);  // 0.9, 1.5 (clamped)
}

// Regression: degenerate bin requests must not divide by zero or index
// out of range.
TEST(Stats, HistogramDegenerateEdges) {
  std::vector<double> v{0.5, 1.5};
  EXPECT_TRUE(histogram(v, 0.0, 1.0, 0).empty());
  const auto inverted = histogram(v, 1.0, 0.0, 3);
  ASSERT_EQ(inverted.size(), 3u);
  EXPECT_EQ(inverted[0] + inverted[1] + inverted[2], 0u);
  const auto collapsed = histogram(v, 2.0, 2.0, 2);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0] + collapsed[1], 0u);
}

TEST(Stats, AtpgCountersMergeAndFormat) {
  AtpgCounters a, b;
  a.patterns_simulated = 10;
  a.propagation_events = 5;
  a.phase1_seconds = 0.5;
  a.threads_used = 2;
  b.patterns_simulated = 3;
  b.podem_backtracks = 7;
  b.phase1_seconds = 0.25;
  b.threads_used = 4;
  a.memo_hits = 2;
  b.memo_hits = 5;
  b.verdict_stores = 9;
  b.obs_propagations = 4;
  a.proof_memo_hits = 1;
  b.proof_memo_hits = 6;
  a.cone_proof_hits = 1;
  b.cone_proof_hits = 2;
  a.sat_clauses = 40;
  b.sat_clauses = 2;
  a.merge(b);
  EXPECT_EQ(a.patterns_simulated, 13u);
  EXPECT_EQ(a.podem_backtracks, 7u);
  EXPECT_EQ(a.memo_hits, 7u);
  EXPECT_EQ(a.verdict_stores, 9u);
  EXPECT_EQ(a.obs_propagations, 4u);
  EXPECT_EQ(a.proof_memo_hits, 7u);
  EXPECT_EQ(a.cone_proof_hits, 3u);
  EXPECT_DOUBLE_EQ(a.phase1_seconds, 0.75);
  EXPECT_EQ(a.threads_used, 4);
  EXPECT_NE(a.summary().find("13 patterns"), std::string::npos);
  EXPECT_NE(a.json().find("\"podem_backtracks\": 7"), std::string::npos);
  EXPECT_NE(a.summary().find("7 proof memo hits (3 by cone)"),
            std::string::npos);
  EXPECT_NE(a.json().find("\"proof_memo_hits\": 7"), std::string::npos);
  EXPECT_NE(a.json().find("\"cone_proof_hits\": 3"), std::string::npos);
  EXPECT_NE(a.summary().find("42 clauses"), std::string::npos);
  EXPECT_NE(a.json().find("\"sat_clauses\": 42"), std::string::npos);
  // Metrics-registry only: the CLI line and the run-report schema stay
  // fixed.
  EXPECT_EQ(a.json().find("obs_propagations"), std::string::npos);
  EXPECT_EQ(a.summary().find("obs"), std::string::npos);
}

TEST(Duration, ParsesSuffixedSpecs) {
  using std::chrono::nanoseconds;
  EXPECT_EQ(parse_duration_spec("500ms").value(), nanoseconds(500'000'000));
  EXPECT_EQ(parse_duration_spec("30s").value(), nanoseconds(30'000'000'000));
  EXPECT_EQ(parse_duration_spec("2m").value(), nanoseconds(120'000'000'000));
  EXPECT_EQ(parse_duration_spec("0.25s").value(), nanoseconds(250'000'000));
  EXPECT_EQ(parse_duration_spec("7").value(), nanoseconds(7'000'000'000));
}

TEST(Duration, RejectsNonPositiveAndOverflow) {
  const auto code = [](const char* text) {
    const auto d = parse_duration_spec(text);
    return d ? StatusCode::kOk : d.status().code();
  };
  // Negative, zero and underflow-to-zero all mean "no deadline" to the
  // consumers — never what a spec author intended.
  EXPECT_EQ(code("-3s"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("0"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("0ms"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("1e-400s"), StatusCode::kInvalidArgument);
  // Overflow: strtod ERANGE, explicit inf/nan, and values that would
  // overflow the nanosecond cast.
  EXPECT_EQ(code("1e400s"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("1e300s"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("inf"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("nan"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("1e10s"), StatusCode::kInvalidArgument);  // > 1e9 seconds
  // Garbage and trailing junk.
  EXPECT_EQ(code(""), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("abc"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("12x"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("1.2.3s"), StatusCode::kInvalidArgument);
  // The message locates the offending spec and says why.
  const auto bad = parse_duration_spec("-3s");
  ASSERT_FALSE(bad);
  EXPECT_NE(bad.status().message().find("'-3s'"), std::string::npos);
  EXPECT_NE(bad.status().message().find("must be positive"),
            std::string::npos);
  const auto huge = parse_duration_spec("1e300s");
  ASSERT_FALSE(huge);
  EXPECT_NE(huge.status().message().find("out of range"), std::string::npos);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5);
  EXPECT_GE(ThreadPool::resolve_threads(-3), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1337);
  pool.parallel_for(hits.size(), 7, 4, [&](int, std::size_t b, std::size_t e) {
    EXPECT_LE(e - b, 7u);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, LaneIdsStayWithinBudget) {
  ThreadPool pool(8);
  for (const int budget : {1, 2, 5}) {
    std::atomic<int> max_lane{0};
    pool.parallel_for(10000, 3, budget,
                      [&](int lane, std::size_t, std::size_t) {
                        int seen = max_lane.load();
                        while (lane > seen &&
                               !max_lane.compare_exchange_weak(seen, lane)) {
                        }
                      });
    EXPECT_LT(max_lane.load(), budget) << "budget " << budget;
  }
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> out(100, 0);
  pool.parallel_for(out.size(), 8, 4, [&](int lane, std::size_t b,
                                          std::size_t e) {
    EXPECT_EQ(lane, 0);
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<int>(i);
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPool, ManyBackToBackJobs) {
  // Stresses job handoff: parked workers must pick up each new
  // generation and the caller must never return before all chunks ran.
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint32_t> out(97 + round, 0);
    pool.parallel_for(out.size(), 4, 3, [&](int, std::size_t b,
                                            std::size_t e) {
      for (std::size_t i = b; i < e; ++i) out[i] = static_cast<std::uint32_t>(2 * i);
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], 2 * i) << "round " << round;
    }
  }
}

TEST(ThreadPool, SharedPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 4);  // floor lets 1-core machines exercise threads
  std::atomic<std::uint64_t> sum{0};
  a.parallel_for(1000, 16, a.size(), [&](int, std::size_t b2, std::size_t e) {
    std::uint64_t local = 0;
    for (std::size_t i = b2; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 999u * 1000u / 2u);
}

TEST(ThreadPool, LanesPerJobSplitsTheBudget) {
  EXPECT_EQ(ThreadPool::lanes_per_job(8, 2), 4);
  EXPECT_EQ(ThreadPool::lanes_per_job(8, 3), 2);
  EXPECT_EQ(ThreadPool::lanes_per_job(4, 4), 1);
  // Oversubscribed job counts floor at one lane each.
  EXPECT_EQ(ThreadPool::lanes_per_job(2, 8), 1);
  EXPECT_EQ(ThreadPool::lanes_per_job(0, 3), 1);
  EXPECT_EQ(ThreadPool::lanes_per_job(8, 0), 8);
  // jobs * inner <= max(total, jobs) for representative splits.
  for (const int total : {1, 2, 4, 8, 13}) {
    for (const int jobs : {1, 2, 3, 7, 16}) {
      const int inner = ThreadPool::lanes_per_job(total, jobs);
      EXPECT_GE(inner, 1);
      EXPECT_LE(jobs * inner, std::max(total, jobs))
          << total << "/" << jobs;
    }
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a pool lane must degenerate to an
  // inline serial loop (never re-enter the pool), so concurrent jobs
  // cannot deadlock or oversubscribe through nesting.
  ThreadPool pool(3);
  EXPECT_FALSE(ThreadPool::in_pool_lane());
  std::atomic<int> inner_nonzero_lanes{0};
  std::atomic<int> outer_chunks{0};
  pool.parallel_for(12, 1, 3, [&](int, std::size_t b, std::size_t e) {
    outer_chunks.fetch_add(1);
    EXPECT_TRUE(ThreadPool::in_pool_lane());
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for(64, 4, 3, [&](int lane, std::size_t, std::size_t) {
        if (lane != 0) inner_nonzero_lanes.fetch_add(1);
      });
    }
  });
  EXPECT_FALSE(ThreadPool::in_pool_lane());
  EXPECT_EQ(outer_chunks.load(), 12);
  EXPECT_EQ(inner_nonzero_lanes.load(), 0);
}

TEST(Cancel, ParentCancellationReachesChildren) {
  CancelToken parent;
  const CancelToken child(Deadline::never(), &parent);
  EXPECT_FALSE(child.expired());
  parent.cancel();
  EXPECT_TRUE(child.expired());
  EXPECT_EQ(child.to_status().code(), StatusCode::kCancelled);
}

TEST(Cancel, ChildDeadlineDoesNotPropagateUpward) {
  CancelToken parent;
  const CancelToken child(Deadline::after(std::chrono::nanoseconds(1)),
                          &parent);
  EXPECT_TRUE(child.has_deadline());
  EXPECT_TRUE(child.expired());
  EXPECT_EQ(child.to_status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(parent.expired());
}

TEST(Cancel, ParentDeadlineCountsAsDeadlineForChildren) {
  const CancelToken parent =
      CancelToken::with_deadline(std::chrono::nanoseconds(1));
  const CancelToken child(Deadline::never(), &parent);
  EXPECT_TRUE(child.has_deadline());
  EXPECT_TRUE(child.expired());
  EXPECT_EQ(child.to_status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Json, ParsesScalarsAndContainers) {
  const auto doc = JsonValue::parse(
      " {\"s\": \"a\\n\\\"b\\\"\\u0041\", \"n\": -2.5e2, \"t\": true, "
      "\"f\": false, \"z\": null, \"arr\": [1, 2, 3], \"obj\": {}} ");
  ASSERT_TRUE(doc) << doc.status().to_string();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("s")->as_string(), "a\n\"b\"A");
  EXPECT_DOUBLE_EQ(doc->find("n")->as_number(), -250.0);
  EXPECT_TRUE(doc->find("t")->as_bool());
  EXPECT_FALSE(doc->find("f")->as_bool());
  EXPECT_TRUE(doc->find("z")->is_null());
  ASSERT_EQ(doc->find("arr")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc->find("arr")->items()[2].as_number(), 3.0);
  EXPECT_TRUE(doc->find("obj")->members().empty());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "a \"quoted\"\tname");
  w.field("count", std::uint64_t{42});
  w.key("nested");
  w.begin_array();
  w.value(1.5);
  w.value(false);
  w.end_array();
  w.end_object();
  const auto doc = JsonValue::parse(w.str());
  ASSERT_TRUE(doc) << doc.status().to_string();
  EXPECT_EQ(doc->find("name")->as_string(), "a \"quoted\"\tname");
  EXPECT_DOUBLE_EQ(doc->find("count")->as_number(), 42.0);
  EXPECT_FALSE(doc->find("nested")->items()[1].as_bool());
}

TEST(Json, RejectsMalformedInput) {
  const auto code = [](const char* text) {
    const auto doc = JsonValue::parse(text);
    return doc ? StatusCode::kOk : doc.status().code();
  };
  EXPECT_EQ(code(""), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("{"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("{} extra"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("{\"a\": 1,}"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("[1 2]"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("truth"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("01"), StatusCode::kInvalidArgument);  // leading zero
  EXPECT_EQ(code("1."), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("\"unterminated"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("\"bad \\x escape\""), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("NaN"), StatusCode::kInvalidArgument);
  // Duplicate keys are rejected (strict manifests want one value per
  // key, not last-wins).
  EXPECT_EQ(code("{\"a\": 1, \"a\": 2}"), StatusCode::kInvalidArgument);
  // Errors carry a line:column locator.
  const auto err = JsonValue::parse("{\n  \"a\": @\n}");
  ASSERT_FALSE(err);
  EXPECT_NE(err.status().message().find("json 2:8"), std::string::npos)
      << err.status().message();
}

TEST(Json, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(JsonValue::parse(deep));
  std::string ok;
  for (int i = 0; i < 30; ++i) ok += "[";
  for (int i = 0; i < 30; ++i) ok += "]";
  EXPECT_TRUE(JsonValue::parse(ok));
}

std::mutex g_log_lines_mutex;
std::vector<std::string> g_log_lines;

void capture_log_line(std::string_view line) {
  std::lock_guard<std::mutex> lock(g_log_lines_mutex);
  g_log_lines.emplace_back(line);
}

// Lines must arrive at the sink whole — one callback per log() call with
// the `[seconds] [tid] [level]` prefix and trailing newline — even when
// many threads log at once.
TEST(Logging, SinkReceivesWholeLinesAcrossThreads) {
  {
    std::lock_guard<std::mutex> lock(g_log_lines_mutex);
    g_log_lines.clear();
  }
  const LogLevel saved_level = log_level();
  set_log_level(LogLevel::Info);
  set_log_sink(&capture_log_line);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        log_info("msg thread=%d seq=%d", t, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  set_log_sink(nullptr);
  set_log_level(saved_level);

  std::lock_guard<std::mutex> lock(g_log_lines_mutex);
  ASSERT_EQ(g_log_lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::string> unique;
  for (const std::string& line : g_log_lines) {
    EXPECT_EQ(line.front(), '[') << line;
    EXPECT_EQ(line.back(), '\n') << line;
    EXPECT_NE(line.find("[INFO] msg thread="), std::string::npos) << line;
    // Exactly one message per line — a torn write would duplicate "msg".
    EXPECT_EQ(line.find("msg"), line.rfind("msg")) << line;
    unique.insert(line.substr(line.find("msg")));
  }
  EXPECT_EQ(unique.size(), g_log_lines.size());
}

}  // namespace
}  // namespace dfmres
