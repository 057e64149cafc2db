// The repository benchmark program. Each workload runs through the public
// entry points users call (DesignFlow::run_initial, resynthesize, the
// `dfmres serve` socket), checks every output, and prints one JSON line:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same operations once untraced and once traced and reports the
// per-layer metrics: self times of the spans the program already records
// plus the benchmark's own spans around each public call. Workloads:
//
//   flow_abort_heavy   run_initial on sparc_ffu and aes_core at default
//                      FlowOptions (PODEM aborts dominate)
//   resyn_probe_heavy  run_initial + resynthesize on des_perf at the CLI
//                      defaults (many small warm overlay ATPG probes)
//   serve_small_jobs   an in-process serve daemon fed an open-loop stream
//                      of single-job sparc_tlu flow requests
//
// The workload seed becomes AtpgOptions::seed (and the serve jobs' seed);
// the fault-simulation lane count is pinned to kLanes.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/self_time.hpp"
#include "src/atpg/excitation.hpp"
#include "src/circuits/benchmarks.hpp"
#include "src/core/flow.hpp"
#include "src/core/request.hpp"
#include "src/core/resynthesis.hpp"
#include "src/core/serve.hpp"
#include "src/library/osu018.hpp"
#include "src/sim/parallel_sim.hpp"
#include "src/util/json.hpp"
#include "src/util/rng.hpp"
#include "src/util/trace.hpp"

using namespace dfmres;

namespace {

using Clock = std::chrono::steady_clock;

/// Fault-simulation lanes of every ATPG run (and the serve jobs' inner
/// budget). One lane keeps run-to-run spread low; at or below nproc.
constexpr int kLanes = 1;
/// Timed rounds per batch run, at least: the determinism guard compares
/// the verdict digests of repeated rounds.
constexpr int kMinRounds = 2;
/// Set-up samples per run (set-up is tens of milliseconds, so it is
/// repeated beyond the rounds' own set-ups and the median reported).
constexpr int kSetupSamples = 9;
/// serve_small_jobs: open-loop arrival rate and the minimum number of
/// requests per run. One worker serves ~11 jobs/s; 4/s leaves headroom
/// for 2x CPU-speed swings, which at 6/s drove the daemon to saturation
/// and its latency spread far past the bound. The host runs in fast and
/// slow phases of seconds to tens of seconds, so the stream is made as
/// long (35 s) as the benchmark's time budget allows.
constexpr double kServeRate = 4.0;
constexpr int kServeMinJobs = 140;
/// Distinct jobs in the stream (request i runs job i % kServeJobs, each
/// with its own ATPG seed drawn from the workload seed).
constexpr int kServeJobs = 8;
/// Daemon workers. At 4/s a job (~90 ms) rarely overlaps the next, and
/// each idle worker polls the ready queue every millisecond: with four,
/// the mean latency spread over eight seeds was ~3x that with one.
constexpr int kServeWorkers = 1;
/// One request that takes longer than this counts as failed.
constexpr int kRequestTimeoutMs = 60000;
/// The wire protocol bounds a job seed to 9e15.
constexpr std::uint64_t kMaxWireSeed = 9000000000000000ull;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile, p in (0, 1].
double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// ---- result ledger ------------------------------------------------------

/// Operations attempted and failed; a failed operation is one whose
/// output check found a problem (or that returned an error).
struct Ops {
  long attempted = 0;
  long failed = 0;

  void record(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) note("FAILED %s: %s", what.c_str(), p.c_str());
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Ops& ops, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ops.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
           value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- output checks --------------------------------------------------------

/// Per-block verdict digest: FNV-1a over the per-fault status vector,
/// then the compacted test count T.
std::uint64_t verdict_digest(const AtpgResult& atpg) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const FaultStatus s : atpg.status) mix(static_cast<std::uint64_t>(s));
  for (int shift = 0; shift < 64; shift += 8) {
    mix((static_cast<std::uint64_t>(atpg.tests.size()) >> shift) & 0xff);
  }
  return h;
}

/// Every fault has a verdict, the counts add up, and every fault marked
/// Detected is detected by the returned compacted test set when replayed
/// through a fresh FaultSimulator.
std::vector<std::string> check_state(const FlowState& s, const UdfmMap& udfm) {
  std::vector<std::string> problems;
  const AtpgResult& a = s.atpg;
  std::size_t d = 0, u = 0, ab = 0, unknown = 0;
  for (const FaultStatus st : a.status) {
    switch (st) {
      case FaultStatus::Detected: ++d; break;
      case FaultStatus::Undetectable: ++u; break;
      case FaultStatus::Aborted: ++ab; break;
      case FaultStatus::Unknown: ++unknown; break;
    }
  }
  const std::size_t f = s.universe.size();
  if (unknown != 0) problems.push_back(std::to_string(unknown) + " faults left Unknown");
  if (a.status.size() != f || d + u + ab != f || d != a.num_detected ||
      u != a.num_undetectable || ab != a.num_aborted) {
    problems.push_back("D + U + A != F (" + std::to_string(a.num_detected) + " + " +
                       std::to_string(a.num_undetectable) + " + " +
                       std::to_string(a.num_aborted) + " vs " + std::to_string(f) + ")");
  }
  if (a.status.size() != f) return problems;

  std::vector<std::uint32_t> pending;
  for (std::uint32_t i = 0; i < f; ++i) {
    if (a.status[i] == FaultStatus::Detected) pending.push_back(i);
  }
  std::vector<std::vector<Excitation>> excitations(f);
  for (const std::uint32_t i : pending) {
    excitations[i] = build_excitations(s.universe.faults[i], s.netlist, udfm);
  }
  const CombView view = CombView::build(s.netlist);
  FaultSimulator sim(s.netlist, view);
  const auto capacity = static_cast<std::size_t>(sim.lane_capacity());
  for (std::size_t first = 0; first < a.tests.size() && !pending.empty();
       first += capacity) {
    sim.load(a.tests, first, std::min(capacity, a.tests.size() - first));
    std::vector<std::uint32_t> still;
    for (const std::uint32_t i : pending) {
      std::array<std::uint64_t, kMaxSimWords> masks{};
      sim.detect_masks(excitations[i], masks.data());
      bool hit = false;
      for (int g = 0; g < sim.groups(); ++g) hit = hit || masks[g] != 0;
      if (!hit) still.push_back(i);
    }
    pending = std::move(still);
  }
  if (!pending.empty()) {
    problems.push_back(std::to_string(pending.size()) +
                       " Detected faults not detected by the " +
                       std::to_string(a.tests.size()) + " returned tests");
  }
  return problems;
}

/// The resynthesized design computes the original function on seeded
/// random vectors, keeps the floorplan, and stays inside the accepted
/// delay/power envelope.
std::vector<std::string> check_resyn(const FlowState& original,
                                     const ResynthesisResult& r,
                                     std::uint64_t seed) {
  std::vector<std::string> problems;
  const FlowState& fin = r.state;
  const CombView va = CombView::build(original.netlist);
  const CombView vb = CombView::build(fin.netlist);
  if (va.sources.size() != vb.sources.size() ||
      va.observe.size() != vb.observe.size()) {
    problems.push_back("source/observe counts changed");
  } else {
    ParallelSimulator sa(original.netlist, va);
    ParallelSimulator sb(fin.netlist, vb);
    Rng rng(seed ^ 0x5eed5eed5eedull);
    bool differs = false;
    for (int round = 0; round < 16 && !differs; ++round) {
      for (std::size_t i = 0; i < va.sources.size(); ++i) {
        const std::uint64_t w = rng.next();
        sa.set_source(va.sources[i], w);
        sb.set_source(vb.sources[i], w);
      }
      sa.run();
      sb.run();
      for (std::size_t i = 0; i < va.observe.size(); ++i) {
        differs = differs || sa.value(va.observe[i]) != sb.value(vb.observe[i]);
      }
    }
    if (differs) problems.push_back("function differs on random vectors");
  }
  if (fin.placement.plan.rows != original.placement.plan.rows ||
      fin.placement.plan.sites_per_row != original.placement.plan.sites_per_row) {
    problems.push_back("floorplan changed");
  }
  const double envelope = (1.0 + r.report.q_used / 100.0) * (1.0 + 1e-9);
  if (fin.timing.critical_delay > original.timing.critical_delay * envelope) {
    problems.push_back("delay above the q_used envelope");
  }
  if (fin.timing.total_power() > original.timing.total_power() * envelope) {
    problems.push_back("power above the q_used envelope");
  }
  return problems;
}

std::vector<std::string> status_problem(const Status& status) {
  return {status.to_string()};
}

// ---- set-up and the stage-by-stage replay ---------------------------------

FlowOptions workload_flow_options(std::uint64_t seed) {
  FlowOptions options;
  options.atpg.seed = seed;
  options.atpg.num_threads = kLanes;
  return options;
}

/// One DesignFlow and one built design per block. A flow keeps a verdict
/// cache and seed tests, so every timed round gets a fresh set-up.
struct Setup {
  std::vector<std::unique_ptr<DesignFlow>> flows;
  std::vector<Netlist> designs;
};

Expected<Setup> make_setup(const std::vector<std::string>& blocks,
                           const FlowOptions& options) {
  Setup s;
  for (const std::string& b : blocks) {
    {
      TraceSpan span("bench.udfm", "perfbench");
      s.flows.push_back(std::make_unique<DesignFlow>(osu018_library(), options));
    }
    TraceSpan span("bench.circuits", "perfbench");
    auto nl = build_benchmark(b);
    if (!nl) return nl.status();
    s.designs.push_back(std::move(*nl));
  }
  return s;
}

/// DesignFlow::run_initial decomposed into its public stage calls, each
/// wrapped in a benchmark span. Produces the same FlowState (and verdict
/// digest) as run_initial on a fresh flow.
Expected<FlowState> replay_run_initial(DesignFlow& flow, const Netlist& rtl) {
  const FlowOptions& options = flow.options();
  Expected<Netlist> mapped = [&] {
    TraceSpan span("bench.map", "perfbench");
    MapOptions map_options;
    const Library& slib = rtl.library();
    const auto pin_macro = [&](const char* src_name, const char* dst_name) {
      if (const auto src = slib.find(src_name)) {
        if (const auto dst = flow.target().find(dst_name)) {
          map_options.fixed_map.emplace(src->value(), *dst);
        }
      }
    };
    pin_macro("DFF", "DFFPOSX1");
    pin_macro("FA", "FAX1");
    pin_macro("HA", "HAX1");
    return technology_map(rtl, flow.target_ptr(), map_options);
  }();
  if (!mapped) return mapped.status();
  Netlist netlist = std::move(*mapped);

  std::optional<TraceSpan> stage;
  stage.emplace("bench.place", "perfbench");
  const Floorplan plan = make_floorplan(netlist, options.utilization);
  Placement placement = global_place(netlist, plan, options.place);
  stage.emplace("bench.route", "perfbench");
  RoutingResult routing = route(netlist, placement, options.route);
  stage.emplace("bench.sta", "perfbench");
  TimingPower timing = analyze_timing_power(netlist, routing, options.sta);
  stage.emplace("bench.extract", "perfbench");
  FaultUniverse universe = extract_dfm_faults(netlist, placement, routing, flow.udfm());
  stage.reset();
  AtpgOptions atpg_options = options.atpg;
  atpg_options.generate_tests = true;
  FaultSimArena arena;
  atpg_options.arena = &arena;
  AtpgResult atpg = run_atpg(netlist, universe, flow.udfm(), atpg_options, &flow.cache());
  stage.emplace("bench.rebase", "perfbench");
  flow.set_seed_tests(atpg.tests);
  flow.rebase_overlays(netlist);
  stage.emplace("bench.cluster", "perfbench");
  ClusterAnalysis clusters = cluster_undetectable(netlist, universe, atpg.status);
  stage.reset();
  return FlowState{std::move(netlist), std::move(placement), std::move(routing),
                   std::move(timing),  std::move(universe),  std::move(atpg),
                   std::move(clusters)};
}

// ---- per-layer attribution ------------------------------------------------

/// Span name -> per-layer metric its self time is charged to. Benchmark
/// root spans (category "perfbench", no parent) are deliberately absent:
/// their self time is the part of a public call no layer span covers.
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> table = {
      {"bench.udfm", "faults.udfm_build_s"},
      {"bench.circuits", "circuits.build_s"},
      {"bench.map", "synth.map_s"},
      {"synth.map", "synth.map_s"},
      {"bench.place", "place.global_s"},
      {"flow.incremental_place", "place.incremental_s"},
      {"bench.route", "route.route_s"},
      {"flow.route", "route.route_s"},
      {"bench.sta", "sta.timing_s"},
      {"flow.sta", "sta.timing_s"},
      {"bench.extract", "dfm.extract_s"},
      {"flow.extract_faults", "dfm.extract_s"},
      {"bench.cluster", "cluster.cluster_s"},
      {"flow.cluster", "cluster.cluster_s"},
      {"atpg.phase0.replay", "atpg.phase0_s"},
      {"atpg.phase1.random", "atpg.phase1_s"},
      {"atpg.phase2.podem", "atpg.phase2_s"},
      {"atpg.phase3.compact", "atpg.phase3_s"},
      {"atpg.run", "atpg.overhead_s"},
      {"atpg.sweep", "atpg.sweep_s"},
      {"pool.chunks", "atpg.sweep_s"},
      {"fsim.load", "fsim.load_s"},
      {"fsim.rebase", "fsim.load_s"},
      {"bench.rebase", "fsim.load_s"},
      {"flow.probe", "flow.probe_self_s"},
      {"flow.u_in_probe", "flow.u_in_probe_s"},
      {"flow.analyze", "flow.analyze_self_s"},
      {"flow.atpg", "flow.analyze_self_s"},
      {"resyn.run", "resyn.bookkeeping_s"},
      {"resyn.iteration", "resyn.bookkeeping_s"},
      {"resyn.rung", "resyn.bookkeeping_s"},
      {"resyn.rung.spec", "resyn.bookkeeping_s"},
      {"resyn.backtrack", "resyn.bookkeeping_s"},
      {"resyn.signoff", "resyn.bookkeeping_s"},
      {"campaign.job", "campaign.job_self_s"},
      {"ckpt.read", "campaign.job_self_s"},
      {"ckpt.append", "campaign.job_self_s"},
  };
  return table;
}

/// Every per-layer metric, in report order, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"faults.udfm_build_s", "s"},     {"circuits.build_s", "s"},
      {"synth.map_s", "s"},             {"synth.map_calls", "count"},
      {"place.global_s", "s"},          {"place.incremental_s", "s"},
      {"route.route_s", "s"},           {"sta.timing_s", "s"},
      {"dfm.extract_s", "s"},           {"dfm.faults", "count"},
      {"cluster.cluster_s", "s"},       {"atpg.phase0_s", "s"},
      {"atpg.phase1_s", "s"},           {"atpg.phase2_s", "s"},
      {"atpg.phase3_s", "s"},           {"atpg.overhead_s", "s"},
      {"atpg.sweep_s", "s"},            {"fsim.load_s", "s"},
      {"atpg.runs", "count"},           {"atpg.backtracks", "count"},
      {"atpg.aborted", "count"},        {"atpg.abort_backtrack_share", "ratio"},
      {"atpg.detect_mask_calls", "count"}, {"atpg.propagation_events", "count"},
      {"atpg.tests", "count"},          {"flow.probe_self_s", "s"},
      {"flow.u_in_probe_s", "s"},       {"flow.analyze_self_s", "s"},
      {"resyn.candidates_built", "count"}, {"resyn.build_s", "s"},
      {"resyn.u_in_probes", "count"},   {"resyn.u_in_s", "s"},
      {"resyn.full_probes", "count"},   {"resyn.probe_s", "s"},
      {"resyn.sig_hit_ratio", "ratio"}, {"resyn.accept_ratio", "ratio"},
      {"resyn.signoff_s", "s"},         {"resyn.probe_frame_bytes", "bytes"},
      {"resyn.bookkeeping_s", "s"},     {"campaign.job_self_s", "s"},
      {"serve.admit_s", "s"},           {"serve.run_s", "s"},
      {"serve.report_s", "s"},          {"serve.job_flow_s", "s"},
      {"serve.rejected", "count"},      {"serve.inflight_max", "count"},
      {"serve.generator_late_s", "s"},  {"serve.job_p50_s", "s"},
      {"proc.cpu_s", "s"},
      {"trace.overhead_ratio", "ratio"}, {"unattributed_s", "s"},
  };
  return list;
}

/// Collects per-layer values; every metric starts at 0.
struct LayerReport {
  std::map<std::string, double> values;

  LayerReport() {
    for (const auto& [name, unit] : per_layer_metrics()) values[name] = 0.0;
  }
  void set(const std::string& name, double v) {
    if (!values.count(name)) {
      note("internal: unknown per-layer metric %s", name.c_str());
      std::exit(3);
    }
    values[name] = v;
  }
  void add(const std::string& name, double v) { set(name, values[name] + v); }

  /// Charges span self times to layers; unattributed = root-span time
  /// minus everything the layers account for.
  void absorb_trace(const std::vector<TraceEvent>& events) {
    const perfbench::SpanTotals t = perfbench::span_totals(events, "perfbench");
    double attributed = 0.0;
    for (const auto& [name, self] : t.self_s) {
      const auto it = layer_of_span().find(name);
      note("span %-24s n %-6llu total %10.6fs self %10.6fs -> %s", name.c_str(),
           static_cast<unsigned long long>(t.count.at(name)), t.total_s.at(name),
           self, it == layer_of_span().end() ? "(unattributed)" : it->second.c_str());
      if (it == layer_of_span().end()) continue;
      add(it->second, self);
      attributed += self;
    }
    for (const auto& [name, n] : t.count) {
      if (name == "synth.map") add("synth.map_calls", static_cast<double>(n));
      if (name == "atpg.run") add("atpg.runs", static_cast<double>(n));
    }
    set("unattributed_s", t.root_s - attributed);
  }

  /// `c` = ATPG totals of the workload's committed runs; `cold` = the
  /// backtracks of its cold run_initial calls, which `cold_aborted`
  /// aborts burned at least `limit` each of (later warm runs trust
  /// cached Aborted verdicts without searching again).
  void absorb_atpg(const AtpgCounters& c, std::size_t aborted,
                   std::size_t tests, std::size_t cold_aborted,
                   std::uint64_t cold_backtracks, long limit) {
    set("atpg.backtracks", static_cast<double>(c.podem_backtracks));
    set("atpg.aborted", static_cast<double>(aborted));
    set("atpg.detect_mask_calls", static_cast<double>(c.detect_mask_calls));
    set("atpg.propagation_events", static_cast<double>(c.propagation_events));
    set("atpg.tests", static_cast<double>(tests));
    set("atpg.abort_backtrack_share",
        cold_backtracks > 0 ? static_cast<double>(cold_aborted) *
                                  static_cast<double>(limit) /
                                  static_cast<double>(cold_backtracks)
                            : 0.0);
  }

  [[nodiscard]] std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : per_layer_metrics()) {
      out.push_back({name, values.at(name), unit});
    }
    return out;
  }
};

/// Enables the process tracer for the lifetime of the scope.
class TracedSection {
 public:
  TracedSection() : cpu0_(cpu_seconds()) {
    Tracer::instance().reset();
    Tracer::instance().enable();
  }
  ~TracedSection() { Tracer::instance().disable(); }
  TracedSection(const TracedSection&) = delete;
  TracedSection& operator=(const TracedSection&) = delete;

  /// Stops recording; returns the spans and the section's CPU seconds.
  std::vector<TraceEvent> finish(double* cpu_s) {
    Tracer::instance().disable();
    *cpu_s = cpu_seconds() - cpu0_;
    return Tracer::instance().snapshot();
  }

 private:
  double cpu0_;
};

/// Suspends recording for the scope, so output checks (which simulate)
/// stay out of the per-layer numbers.
class TracePause {
 public:
  TracePause() : was_enabled_(Tracer::instance().enabled()) {
    if (was_enabled_) Tracer::instance().disable();
  }
  ~TracePause() {
    if (was_enabled_) Tracer::instance().enable();
  }
  TracePause(const TracePause&) = delete;
  TracePause& operator=(const TracePause&) = delete;

 private:
  bool was_enabled_;
};

// ---- batch workloads ------------------------------------------------------

struct BatchSpec {
  std::vector<std::string> blocks;
  bool resynthesize = false;
};

/// One timed round: fresh set-up (timed separately), then the public
/// calls. `traced` replaces run_initial by its stage-by-stage replay,
/// which leaves the flow in the state resynthesize() starts from.
struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<std::uint64_t> digests;
  std::size_t undetected = 0;
  std::size_t aborted = 0;
  std::size_t tests = 0;
  std::size_t faults = 0;
  AtpgCounters atpg;
  /// Aborts and backtracks of the cold run_initial calls.
  std::size_t cold_aborted = 0;
  std::uint64_t cold_backtracks = 0;
  std::optional<ResynthesisReport> resyn;
};

Round run_round(const BatchSpec& spec, std::uint64_t seed, bool traced,
                Ops& ops) {
  Round r;
  const FlowOptions options = workload_flow_options(seed);
  const auto ts = Clock::now();
  Expected<Setup> setup = [&] {
    TraceSpan root("bench.setup", "perfbench");
    return make_setup(spec.blocks, options);
  }();
  r.setup_s = seconds_since(ts);
  if (!setup) {
    ops.record("set-up", status_problem(setup.status()));
    return r;
  }
  const auto tally = [&r](const FlowState& s) {
    r.digests.push_back(verdict_digest(s.atpg));
    r.undetected += s.atpg.num_undetectable + s.atpg.num_aborted;
    r.aborted += s.atpg.num_aborted;
    r.tests += s.atpg.tests.size();
    r.faults += s.universe.size();
  };
  for (std::size_t b = 0; b < spec.blocks.size(); ++b) {
    DesignFlow& flow = *setup->flows[b];
    const std::string what = spec.blocks[b];
    auto t0 = Clock::now();
    Expected<FlowState> original = [&]() -> Expected<FlowState> {
      if (traced) {
        TraceSpan root("bench.flow", "perfbench");
        return replay_run_initial(flow, setup->designs[b]);
      }
      TraceSpan root("bench.run_initial", "perfbench");
      return flow.run_initial(setup->designs[b]);
    }();
    double dt = seconds_since(t0);
    r.wall_s += dt;
    if (!original) {
      ops.record(what + " run_initial", status_problem(original.status()));
      continue;
    }
    {
      TracePause pause;
      ops.record(what + " run_initial", check_state(*original, flow.udfm()));
    }
    r.cold_aborted += original->atpg.num_aborted;
    r.cold_backtracks += original->atpg.counters.podem_backtracks;
    if (!spec.resynthesize) {
      tally(*original);
      r.atpg.merge(original->atpg.counters);
      continue;
    }
    r.digests.push_back(verdict_digest(original->atpg));
    ResynthesisOptions resyn_options;  // the `dfmres resyn` defaults
    t0 = Clock::now();
    Expected<ResynthesisResult> result = [&] {
      TraceSpan root("bench.resynthesize", "perfbench");
      return resynthesize(flow, *original, resyn_options);
    }();
    dt = seconds_since(t0);
    r.wall_s += dt;
    if (!result) {
      ops.record(what + " resynthesize", status_problem(result.status()));
      continue;
    }
    {
      TracePause pause;
      std::vector<std::string> problems = check_state(result->state, flow.udfm());
      for (std::string& p : check_resyn(*original, *result, seed)) {
        problems.push_back(std::move(p));
      }
      ops.record(what + " resynthesize", problems);
    }
    tally(result->state);
    r.atpg = flow.atpg_totals();
    // The replay does not fold its ATPG counters into the flow's totals.
    if (traced) r.atpg.merge(original->atpg.counters);
    r.resyn = std::move(result->report);
  }
  return r;
}

void check_digests(const std::vector<Round>& rounds, const char* what, Ops& ops) {
  std::vector<std::string> problems;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    if (rounds[i].digests != rounds[0].digests) {
      problems.push_back("round " + std::to_string(i) +
                         " verdict digests differ from round 0");
    }
  }
  ops.record(what, problems);
}

/// `job_s`: latency of each job (a serve request, or one round of a
/// batch workload); reported as the mean and the nearest-rank p90. Not
/// the median: the host runs in fast and slow phases of a few seconds,
/// which split the latencies into two clusters ~35 % apart, and the median
/// jumps between them as the slow share of a run crosses one half.
std::vector<Metric> end_to_end(double setup_s, double wall_s,
                               std::size_t undetected,
                               const std::vector<double>& job_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_s, "s"},
      {"undetected", static_cast<double>(undetected), "count"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"job_mean_s", mean(job_s), "s"},
      {"job_p90_s", nearest_rank(job_s, 0.90), "s"},
  };
}

std::vector<Metric> batch_untraced(const BatchSpec& spec, std::uint64_t seed,
                                   double seconds, Ops& ops) {
  std::vector<Round> rounds;
  std::vector<double> setups, walls;
  // Set-up samples beside the rounds' own, taken before any timed work.
  const FlowOptions options = workload_flow_options(seed);
  for (int i = kMinRounds; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    const Expected<Setup> s = make_setup(spec.blocks, options);
    setups.push_back(seconds_since(t0));
    if (!s) ops.record("set-up", status_problem(s.status()));
  }
  double timed = 0.0;
  while (static_cast<int>(rounds.size()) < kMinRounds || timed < seconds) {
    Round r = run_round(spec, seed, /*traced=*/false, ops);
    note("round %zu: setup %.3fs wall %.3fs undetected %zu", rounds.size(),
         r.setup_s, r.wall_s, r.undetected);
    setups.push_back(r.setup_s);
    walls.push_back(r.wall_s);
    timed += r.wall_s;
    rounds.push_back(std::move(r));
  }
  check_digests(rounds, "determinism across rounds", ops);
  // A batch workload's job is one round of its public calls.
  return end_to_end(median(setups), median(walls), rounds[0].undetected, walls);
}

std::vector<Metric> batch_traced(const BatchSpec& spec, std::uint64_t seed,
                                 Ops& ops) {
  std::vector<Round> rounds;
  rounds.push_back(run_round(spec, seed, /*traced=*/false, ops));
  double cpu_s = 0.0;
  std::vector<TraceEvent> events;
  {
    TracedSection section;
    rounds.push_back(run_round(spec, seed, /*traced=*/true, ops));
    events = section.finish(&cpu_s);
  }
  check_digests(rounds, "traced replay digest equals untraced", ops);
  const Round& t = rounds.back();
  note("untraced wall %.3fs, traced wall %.3fs, %zu spans", rounds[0].wall_s,
       t.wall_s, events.size());

  LayerReport layers;
  layers.absorb_trace(events);
  layers.set("proc.cpu_s", cpu_s);
  layers.set("trace.overhead_ratio",
             rounds[0].wall_s > 0 ? t.wall_s / rounds[0].wall_s : 0.0);
  layers.set("dfm.faults", static_cast<double>(t.faults));
  layers.absorb_atpg(t.atpg, t.aborted, t.tests, t.cold_aborted,
                     t.cold_backtracks,
                     workload_flow_options(seed).atpg.backtrack_limit);
  if (t.resyn) {
    const ResynthesisReport& r = *t.resyn;
    std::size_t accepted = 0;
    for (const IterationRecord& rec : r.trace) accepted += rec.accepted ? 1 : 0;
    layers.set("resyn.candidates_built", static_cast<double>(r.candidates_built));
    layers.set("resyn.build_s", r.build_seconds);
    layers.set("resyn.u_in_probes", static_cast<double>(r.u_in_probes));
    layers.set("resyn.u_in_s", r.u_in_seconds);
    layers.set("resyn.full_probes", static_cast<double>(r.full_probes));
    layers.set("resyn.probe_s", r.probe_seconds);
    const double evaluated = static_cast<double>(r.full_probes + r.sig_hits);
    layers.set("resyn.sig_hit_ratio",
               evaluated > 0 ? static_cast<double>(r.sig_hits) / evaluated : 0.0);
    layers.set("resyn.accept_ratio",
               r.trace.empty() ? 0.0
                               : static_cast<double>(accepted) /
                                     static_cast<double>(r.trace.size()));
    layers.set("resyn.signoff_s", r.signoff_seconds);
    layers.set("resyn.probe_frame_bytes", static_cast<double>(r.probe_frame_bytes));
  }
  return layers.metrics();
}

// ---- serve_small_jobs -------------------------------------------------------

CampaignJobSpec serve_job(std::uint64_t seed) {
  CampaignJobSpec job;
  job.design = "sparc_tlu";
  job.mode = CampaignJobSpec::Mode::Flow;
  job.flow.atpg.random_batches = 4;  // the bench_serve_saturation budgets
  job.flow.atpg.backtrack_limit = 1000;
  job.flow.atpg.seed = seed;
  job.flow.atpg.num_threads = kLanes;
  return job;
}

/// A connected Unix-domain socket, closed on destruction.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path)) {
      close_fd();
      return;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      close_fd();
    }
  }
  ~Connection() { close_fd(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next newline-terminated line, or nullopt on EOF / error / timeout.
  std::optional<std::string> read_line(int timeout_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return std::nullopt;
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::string buf_;
};

/// A serve daemon on its own thread; joined on destruction after a drain
/// (or a cancel, when the drain does not complete).
class Daemon {
 public:
  Daemon(const std::string& dir, int workers) {
    options_.campaign_root = dir + "/root";
    options_.socket_path = dir + "/s.sock";
    options_.workers = workers;
    options_.total_threads = workers * kLanes;
    options_.poll_interval = std::chrono::milliseconds(10);
    options_.cancel = &cancel_;
    thread_ = std::thread([this] {
      auto stats = run_serve(options_);
      std::lock_guard<std::mutex> lock(mutex_);
      result_ = std::move(stats);
      finished_ = true;
    });
  }
  ~Daemon() {
    if (thread_.joinable()) {
      cancel_.cancel();
      thread_.join();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

  /// Waits until the socket accepts a connection.
  bool wait_ready(double timeout_s) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < timeout_s) {
      if (Connection(options_.socket_path).ok()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Sends a drain request and joins the daemon. Problems: the daemon
  /// did not exit within the timeout, returned an error, or did not
  /// report a clean drain.
  std::vector<std::string> drain(double timeout_s) {
    std::vector<std::string> problems;
    {
      Connection c(options_.socket_path);
      Request request;
      request.payload = DrainRequest{};
      if (!c.ok() || !c.send_line(request_to_json(request) + "\n")) {
        problems.push_back("drain request could not be sent");
      } else {
        while (c.read_line(static_cast<int>(timeout_s * 1000))) {
        }
      }
    }
    const auto t0 = Clock::now();
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (finished_) break;
      }
      if (seconds_since(t0) > timeout_s) {
        problems.push_back("daemon did not exit after drain");
        cancel_.cancel();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    thread_.join();
    if (!result_) {
      problems.push_back("daemon exited without a result");
    } else if (!*result_) {
      problems.push_back("daemon: " + result_->status().to_string());
    } else if (!(*result_)->drained) {
      problems.push_back("daemon did not drain cleanly");
    } else if ((*result_)->requests_rejected != 0 ||
               (*result_)->requests_malformed != 0) {
      problems.push_back("daemon rejected requests");
    }
    return problems;
  }

 private:
  ServeOptions options_;
  CancelToken cancel_;
  std::mutex mutex_;
  bool finished_ = false;
  std::optional<Expected<ServeStats>> result_;
  std::thread thread_;
};

/// What one request saw on the wire, in seconds from the stream start.
struct Exchange {
  double due = 0.0;
  double sent = -1.0;
  double accepted = -1.0;
  double job_done = -1.0;
  double report = -1.0;
  std::vector<std::string> problems;
};

/// The expected per-job outcome, from the in-process run.
struct JobTruth {
  std::size_t faults = 0;
  std::size_t undetectable = 0;
  std::size_t aborted = 0;
  std::size_t tests = 0;
  AtpgCounters counters;
};

void exchange(const std::string& socket_path, const CampaignJobSpec& job,
              const JobTruth& truth, Clock::time_point t0, Exchange& ex) {
  const auto at = [&t0] { return seconds_since(t0); };
  Connection c(socket_path);
  Request request;
  request.payload = RunRequest{job.name, job};
  ex.sent = at();
  if (!c.ok() || !c.send_line(request_to_json(request) + "\n")) {
    ex.problems.push_back("request could not be sent");
    return;
  }
  for (;;) {
    const std::optional<std::string> line = c.read_line(kRequestTimeoutMs);
    if (!line) {
      ex.problems.push_back("connection closed or timed out before the report");
      return;
    }
    const double now = at();
    const auto doc = JsonValue::parse(*line);
    const JsonValue* ev = doc ? doc->find("event") : nullptr;
    if (ev == nullptr || !ev->is_string()) continue;
    const std::string& name = ev->as_string();
    if (name == "accepted") ex.accepted = now;
    if (name == "job_done") ex.job_done = now;
    if (name == "rejected" || name == "error") {
      ex.problems.push_back("request " + name + ": " + *line);
      return;
    }
    if (name != "report") continue;
    ex.report = now;
    // report.jobs[0].report.final must match the in-process run.
    const JsonValue* rep = doc->find("report");
    const JsonValue* jobs = rep ? rep->find("jobs") : nullptr;
    const JsonValue* row = jobs && jobs->is_array() && jobs->items().size() == 1
                               ? &jobs->items()[0] : nullptr;
    const JsonValue* ok = row ? row->find("ok") : nullptr;
    const JsonValue* run = row ? row->find("report") : nullptr;
    const JsonValue* fin = run ? run->find("final") : nullptr;
    const auto num = [fin](const char* key) {
      const JsonValue* v = fin ? fin->find(key) : nullptr;
      return v && v->is_number() ? static_cast<long long>(v->as_number()) : -1LL;
    };
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      ex.problems.push_back("job not ok");
    } else if (num("faults") != static_cast<long long>(truth.faults) ||
               num("undetectable") != static_cast<long long>(truth.undetectable) ||
               num("tests") != static_cast<long long>(truth.tests)) {
      ex.problems.push_back("F/U/T differ from the in-process run");
    }
    return;
  }
}

std::string make_run_dir() {
  const std::string dir = ".bench_build/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<Metric> serve_workload(std::uint64_t seed, double seconds,
                                   bool trace, Ops& ops) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int connections = std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 4);
  const std::string dir = make_run_dir();
  std::vector<CampaignJobSpec> distinct;
  Rng seeds(seed);
  for (int k = 0; k < kServeJobs; ++k) {
    distinct.push_back(serve_job(seeds.next() % kMaxWireSeed));
  }

  // In-process runs of the distinct jobs: the expected outcomes and
  // serve.job_flow_s. The traced run repeats them with tracing on, for
  // the overhead ratio and a digest comparison.
  std::vector<JobTruth> truths(kServeJobs);
  std::vector<std::uint64_t> digests(kServeJobs, 0);
  const auto run_in_process = [&](int k, const char* what) {
    DesignFlow flow(osu018_library(), distinct[static_cast<std::size_t>(k)].flow);
    auto rtl = build_benchmark("sparc_tlu");
    if (!rtl) {
      ops.record(what, status_problem(rtl.status()));
      return 0.0;
    }
    const auto t0 = Clock::now();
    Expected<FlowState> s = [&] {
      TraceSpan root("bench.run_initial", "perfbench");
      return flow.run_initial(*rtl);
    }();
    const double dt = seconds_since(t0);
    if (!s) {
      ops.record(what, status_problem(s.status()));
      return dt;
    }
    std::vector<std::string> problems = check_state(*s, flow.udfm());
    const std::uint64_t digest = verdict_digest(s->atpg);
    std::uint64_t& seen = digests[static_cast<std::size_t>(k)];
    if (seen != 0 && digest != seen) {
      problems.push_back("verdict digest differs between in-process runs");
    }
    seen = digest;
    truths[static_cast<std::size_t>(k)] = {
        s->universe.size(), s->atpg.num_undetectable, s->atpg.num_aborted,
        s->atpg.tests.size(), s->atpg.counters};
    ops.record(what, problems);
    return dt;
  };

  // Set-up, several times: UdfmMap + design build + daemon start-up until
  // its socket accepts. All but the last daemon are drained right away.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    {
      DesignFlow flow(osu018_library(), distinct[0].flow);
      auto rtl = build_benchmark("sparc_tlu");
      if (!rtl) ops.record("set-up", status_problem(rtl.status()));
    }
    const std::string sub = dir + "/d" + std::to_string(i);
    std::filesystem::create_directories(sub);
    auto d = std::make_unique<Daemon>(sub, kServeWorkers);
    if (!d->wait_ready(30.0)) {
      ops.record("daemon start-up", {"socket never accepted a connection"});
      return {};
    }
    setups.push_back(seconds_since(t0));
    if (i + 1 < kSetupSamples) {
      ops.record("daemon drain (set-up)", d->drain(30.0));
    } else {
      daemon = std::move(d);
    }
  }
  std::vector<double> flow_s;
  for (int k = 0; k < kServeJobs; ++k) {
    flow_s.push_back(run_in_process(k, "in-process job"));
  }
  JobTruth total;
  for (const JobTruth& t : truths) {
    total.faults += t.faults;
    total.undetectable += t.undetectable;
    total.aborted += t.aborted;
    total.tests += t.tests;
    total.counters.merge(t.counters);
  }

  // The open-loop stream: request i is due at i / rate; at most
  // `connections` are open at once, and a request that finds none free is
  // sent late (the generator's lateness).
  const int jobs = std::max(kServeMinJobs,
                            static_cast<int>(std::lround(kServeRate * seconds)));
  std::vector<Exchange> ex(static_cast<std::size_t>(jobs));
  std::vector<CampaignJobSpec> specs;
  for (int i = 0; i < jobs; ++i) {
    specs.push_back(distinct[static_cast<std::size_t>(i % kServeJobs)]);
    specs.back().name = "job-" + std::to_string(i);
    ex[static_cast<std::size_t>(i)].due = i / kServeRate;
  }
  std::atomic<int> next{0};
  std::atomic<int> inflight{0};
  std::atomic<int> inflight_max{0};
  std::vector<TraceEvent> events;
  double cpu_s = 0.0;
  std::optional<TracedSection> section;
  if (trace) section.emplace();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&] {
        for (;;) {
          const int i = next.fetch_add(1);
          if (i >= jobs) return;
          Exchange& e = ex[static_cast<std::size_t>(i)];
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(e.due)));
          const int now_in = inflight.fetch_add(1) + 1;
          int seen = inflight_max.load();
          while (now_in > seen && !inflight_max.compare_exchange_weak(seen, now_in)) {
          }
          {
            TraceSpan root("bench.request", "perfbench");
            exchange(daemon->socket_path(), specs[static_cast<std::size_t>(i)],
                     truths[static_cast<std::size_t>(i % kServeJobs)], t0, e);
          }
          inflight.fetch_sub(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  if (section) events = section->finish(&cpu_s);
  ops.record("daemon drain", daemon->drain(30.0));
  daemon.reset();
  std::filesystem::remove_all(dir);

  std::vector<double> latency, admit, run, report, late;
  double last_report = 0.0;
  long rejected = 0;
  for (int i = 0; i < jobs; ++i) {
    const Exchange& e = ex[static_cast<std::size_t>(i)];
    if (e.problems.empty() && (e.accepted < 0 || e.job_done < 0)) {
      ops.record("request " + std::to_string(i), {"missing accepted/job_done event"});
    } else {
      ops.record("request " + std::to_string(i), e.problems);
    }
    if (!e.problems.empty()) ++rejected;
    if (e.report < 0) continue;
    latency.push_back(e.report - e.due);
    admit.push_back(e.accepted - e.sent);
    run.push_back(e.job_done - e.accepted);
    report.push_back(e.report - e.job_done);
    late.push_back(std::max(0.0, e.sent - e.due));
    last_report = std::max(last_report, e.report);
  }
  note("%d requests, %zu reports, p50 %.3fs p90 %.3fs, in-flight max %d",
       jobs, latency.size(), nearest_rank(latency, 0.5),
       nearest_rank(latency, 0.9), inflight_max.load());

  if (!trace) {
    // A failed request counts as missing every latency limit.
    std::vector<double> scored = latency;
    for (long i = 0; i < rejected; ++i) scored.push_back(1e9);
    return end_to_end(median(setups), last_report - ex[0].due,
                      total.undetectable + total.aborted, scored);
  }

  // Overhead ratio: the same in-process job, traced, against untraced.
  std::vector<double> traced_flow_s;
  {
    TracedSection overhead;
    for (int k = 0; k < kServeJobs; ++k) {
      traced_flow_s.push_back(run_in_process(k, "in-process job (traced)"));
    }
  }
  LayerReport layers;
  layers.absorb_trace(events);
  layers.set("proc.cpu_s", cpu_s);
  layers.set("trace.overhead_ratio", median(traced_flow_s) / median(flow_s));
  layers.set("serve.admit_s", median(admit));
  layers.set("serve.run_s", median(run));
  layers.set("serve.report_s", median(report));
  layers.set("serve.job_flow_s", median(flow_s));
  layers.set("serve.rejected", static_cast<double>(rejected));
  layers.set("serve.inflight_max", inflight_max.load());
  layers.set("serve.generator_late_s", nearest_rank(late, 0.9));
  layers.set("serve.job_p50_s", nearest_rank(latency, 0.5));
  layers.set("dfm.faults", static_cast<double>(total.faults));
  layers.absorb_atpg(total.counters, total.aborted, total.tests, total.aborted,
                     total.counters.podem_backtracks,
                     distinct[0].flow.atpg.backtrack_limit);
  return layers.metrics();
}

// ---- main -----------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload flow_abort_heavy|resyn_probe_heavy|"
               "serve_small_jobs --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
    } else if (key == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(seconds > 0)) return usage();
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  seed %= kMaxWireSeed;
  const unsigned hw = std::thread::hardware_concurrency();
  note("workload %s seed %llu seconds %g trace %d | nproc %u, lanes %d, "
       "build %s, compiler %s",
       workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace,
       hw, kLanes, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  Ops ops;
  const std::string selftest = perfbench::self_time_selftest();
  ops.record("self-time computation", selftest.empty()
                                          ? std::vector<std::string>{}
                                          : std::vector<std::string>{selftest});

  std::vector<Metric> metrics;
  if (workload == "flow_abort_heavy" || workload == "resyn_probe_heavy") {
    BatchSpec spec;
    if (workload == "flow_abort_heavy") {
      spec.blocks = {"sparc_ffu", "aes_core"};
    } else {
      spec.blocks = {"des_perf"};
      spec.resynthesize = true;
    }
    metrics = trace ? batch_traced(spec, seed, ops)
                    : batch_untraced(spec, seed, seconds, ops);
  } else if (workload == "serve_small_jobs") {
    metrics = serve_workload(seed, seconds, trace == 1, ops);
  } else {
    return usage();
  }
  if (metrics.empty()) {
    note("no metrics: the workload could not run");
    return 1;
  }
  print_result(ops, metrics);
  return 0;
}
