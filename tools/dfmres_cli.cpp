// dfmres command-line driver.
//
//   dfmres list
//       Print the available benchmark blocks.
//   dfmres flow <circuit|file.v> [--write out.v] [--util 0.70]
//       Run the implementation flow (map, place, route, DFM check, ATPG)
//       and print the fault/cluster summary. A .v argument is parsed as
//       structural Verilog over the OSU018-style library.
//   dfmres resyn <circuit|file.v> [--q 5] [--p1 1.0] [--write out.v]
//                [--deadline 30s] [--checkpoint DIR] [--resume]
//       Run the flow and then the paper's two-phase resynthesis
//       procedure; print the before/after comparison.
//   dfmres campaign <--manifest F|--table2> [--jobs N] [--threads N]
//       Run a batched multi-design sweep from a campaign manifest, N
//       jobs in flight, and write one aggregated campaign report. With
//       --workers N --campaign-root DIR the sweep instead runs as N
//       forked worker processes claiming jobs through lease files in
//       DIR; crashed workers are respawned and their jobs resumed from
//       the shared checkpoints, and the shards are merged into
//       DIR/report.json.
//   dfmres work --campaign-root DIR
//       Attach one worker process to an existing campaign root (the
//       elastic half of --workers: extra workers can join a running
//       campaign from other shells or hosts sharing the directory).
//   dfmres status --campaign-root DIR [--follow] [--json]
//       Observe a campaign root read-only: per-job lease/shard state,
//       per-worker telemetry and an ETA. --follow polls until the
//       merged report lands; --json emits dfmres-status-v1 lines.
//   dfmres serve --campaign-root DIR --listen SOCKET [--workers N]
//       Run the always-on job service: a daemon multiplexing many
//       concurrent campaigns from many clients over one Unix-domain
//       socket (newline-delimited dfmres-request-v1 in,
//       dfmres-response-v1 events out). Killed daemons restart by
//       rescanning DIR; a drain request shuts down cleanly.
//   dfmres request --socket S <submit|submit-job|status|cancel|drain>
//       The reference protocol client: send one request to a serve
//       daemon and stream its response events (nc/socat equivalent).
//   dfmres trace merge --campaign-root DIR [--out F]
//       Stitch every worker's telemetry trace shards and the lease
//       protocol events into one Chrome trace_event timeline.
//   dfmres canon <report.json>
//       Print the canonical projection of a campaign report (the
//       schedule-independent substance) for bit-identity comparison.
//   dfmres verilog <circuit>
//       Map a benchmark and dump it as structural Verilog to stdout.
//
// Exit codes: 0 success, 1 runtime failure (reported with its status),
// 2 usage / flag-validation error, 130 interrupted by SIGINT/SIGTERM
// (partial outputs were still flushed; a second signal kills hard).

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/core/campaign.hpp"
#include "src/core/request.hpp"
#include "src/core/resynthesis.hpp"
#include "src/core/run_report.hpp"
#include "src/core/serve.hpp"
#include "src/core/telemetry.hpp"
#include "src/library/osu018.hpp"
#include "src/netlist/stats.hpp"
#include "src/netlist/verilog.hpp"
#include "src/synth/mapper.hpp"
#include "src/util/fsio.hpp"
#include "src/util/json.hpp"
#include "src/util/metrics.hpp"
#include "src/util/trace.hpp"

namespace {

using namespace dfmres;

/// Graceful-interrupt plumbing. The first SIGINT/SIGTERM trips the
/// root cancel token (CancelToken::cancel is a relaxed atomic store —
/// async-signal-safe) so runs unwind cooperatively, flush their partial
/// outputs and exit 130. A second signal restores the default
/// disposition and re-raises, so a wedged run can still be killed.
volatile std::sig_atomic_t g_signal_num = 0;
CancelToken g_signal_token;

extern "C" void handle_interrupt(int sig) {
  if (g_signal_num != 0) {
    std::signal(sig, SIG_DFL);
    ::raise(sig);
    return;
  }
  g_signal_num = sig;
  g_signal_token.cancel();
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_interrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking waits must see EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

[[nodiscard]] bool interrupted() { return g_signal_num != 0; }

/// Maps a run's natural exit code through the interrupt state: an
/// interrupted run reports 130 (the shell convention for SIGINT death)
/// so callers can tell "stopped on request, partial results flushed"
/// from a hard failure.
[[nodiscard]] int exit_code(int natural) {
  return interrupted() ? 130 : natural;
}

/// argv[0] as seen by main(), the exec fallback when /proc is absent.
const char* g_argv0 = "dfmres";

[[nodiscard]] std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return g_argv0;
}

/// The flag block shared by the run-producing commands. Every command
/// takes the three observability outputs: --trace-out (Chrome
/// trace_event JSON), --metrics-out (merged counters/gauges/histograms/
/// series) and --report-out (the run or campaign report). Commands
/// constructed `with_robustness` additionally take the robustness trio:
/// --deadline, --checkpoint (or the name passed as `checkpoint_flag`,
/// e.g. --checkpoint-root for `campaign`) and --resume.
struct CommonRunFlags {
  explicit CommonRunFlags(bool with_robustness,
                          const char* checkpoint_flag = "--checkpoint")
      : with_robustness_(with_robustness), checkpoint_flag_(checkpoint_flag) {}

  std::string trace_out;
  std::string metrics_out;
  std::string report_out;
  std::chrono::nanoseconds deadline{0};
  std::string checkpoint;
  bool resume = false;
  /// Set when a matched flag had an invalid value (already reported to
  /// stderr); the command should exit 2.
  bool failed = false;

  /// Consumes argv[*i] (and its value) when it is one of the shared
  /// flags.
  bool match(int argc, char** argv, int* i) {
    const auto take = [&](const char* flag, std::string* out) {
      if (!std::strcmp(argv[*i], flag) && *i + 1 < argc) {
        *out = argv[++*i];
        return true;
      }
      return false;
    };
    if (take("--trace-out", &trace_out) ||
        take("--metrics-out", &metrics_out) ||
        take("--report-out", &report_out)) {
      return true;
    }
    if (!with_robustness_) return false;
    if (!std::strcmp(argv[*i], "--deadline") && *i + 1 < argc) {
      const auto d = parse_duration_spec(argv[++*i]);
      if (!d) {
        std::fprintf(stderr, "--deadline: %s\n",
                     d.status().to_string().c_str());
        failed = true;
      } else {
        deadline = *d;
      }
      return true;
    }
    if (take(checkpoint_flag_, &checkpoint)) return true;
    if (!std::strcmp(argv[*i], "--resume")) {
      resume = true;
      return true;
    }
    return false;
  }

  /// Tracing must be on before the run; the other outputs are flushed
  /// after it.
  void arm() const {
    if (!trace_out.empty()) Tracer::instance().enable();
  }

  /// The run's stop token: trips on --deadline expiry (when given) and
  /// always on SIGINT/SIGTERM through the signal parent, so every run
  /// is interruptible. Not assignable (atomic latch), so it is armed at
  /// construction.
  [[nodiscard]] CancelToken make_cancel() const {
    return CancelToken(deadline.count() > 0 ? Deadline::after(deadline)
                                            : Deadline::never(),
                       &g_signal_token);
  }

  /// Writes the requested outputs. Returns false if any write failed.
  [[nodiscard]] bool flush(const RunReport& report) const {
    return flush_impl(
        [&](const std::string& path) { return report.write_json(path); });
  }
  [[nodiscard]] bool flush(const CampaignResult& result) const {
    return flush_impl(
        [&](const std::string& path) { return result.write_report(path); });
  }

  /// The error/drain-path flush: whatever spans and metrics the run got
  /// to record are still evidence, so a load failure, a cancelled run or
  /// an expired deadline writes complete, valid --trace-out /
  /// --metrics-out documents instead of nothing (the report needs a
  /// finished run and is skipped).
  bool flush_observability() const {
    bool ok = true;
    const auto emit = [&](const std::string& path, const Status& s) {
      if (path.empty()) return;
      if (s.is_ok()) {
        std::printf("wrote %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "%s\n", s.to_string().c_str());
        ok = false;
      }
    };
    if (!trace_out.empty()) {
      emit(trace_out, Tracer::instance().write_chrome_json(trace_out));
    }
    if (!metrics_out.empty()) {
      emit(metrics_out, MetricsRegistry::global().write_json(metrics_out));
    }
    return ok;
  }

 private:
  template <typename WriteReport>
  [[nodiscard]] bool flush_impl(const WriteReport& write_report) const {
    bool ok = flush_observability();
    const auto emit = [&](const std::string& path, const Status& s) {
      if (path.empty()) return;
      if (s.is_ok()) {
        std::printf("wrote %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "%s\n", s.to_string().c_str());
        ok = false;
      }
    };
    if (!report_out.empty()) emit(report_out, write_report(report_out));
    return ok;
  }

  bool with_robustness_;
  const char* checkpoint_flag_;
};

int usage() {
  std::fprintf(stderr,
               "usage: dfmres <list|flow|resyn|campaign|work|status|serve|"
               "request|trace|canon|verilog> "
               "[args]\n"
               "  dfmres list\n"
               "  dfmres flow <circuit|file.v> [--write out.v] [--util U] "
               "[--threads N]\n"
               "               [--trace-out F] [--metrics-out F] "
               "[--report-out F]\n"
               "  dfmres resyn <circuit|file.v> [--q N] [--p1 PCT] "
               "[--write out.v] [--threads N] [--cold]\n"
               "               [--deadline D] [--checkpoint DIR] [--resume]\n"
               "               [--trace-out F] [--metrics-out F] "
               "[--report-out F]\n"
               "  dfmres campaign <--manifest F|--table2> [--jobs N] "
               "[--threads N] [--deadline D]\n"
               "               [--checkpoint-root DIR] [--resume] "
               "[--emit-table2 F]\n"
               "               [--workers N --campaign-root DIR "
               "[--heartbeat D] [--lease-ttl D] [--max-attempts N]]\n"
               "               [--trace-out F] [--metrics-out F] "
               "[--report-out F]\n"
               "  dfmres work --campaign-root DIR [--owner ID] [--threads N]\n"
               "               [--heartbeat D] [--lease-ttl D] "
               "[--max-attempts N] [--snapshot-interval D]\n"
               "  dfmres status --campaign-root DIR [--follow] [--json] "
               "[--interval D]\n"
               "  dfmres serve --campaign-root DIR --listen SOCKET "
               "[--workers N] [--threads N]\n"
               "               [--max-inflight N] [--client-quota N]\n"
               "  dfmres request --socket S submit --id ID --manifest F "
               "[--wait]\n"
               "  dfmres request --socket S submit-job --id ID --design D "
               "[--name N] [--mode flow|resyn]\n"
               "               [--q N] [--p1 PCT] [--util U] [--seed N] "
               "[--deadline D] [--wait]\n"
               "  dfmres request --socket S <status [--id ID]|cancel --id ID"
               "|drain>\n"
               "  dfmres trace merge --campaign-root DIR [--out F]\n"
               "  dfmres canon <report.json>\n"
               "  dfmres verilog <circuit>\n"
               "  --manifest F: campaign manifest JSON "
               "(dfmres-campaign-manifest-v1)\n"
               "  --table2: run the built-in Table II sweep (every "
               "benchmark, q_max 5)\n"
               "  --emit-table2 F: write the Table II sweep manifest to F "
               "and exit\n"
               "  --jobs N: campaign jobs in flight at once; each gets "
               "total-threads/N fault-sim lanes\n"
               "  --workers N: fork N worker processes claiming jobs via "
               "lease files in --campaign-root\n"
               "                  (crash-tolerant: dead workers are "
               "respawned, jobs resume from shared checkpoints)\n"
               "  --campaign-root DIR: the shared coordination directory "
               "(manifest, leases, checkpoints, shards, report)\n"
               "  --heartbeat D: worker lease refresh period "
               "(default 500ms)\n"
               "  --lease-ttl D: heartbeat age after which a lease is "
               "stale and reclaimable (default 3x heartbeat)\n"
               "  --max-attempts N: lease attempts before a job is marked "
               "poisoned (default 3)\n"
               "  --owner ID: worker identity stamped into leases and "
               "shards (default w<pid>)\n"
               "  --snapshot-interval D: period of the crash-durable "
               "telemetry snapshots workers publish under\n"
               "                  <root>/telemetry (default 1s; 0 "
               "disables)\n"
               "  --follow: poll status until the merged report is "
               "written (SIGINT stops)\n"
               "  --json: emit one dfmres-status-v1 JSON line per poll "
               "instead of the table\n"
               "  --interval D: status poll period with --follow "
               "(default 2s)\n"
               "  --out F: write the merged Chrome trace to F (atomic) "
               "instead of stdout\n"
               "  --threads N: fault-simulation worker lanes "
               "(0 = hardware, 1 = serial; results are identical)\n"
               "  --cold: disable warm-start ATPG, candidate dedup and the "
               "parallel ladder (reference mode; same results, slower)\n"
               "  --deadline D: stop searching after D (e.g. 500ms, 30s, "
               "2m) and keep the best accepted design\n"
               "  --checkpoint DIR: journal every accepted candidate to "
               "DIR, fsync'd, for crash recovery\n"
               "  --resume: replay the journal in --checkpoint DIR before "
               "searching\n"
               "  --trace-out F: write a Chrome trace_event JSON span "
               "trace (chrome://tracing, Perfetto)\n"
               "  --metrics-out F: write the merged metrics registry "
               "(counters/gauges/histograms/series) as JSON\n"
               "  --report-out F: write the machine-readable run report "
               "(options fingerprint, Table I/II stats,\n"
               "                  per-candidate convergence series); "
               "written even when --deadline expires\n");
  return 2;
}

/// Validated integer flag value: the whole string must parse and land in
/// [min, max]. On failure names the flag, prints to stderr, returns
/// false.
bool parse_long(const char* flag, const char* text, long min, long max,
                long* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min || v > max) {
    std::fprintf(stderr, "invalid value '%s' for %s (expected integer in "
                 "[%ld, %ld])\n", text, flag, min, max);
    return false;
  }
  *out = v;
  return true;
}

/// load_design with the CLI's error text on stderr.
std::optional<Netlist> load_cli_design(const std::string& name,
                                       bool* is_mapped) {
  auto nl = load_design(name, is_mapped);
  if (!nl) {
    std::fprintf(stderr, *is_mapped ? "%s\n" : "%s (try 'dfmres list')\n",
                 nl.status().to_string().c_str());
    return std::nullopt;
  }
  return std::move(*nl);
}

void print_state(const char* label, const FlowState& s,
                 const FlowState* baseline) {
  const FlowState& ref = baseline ? *baseline : s;
  std::printf(
      "%-8s F=%-6zu U=%-5zu A=%-4zu cov=%6.2f%%  T=%-4zu Smax=%-5zu "
      "(%.2f%% of F)  delay=%5.1f%% power=%5.1f%%\n",
      label, s.num_faults(), s.num_undetectable(), s.num_aborted(),
      100.0 * s.coverage(),
      s.atpg.tests.size(), s.smax(), 100.0 * s.smax_fraction(),
      100.0 * s.timing.critical_delay / ref.timing.critical_delay,
      100.0 * s.timing.total_power() / ref.timing.total_power());
}

/// analyze_design with the failure's status on stderr.
std::optional<FlowState> run_flow(DesignFlow& flow, Netlist design,
                                  bool is_mapped) {
  auto state = analyze_design(flow, std::move(design), is_mapped);
  if (!state) {
    std::fprintf(stderr, "%s\n", state.status().to_string().c_str());
    return std::nullopt;
  }
  return std::move(*state);
}

/// Run-failure exit that still writes --trace-out/--metrics-out (the
/// SIGINT/SIGTERM drain and deadline-expiry paths land here too, via
/// exit_code's 130 mapping).
int flush_and_fail(const CommonRunFlags& obs) {
  (void)obs.flush_observability();
  return exit_code(1);
}

int cmd_list(int argc) {
  if (argc != 0) return usage();
  for (const auto n : benchmark_names()) {
    std::printf("%.*s\n", static_cast<int>(n.size()), n.data());
  }
  return 0;
}

/// A matched-but-invalid job flag: report the registry's message and
/// exit 2 (same contract as the old hand-rolled parse_long/parse_double
/// paths, now shared with manifests and the wire protocol).
int report_flag_error(const Status& status) {
  std::fprintf(stderr, "%s\n", status.to_string().c_str());
  return 2;
}

int cmd_flow(int argc, char** argv) {
  if (argc < 1) return usage();
  // Registry-backed knobs: the value validation (type, range, message)
  // lives in the request.hpp field table, shared with manifest and wire
  // parsing.
  static constexpr CliFlagBinding kFlags[] = {
      {"--util", "utilization"},
      {"--threads", "threads"},
      {"--seed", "seed"},
  };
  std::string write_path;
  CampaignJobSpec job;
  job.mode = CampaignJobSpec::Mode::Flow;
  CommonRunFlags obs(/*with_robustness=*/false);
  for (int i = 1; i < argc; ++i) {
    const auto matched = match_job_flag(kFlags, argc, argv, &i, &job);
    if (!matched) return report_flag_error(matched.status());
    if (*matched) continue;
    if (!std::strcmp(argv[i], "--write") && i + 1 < argc) {
      write_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--cold")) {
      job.flow.warm_start = false;
    } else if (obs.match(argc, argv, &i)) {
      continue;
    } else {
      return usage();
    }
  }
  if (obs.failed) return 2;
  FlowOptions options = job.flow;
  options.probe_overlays = false;  // a flow never probes
  obs.arm();
  const auto t0 = std::chrono::steady_clock::now();
  bool is_mapped = false;
  auto design = load_cli_design(argv[0], &is_mapped);
  if (!design) return flush_and_fail(obs);
  DesignFlow flow(osu018_library(), options);
  const auto state = run_flow(flow, std::move(*design), is_mapped);
  if (!state) return flush_and_fail(obs);
  std::printf("%s", describe(state->netlist).c_str());
  print_state("flow", *state, nullptr);
  std::printf("%s\n", state->atpg.counters.summary().c_str());
  std::printf("clusters:");
  for (std::size_t i = 0; i < state->clusters.clusters.size() && i < 10;
       ++i) {
    std::printf(" %zu", state->clusters.clusters[i].size());
  }
  std::printf("\n");
  if (!write_path.empty()) {
    std::ofstream out(write_path);
    write_verilog(state->netlist, out);
    std::printf("wrote %s\n", write_path.c_str());
  }
  MetricsRegistry::global().absorb(flow.atpg_totals());
  RunReport report("flow", argv[0]);
  report.set_threads(state->atpg.counters.threads_used);
  report.set_final(*state);
  report.set_atpg_totals(flow.atpg_totals());
  report.set_runtime_seconds(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
  if (!obs.flush(report)) return 1;
  return 0;
}

int cmd_resyn(int argc, char** argv) {
  if (argc < 1) return usage();
  static constexpr CliFlagBinding kFlags[] = {
      {"--q", "q_max"},
      {"--p1", "p1_pct"},
      {"--util", "utilization"},
      {"--threads", "threads"},
      {"--seed", "seed"},
  };
  std::string write_path;
  CampaignJobSpec job;
  job.mode = CampaignJobSpec::Mode::Resyn;
  CommonRunFlags obs(/*with_robustness=*/true);
  for (int i = 1; i < argc; ++i) {
    const auto matched = match_job_flag(kFlags, argc, argv, &i, &job);
    if (!matched) return report_flag_error(matched.status());
    if (*matched) continue;
    if (!std::strcmp(argv[i], "--write") && i + 1 < argc) {
      write_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--cold")) {
      job.flow.warm_start = false;
      job.resyn.dedup_candidates = false;
      job.resyn.parallel_ladder = false;
    } else if (obs.match(argc, argv, &i)) {
      continue;
    } else {
      return usage();
    }
  }
  if (obs.failed) return 2;
  ResynthesisOptions& options = job.resyn;
  const FlowOptions& flow_options = job.flow;
  options.checkpoint_dir = obs.checkpoint;
  options.resume = obs.resume;
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint DIR\n");
    return 2;
  }
  obs.arm();
  const auto t0 = std::chrono::steady_clock::now();
  bool is_mapped = false;
  auto design = load_cli_design(argv[0], &is_mapped);
  if (!design) return flush_and_fail(obs);
  DesignFlow flow(osu018_library(), flow_options);
  const auto original = run_flow(flow, std::move(*design), is_mapped);
  if (!original) return flush_and_fail(obs);
  print_state("orig", *original, nullptr);
  // The fingerprint depends on the seed tests, which the sign-off
  // regenerates — compute it now, on the state resynthesize() will see.
  const std::uint64_t fingerprint =
      resynthesis_fingerprint(flow, *original, options);
  const CancelToken cancel = obs.make_cancel();
  options.cancel = &cancel;
  auto result = resynthesize(flow, *original, options);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return flush_and_fail(obs);
  }
  print_state("resyn", result->state, original ? &*original : nullptr);
  std::printf("%s\n", result->state.atpg.counters.summary().c_str());
  std::printf("%s\n", result->report.probe_atpg_summary().c_str());
  std::printf("largest accepted q: %d%%  runtime: %.1fs\n",
              result->report.q_used, result->report.runtime_seconds);
  if (result->report.deadline_expired) {
    std::printf("deadline expired: returned the best accepted design "
                "(%zu ladder rungs skipped)\n",
                result->report.rungs_skipped);
  }
  if (result->report.replayed_accepts > 0) {
    std::printf("resumed from checkpoint: %zu acceptance(s) replayed\n",
                result->report.replayed_accepts);
  }
  if (!write_path.empty()) {
    std::ofstream out(write_path);
    write_verilog(result->state.netlist, out);
    std::printf("wrote %s\n", write_path.c_str());
  }
  MetricsRegistry::global().absorb(flow.atpg_totals());
  publish_metrics(result->report, MetricsRegistry::global());
  RunReport report("resyn", argv[0]);
  report.set_threads(result->state.atpg.counters.threads_used);
  report.set_fingerprint(fingerprint);
  report.set_initial(*original);
  report.set_final(result->state);
  report.set_resynthesis(result->report);
  report.set_atpg_totals(flow.atpg_totals());
  report.set_runtime_seconds(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
  if (!obs.flush(report)) return 1;
  if (interrupted()) {
    std::fprintf(stderr,
                 "interrupted: kept the best accepted design so far\n");
  }
  return exit_code(0);
}

/// Forks one `dfmres work` child attached to `root`. Returns the pid or
/// -1 (reported). The child never returns from here.
pid_t spawn_worker(const std::string& root, int threads,
                   const std::string& heartbeat, const std::string& ttl,
                   long max_attempts, const std::string& snapshot_interval) {
  const std::string exe = self_exe_path();
  const std::string threads_text = std::to_string(threads);
  const std::string attempts_text = std::to_string(max_attempts);
  const pid_t pid = ::fork();
  if (pid != 0) {
    if (pid < 0) std::perror("fork");
    return pid;
  }
  std::vector<const char*> args = {exe.c_str(),    "work",
                                   "--campaign-root", root.c_str(),
                                   "--threads",    threads_text.c_str(),
                                   "--max-attempts", attempts_text.c_str()};
  if (!heartbeat.empty()) {
    args.push_back("--heartbeat");
    args.push_back(heartbeat.c_str());
  }
  if (!ttl.empty()) {
    args.push_back("--lease-ttl");
    args.push_back(ttl.c_str());
  }
  if (!snapshot_interval.empty()) {
    args.push_back("--snapshot-interval");
    args.push_back(snapshot_interval.c_str());
  }
  args.push_back(nullptr);
  ::execv(exe.c_str(), const_cast<char* const*>(args.data()));
  std::perror("execv");
  ::_exit(127);
}

/// The `--workers N` coordinator: initializes the campaign root, forks
/// N workers, respawns the ones that die abnormally (SIGKILL chaos,
/// crash points) within a bounded budget, and merges the shards if no
/// worker got to it. SIGINT/SIGTERM forwards to the workers and exits
/// 130 once they drain.
int run_worker_campaign(const CampaignManifest& manifest,
                        const std::string& root, int workers, int threads,
                        const std::string& heartbeat, const std::string& ttl,
                        long max_attempts,
                        const std::string& snapshot_interval,
                        const CommonRunFlags& obs) {
  if (Status s = init_campaign_root(manifest, root); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  std::vector<pid_t> live;
  for (int i = 0; i < workers; ++i) {
    const pid_t pid = spawn_worker(root, threads, heartbeat, ttl,
                                   max_attempts, snapshot_interval);
    if (pid > 0) live.push_back(pid);
  }
  if (live.empty()) return 1;
  // The first generation inherits DFMRES_CRASH_AFTER (the chaos hook);
  // respawned workers run clean so each armed crash site fires exactly
  // once and the campaign still converges deterministically.
  ::unsetenv("DFMRES_CRASH_AFTER");
  int respawn_budget = 4 + 4 * workers;
  bool forwarded_signal = false;
  int worker_failures = 0;
  while (!live.empty()) {
    if (interrupted() && !forwarded_signal) {
      forwarded_signal = true;
      for (const pid_t child : live) ::kill(child, SIGTERM);
    }
    int wstatus = 0;
    const pid_t pid = ::waitpid(-1, &wstatus, 0);
    if (pid < 0) {
      if (errno != EINTR) break;
      continue;  // interrupt forwarding happens at the top of the loop
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i] == pid) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    const bool clean = WIFEXITED(wstatus) && (WEXITSTATUS(wstatus) == 0 ||
                                              WEXITSTATUS(wstatus) == 130);
    if (clean || interrupted()) {
      if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0 &&
          WEXITSTATUS(wstatus) != 130) {
        ++worker_failures;
      }
      continue;
    }
    ++worker_failures;
    if (respawn_budget > 0) {
      --respawn_budget;
      if (WIFSIGNALED(wstatus)) {
        std::fprintf(stderr, "worker %d killed by signal %d; respawning\n",
                     static_cast<int>(pid), WTERMSIG(wstatus));
      } else {
        std::fprintf(stderr, "worker %d exited %d; respawning\n",
                     static_cast<int>(pid), WEXITSTATUS(wstatus));
      }
      const pid_t fresh = spawn_worker(root, threads, heartbeat, ttl,
                                       max_attempts, snapshot_interval);
      if (fresh > 0) live.push_back(fresh);
    } else {
      std::fprintf(stderr, "worker %d died and the respawn budget is "
                   "exhausted\n", static_cast<int>(pid));
    }
  }
  if (interrupted()) {
    std::fprintf(stderr, "interrupted: campaign root %s keeps its "
                 "checkpoints; rerun to resume\n", root.c_str());
    return 130;
  }
  // Normally the last worker out merges; cover the window where every
  // worker died between the final shard publish and the merge.
  const std::string report_path = root + "/report.json";
  if (!path_exists(report_path)) {
    const auto merged = merge_campaign_shards(root);
    if (!merged) {
      std::fprintf(stderr, "%s\n", merged.status().to_string().c_str());
      return 1;
    }
  }
  const auto report_text = read_file(report_path);
  if (!report_text) {
    std::fprintf(stderr, "%s\n", report_text.status().to_string().c_str());
    return 1;
  }
  // Campaign verdict straight from the merged document, so the exit
  // code matches what any consumer of report.json would conclude.
  long failed = 0;
  long skipped = 0;
  const auto doc = JsonValue::parse(*report_text);
  if (doc) {
    if (const JsonValue* v = doc->find("failed")) {
      failed = static_cast<long>(v->as_number());
    }
    if (const JsonValue* v = doc->find("skipped")) {
      skipped = static_cast<long>(v->as_number());
    }
    const auto print_count = [&](const char* key) {
      const JsonValue* v = doc->find(key);
      std::printf(" %s=%ld", key, v ? static_cast<long>(v->as_number()) : 0);
    };
    std::printf("campaign:");
    print_count("jobs_total");
    print_count("completed");
    print_count("expired");
    print_count("failed");
    print_count("skipped");
    std::printf("  (%d worker(s), %d failure(s) absorbed)\n", workers,
                worker_failures);
  }
  std::printf("wrote %s\n", report_path.c_str());
  if (!obs.report_out.empty() && obs.report_out != report_path) {
    if (Status s = write_file_atomic(obs.report_out, *report_text, "cli");
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("wrote %s\n", obs.report_out.c_str());
  }
  return failed == 0 && skipped == 0 ? 0 : 1;
}

/// Validated duration flag: keeps the original spelling (forwarded to
/// worker argv) after checking it parses.
bool take_duration(const char* flag, const char* text, std::string* out) {
  const auto d = parse_duration_spec(text);
  if (!d) {
    std::fprintf(stderr, "%s: %s\n", flag, d.status().to_string().c_str());
    return false;
  }
  *out = text;
  return true;
}

int cmd_campaign(int argc, char** argv) {
  std::string manifest_path;
  std::string emit_path;
  bool table2 = false;
  long workers = 0;
  long max_attempts = 3;
  std::string campaign_root;
  std::string heartbeat;
  std::string lease_ttl;
  std::string snapshot_interval;
  CampaignOptions options;
  CommonRunFlags obs(/*with_robustness=*/true, "--checkpoint-root");
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--manifest") && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--table2")) {
      table2 = true;
    } else if (!std::strcmp(argv[i], "--emit-table2") && i + 1 < argc) {
      emit_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
      long jobs = 0;
      if (!parse_long("--jobs", argv[++i], 1, 1024, &jobs)) return 2;
      options.max_parallel_jobs = static_cast<int>(jobs);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      long threads = 0;
      if (!parse_long("--threads", argv[++i], 0, 1024, &threads)) return 2;
      options.total_threads = static_cast<int>(threads);
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      if (!parse_long("--workers", argv[++i], 1, 256, &workers)) return 2;
    } else if (!std::strcmp(argv[i], "--campaign-root") && i + 1 < argc) {
      campaign_root = argv[++i];
    } else if (!std::strcmp(argv[i], "--heartbeat") && i + 1 < argc) {
      if (!take_duration("--heartbeat", argv[++i], &heartbeat)) return 2;
    } else if (!std::strcmp(argv[i], "--lease-ttl") && i + 1 < argc) {
      if (!take_duration("--lease-ttl", argv[++i], &lease_ttl)) return 2;
    } else if (!std::strcmp(argv[i], "--snapshot-interval") && i + 1 < argc) {
      // "0" (disable) is meaningful here, unlike other duration flags.
      ++i;
      if (std::strcmp(argv[i], "0") != 0 &&
          !take_duration("--snapshot-interval", argv[i], &snapshot_interval)) {
        return 2;
      }
      snapshot_interval = argv[i];
    } else if (!std::strcmp(argv[i], "--max-attempts") && i + 1 < argc) {
      if (!parse_long("--max-attempts", argv[++i], 1, 100, &max_attempts)) {
        return 2;
      }
    } else if (obs.match(argc, argv, &i)) {
      continue;
    } else {
      return usage();
    }
  }
  if (obs.failed) return 2;
  if (!emit_path.empty()) {
    const Status s = table2_manifest().write_json(emit_path);
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("wrote %s\n", emit_path.c_str());
    return 0;
  }
  if (table2 == !manifest_path.empty()) {
    std::fprintf(stderr,
                 "campaign needs exactly one of --manifest F or --table2\n");
    return 2;
  }
  if (obs.resume && obs.checkpoint.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-root DIR\n");
    return 2;
  }
  options.checkpoint_root = obs.checkpoint;
  options.resume = obs.resume;
  obs.arm();
  const auto manifest = table2 ? Expected<CampaignManifest>(table2_manifest())
                               : CampaignManifest::read(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "%s\n", manifest.status().to_string().c_str());
    return 1;
  }
  if (workers > 0) {
    if (campaign_root.empty()) {
      std::fprintf(stderr, "--workers requires --campaign-root DIR\n");
      return 2;
    }
    return run_worker_campaign(*manifest, campaign_root,
                               static_cast<int>(workers),
                               options.total_threads, heartbeat, lease_ttl,
                               max_attempts, snapshot_interval, obs);
  }
  if (!campaign_root.empty()) {
    std::fprintf(stderr, "--campaign-root requires --workers N (use "
                 "'dfmres work' to attach to an existing root)\n");
    return 2;
  }
  const CancelToken cancel = obs.make_cancel();
  options.cancel = &cancel;
  const auto result = run_campaign(*manifest, options);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return 1;
  }
  for (const auto& job : result->jobs) {
    if (job.skipped) {
      std::printf("%-16s skipped (%s)\n", job.name.c_str(),
                  job.status.to_string().c_str());
    } else if (!job.status.is_ok()) {
      std::printf("%-16s FAILED: %s\n", job.name.c_str(),
                  job.status.to_string().c_str());
    } else {
      const FlowState& s = *job.final_state;
      std::printf("%-16s U=%-5zu A=%-4zu cov=%6.2f%%  Smax=%-5zu "
                  "(%.2f%% of F)  %.1fs%s\n",
                  job.name.c_str(), s.num_undetectable(), s.num_aborted(),
                  100.0 * s.coverage(), s.smax(), 100.0 * s.smax_fraction(),
                  job.seconds,
                  job.deadline_expired ? "  (deadline expired)" : "");
    }
  }
  std::printf("campaign: %zu completed, %zu expired, %zu failed, %zu "
              "skipped in %.1fs (%d job(s) x %d lane(s))\n",
              result->completed, result->expired, result->failed,
              result->skipped, result->seconds, result->jobs_in_flight,
              result->inner_threads);
  result->merge_metrics_into(MetricsRegistry::global());
  if (!obs.flush(*result)) return 1;
  if (interrupted()) {
    std::fprintf(stderr, "interrupted: partial campaign report flushed\n");
  }
  return exit_code(result->failed == 0 && result->skipped == 0 ? 0 : 1);
}

/// `dfmres work`: one worker process attached to a campaign root.
int cmd_work(int argc, char** argv) {
  CampaignWorkerOptions options;
  long threads = 0;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--campaign-root") && i + 1 < argc) {
      options.campaign_root = argv[++i];
    } else if (!std::strcmp(argv[i], "--owner") && i + 1 < argc) {
      options.owner = argv[++i];
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      if (!parse_long("--threads", argv[++i], 0, 1024, &threads)) return 2;
      options.total_threads = static_cast<int>(threads);
    } else if (!std::strcmp(argv[i], "--heartbeat") && i + 1 < argc) {
      const auto d = parse_duration_spec(argv[++i]);
      if (!d) {
        std::fprintf(stderr, "--heartbeat: %s\n",
                     d.status().to_string().c_str());
        return 2;
      }
      options.heartbeat = *d;
    } else if (!std::strcmp(argv[i], "--lease-ttl") && i + 1 < argc) {
      const auto d = parse_duration_spec(argv[++i]);
      if (!d) {
        std::fprintf(stderr, "--lease-ttl: %s\n",
                     d.status().to_string().c_str());
        return 2;
      }
      options.lease_ttl = *d;
    } else if (!std::strcmp(argv[i], "--max-attempts") && i + 1 < argc) {
      long attempts = 0;
      if (!parse_long("--max-attempts", argv[++i], 1, 100, &attempts)) {
        return 2;
      }
      options.max_attempts = static_cast<int>(attempts);
    } else if (!std::strcmp(argv[i], "--snapshot-interval") && i + 1 < argc) {
      ++i;
      if (!std::strcmp(argv[i], "0")) {
        options.telemetry_interval = std::chrono::nanoseconds{0};
      } else {
        const auto d = parse_duration_spec(argv[i]);
        if (!d) {
          std::fprintf(stderr, "--snapshot-interval: %s\n",
                       d.status().to_string().c_str());
          return 2;
        }
        options.telemetry_interval = *d;
      }
    } else {
      return usage();
    }
  }
  if (options.campaign_root.empty()) {
    std::fprintf(stderr, "work requires --campaign-root DIR\n");
    return 2;
  }
  const CancelToken cancel(Deadline::never(), &g_signal_token);
  options.cancel = &cancel;
  const auto stats = run_campaign_worker(options);
  if (!stats) {
    std::fprintf(stderr, "%s\n", stats.status().to_string().c_str());
    return 1;
  }
  std::printf("worker: %d job(s), %d poisoned%s%s\n", stats->jobs_run,
              stats->jobs_poisoned, stats->merged ? ", merged the report" : "",
              stats->cancelled ? ", interrupted" : "");
  return stats->cancelled ? 130 : 0;
}

/// `dfmres status`: read-only observation of a campaign root. Polling
/// opens files and nothing else — no leases, no locks, no signals — so
/// watching a live campaign cannot slow it down or perturb its
/// scheduling.
int cmd_status(int argc, char** argv) {
  std::string root;
  bool follow = false;
  bool as_json = false;
  std::chrono::nanoseconds interval{std::chrono::seconds(2)};
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--campaign-root") && i + 1 < argc) {
      root = argv[++i];
    } else if (!std::strcmp(argv[i], "--follow")) {
      follow = true;
    } else if (!std::strcmp(argv[i], "--json")) {
      as_json = true;
    } else if (!std::strcmp(argv[i], "--interval") && i + 1 < argc) {
      const auto d = parse_duration_spec(argv[++i]);
      if (!d) {
        std::fprintf(stderr, "--interval: %s\n",
                     d.status().to_string().c_str());
        return 2;
      }
      interval = *d;
    } else {
      return usage();
    }
  }
  if (root.empty()) {
    std::fprintf(stderr, "status requires --campaign-root DIR\n");
    return 2;
  }
  // One poller for the whole (possibly --follow) session: its per-owner
  // sequence cursors make every telemetry snapshot parse at most once
  // across polls, instead of the follow loop rereading the campaign's
  // entire telemetry history every tick.
  StatusPoller poller(root);
  for (;;) {
    const auto status = poller.poll();
    if (!status) {
      std::fprintf(stderr, "%s\n", status.status().to_string().c_str());
      return 1;
    }
    if (as_json) {
      std::fputs(render_status_json(*status).c_str(), stdout);
    } else {
      std::fputs(render_status_table(*status).c_str(), stdout);
    }
    std::fflush(stdout);
    if (!follow || status->report_written) return exit_code(0);
    if (!as_json) std::printf("\n");
    // Sleep in short slices so SIGINT ends the follow promptly.
    auto left = interval;
    while (left.count() > 0 && !interrupted()) {
      const auto slice =
          std::min<std::chrono::nanoseconds>(left,
                                             std::chrono::milliseconds(100));
      std::this_thread::sleep_for(slice);
      left -= slice;
    }
    if (interrupted()) return 130;
  }
}

/// `dfmres serve`: the always-on job service. Runs until a drain
/// request completes (exit 0) or SIGINT/SIGTERM (exit 130; everything
/// resumes on the next start).
int cmd_serve(int argc, char** argv) {
  ServeOptions options;
  for (int i = 0; i < argc; ++i) {
    long v = 0;
    if (!std::strcmp(argv[i], "--campaign-root") && i + 1 < argc) {
      options.campaign_root = argv[++i];
    } else if (!std::strcmp(argv[i], "--listen") && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      if (!parse_long("--workers", argv[++i], 1, 256, &v)) return 2;
      options.workers = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      if (!parse_long("--threads", argv[++i], 0, 1024, &v)) return 2;
      options.total_threads = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--max-inflight") && i + 1 < argc) {
      if (!parse_long("--max-inflight", argv[++i], 1, 1000000, &v)) return 2;
      options.max_inflight_jobs = static_cast<std::size_t>(v);
    } else if (!std::strcmp(argv[i], "--client-quota") && i + 1 < argc) {
      if (!parse_long("--client-quota", argv[++i], 1, 100000, &v)) return 2;
      options.max_client_campaigns = static_cast<std::size_t>(v);
    } else {
      return usage();
    }
  }
  if (options.campaign_root.empty() || options.socket_path.empty()) {
    std::fprintf(stderr, "serve requires --campaign-root DIR and "
                 "--listen SOCKET\n");
    return 2;
  }
  const CancelToken cancel(Deadline::never(), &g_signal_token);
  options.cancel = &cancel;
  const auto stats = run_serve(options);
  if (!stats) {
    std::fprintf(stderr, "%s\n", stats.status().to_string().c_str());
    return 1;
  }
  std::printf("serve: %zu admitted, %zu recovered, %zu completed, %zu "
              "job(s) executed, %zu rejected, %zu malformed%s\n",
              stats->campaigns_admitted, stats->campaigns_recovered,
              stats->campaigns_completed, stats->jobs_executed,
              stats->requests_rejected, stats->requests_malformed,
              stats->drained ? ", drained" : ", interrupted");
  return stats->drained ? 0 : exit_code(1);
}

/// Connects to the serve daemon's Unix-domain socket. -1 = reported.
int connect_serve_socket(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    std::perror("socket");
    return -1;
  }
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::fprintf(stderr, "connect %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Streams `dfmres-response-v1` lines from the daemon to stdout until
/// `decide` picks an exit code (or EOF / SIGINT). `decide` sees each
/// parsed event document; returning a negative code keeps streaming.
int stream_serve_events(int fd, bool print,
                        const std::function<int(const JsonValue&)>& decide) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        if (interrupted()) return 130;
        continue;
      }
      std::perror("read");
      return 1;
    }
    if (n == 0) {
      std::fprintf(stderr, "server closed the connection\n");
      return 1;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      if (print) std::printf("%s\n", line.c_str());
      const auto doc = JsonValue::parse(line);
      if (!doc) continue;  // torn / foreign line: keep streaming
      const int code = decide(*doc);
      if (code >= 0) return code;
    }
    buf.erase(0, start);
  }
}

[[nodiscard]] const char* event_name(const JsonValue& doc) {
  const JsonValue* ev = doc.find("event");
  return ev != nullptr && ev->is_string() ? ev->as_string().c_str() : "";
}

/// `dfmres request`: the reference protocol client. Sends exactly one
/// `dfmres-request-v1` line over the daemon socket and streams the
/// response events to stdout; scripts get the protocol without speaking
/// raw JSON (nc/socat remain equivalent).
int cmd_request(int argc, char** argv) {
  if (argc < 1) return usage();
  static constexpr CliFlagBinding kJobFlags[] = {
      {"--mode", "mode"},         {"--util", "utilization"},
      {"--threads", "threads"},   {"--seed", "seed"},
      {"--q", "q_max"},           {"--p1", "p1_pct"},
      {"--deadline", "deadline"},
  };
  std::string verb;
  std::string socket_path;
  std::string id;
  std::string manifest_path;
  std::string name;
  bool wait = false;
  CampaignJobSpec job;
  for (int i = 0; i < argc; ++i) {
    const auto matched = match_job_flag(kJobFlags, argc, argv, &i, &job);
    if (!matched) return report_flag_error(matched.status());
    if (*matched) continue;
    if (std::strncmp(argv[i], "--", 2) != 0 && verb.empty()) {
      verb = argv[i];
    } else if (!std::strcmp(argv[i], "--socket") && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--id") && i + 1 < argc) {
      id = argv[++i];
    } else if (!std::strcmp(argv[i], "--manifest") && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--design") && i + 1 < argc) {
      job.design = argv[++i];
    } else if (!std::strcmp(argv[i], "--name") && i + 1 < argc) {
      name = argv[++i];
    } else if (!std::strcmp(argv[i], "--wait")) {
      wait = true;
    } else {
      return usage();
    }
  }
  if (socket_path.empty() || verb.empty()) {
    std::fprintf(stderr, "request requires --socket PATH and a verb "
                 "(submit|submit-job|status|cancel|drain)\n");
    return 2;
  }

  Request request;
  if (verb == "submit") {
    if (id.empty() || manifest_path.empty()) {
      std::fprintf(stderr, "submit requires --id ID and --manifest F\n");
      return 2;
    }
    auto manifest = CampaignManifest::read(manifest_path);
    if (!manifest) {
      std::fprintf(stderr, "%s\n", manifest.status().to_string().c_str());
      return 1;
    }
    request.payload = CampaignRequest{id, std::move(*manifest)};
  } else if (verb == "submit-job") {
    if (id.empty() || job.design.empty()) {
      std::fprintf(stderr, "submit-job requires --id ID and --design D\n");
      return 2;
    }
    job.name = name.empty() ? id : name;
    request.payload = RunRequest{id, std::move(job)};
  } else if (verb == "status") {
    request.payload = StatusRequest{id};
  } else if (verb == "cancel") {
    if (id.empty()) {
      std::fprintf(stderr, "cancel requires --id ID\n");
      return 2;
    }
    request.payload = CancelRequest{id};
  } else if (verb == "drain") {
    request.payload = DrainRequest{};
  } else {
    return usage();
  }
  if (Status s = validate_campaign_id(request.id());
      !request.id().empty() && !s.is_ok()) {
    std::fprintf(stderr, "--id: %s\n", s.to_string().c_str());
    return 2;
  }

  const int fd = connect_serve_socket(socket_path);
  if (fd < 0) return 1;
  const std::string line = request_to_json(request) + "\n";
  for (std::size_t off = 0; off < line.size();) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::perror("write");
      ::close(fd);
      return 1;
    }
    off += static_cast<std::size_t>(n);
  }

  // Each verb has one terminal event; a submit with --wait keeps the
  // stream open through job_done events until the campaign report.
  const int code = stream_serve_events(fd, true, [&](const JsonValue& doc) {
    const std::string event = event_name(doc);
    if (event == "rejected" || event == "error") return 1;
    if (verb == "drain") return event == "drained" ? 0 : -1;
    if (verb == "status") return event == "status" ? 0 : -1;
    if (verb == "cancel" || !wait) return event == "accepted" ? 0 : -1;
    return event == "report" ? 0 : -1;
  });
  ::close(fd);
  return code;
}

/// `dfmres trace merge`: the cross-process timeline.
int cmd_trace(int argc, char** argv) {
  if (argc < 1 || std::strcmp(argv[0], "merge") != 0) return usage();
  std::string root;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--campaign-root") && i + 1 < argc) {
      root = argv[++i];
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out = argv[++i];
    } else {
      return usage();
    }
  }
  if (root.empty()) {
    std::fprintf(stderr, "trace merge requires --campaign-root DIR\n");
    return 2;
  }
  const auto merged = merge_campaign_trace(root);
  if (!merged) {
    std::fprintf(stderr, "%s\n", merged.status().to_string().c_str());
    return 1;
  }
  if (out.empty()) {
    std::fputs(merged->c_str(), stdout);
    std::fputs("\n", stdout);
    return 0;
  }
  if (Status s = write_file_atomic(out, *merged, "trace"); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

/// `dfmres canon`: the canonical projection of a campaign report, for
/// byte-identity comparison across worker counts and kill schedules.
int cmd_canon(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 text.status().to_string().c_str());
    return 1;
  }
  const auto canon = canonical_campaign_report(*text);
  if (!canon) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 canon.status().to_string().c_str());
    return 1;
  }
  std::fputs(canon->c_str(), stdout);
  if (canon->empty() || canon->back() != '\n') std::fputs("\n", stdout);
  return 0;
}

int cmd_verilog(int argc, char** argv) {
  if (argc < 1) return usage();
  bool is_mapped = false;
  const auto design = load_cli_design(argv[0], &is_mapped);
  if (!design) return 1;
  if (is_mapped) {
    write_verilog(*design, std::cout);
    return 0;
  }
  MapOptions mo;
  const auto glib = generic_library();
  const auto tlib = osu018_library();
  mo.fixed_map.emplace(glib->require("DFF").value(), tlib->require("DFFPOSX1"));
  mo.fixed_map.emplace(glib->require("FA").value(), tlib->require("FAX1"));
  mo.fixed_map.emplace(glib->require("HA").value(), tlib->require("HAX1"));
  const auto mapped = technology_map(*design, tlib, mo);
  if (!mapped) {
    std::fprintf(stderr, "%s\n", mapped.status().to_string().c_str());
    return 1;
  }
  write_verilog(*mapped, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  g_argv0 = argv[0];
  install_signal_handlers();
  const std::string cmd = argv[1];
  if (cmd == "list") return cmd_list(argc - 2);
  if (cmd == "flow") return cmd_flow(argc - 2, argv + 2);
  if (cmd == "resyn") return cmd_resyn(argc - 2, argv + 2);
  if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
  if (cmd == "work") return cmd_work(argc - 2, argv + 2);
  if (cmd == "status") return cmd_status(argc - 2, argv + 2);
  if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  if (cmd == "request") return cmd_request(argc - 2, argv + 2);
  if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
  if (cmd == "canon") return cmd_canon(argc - 2, argv + 2);
  if (cmd == "verilog") return cmd_verilog(argc - 2, argv + 2);
  return usage();
}
