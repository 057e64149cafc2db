#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/resynthesis.hpp"
#include "src/core/run_report.hpp"
#include "src/core/schemas.hpp"
#include "src/util/duration.hpp"
#include "src/util/metrics.hpp"

namespace dfmres {

class JsonValue;

/// One job of a campaign: a design crossed with the flow and (for resyn
/// jobs) resynthesis options. The spec's `resyn.cancel`,
/// `resyn.checkpoint_dir` and `resyn.resume` fields are managed by the
/// scheduler (per-job token, `<checkpoint_root>/<name>`); values set
/// here are ignored. `flow.atpg.num_threads` is a cap on the job's
/// inner fan-out: the scheduler lowers it to the two-level budget
/// (0 = use the full per-job share).
struct CampaignJobSpec {
  enum class Mode { Flow, Resyn };

  /// Unique within the manifest; names the job in the report and its
  /// checkpoint directory (must be a single path component).
  std::string name;
  /// Benchmark name (see `dfmres list`) or a path to a structural
  /// Verilog file over the standard library.
  std::string design;
  Mode mode = Mode::Resyn;
  FlowOptions flow;
  ResynthesisOptions resyn;
  /// Per-job wall-clock budget, armed when the job starts (0 = none).
  std::chrono::nanoseconds deadline{0};
};

/// An ordered set of campaign jobs with a strict JSON representation
/// (schema `dfmres-campaign-manifest-v1`). The JSON form covers the
/// commonly swept knobs; programmatic callers (benches, tests) can fill
/// any CampaignJobSpec field directly.
struct CampaignManifest {
  static constexpr const char* kSchema = schemas::kCampaignManifest;

  std::vector<CampaignJobSpec> jobs;

  /// Strict parse: unknown keys, duplicate job names, bad enum values
  /// and malformed durations are kInvalidArgument (with a line:column
  /// locator for syntax errors).
  [[nodiscard]] static Expected<CampaignManifest> from_json(
      std::string_view text);
  /// Same strict parse over an already-parsed document (embedded
  /// manifests inside dfmres-request-v1 submissions).
  [[nodiscard]] static Expected<CampaignManifest> from_json_value(
      const JsonValue& doc);
  [[nodiscard]] static Expected<CampaignManifest> read(
      const std::string& path);

  /// Canonical JSON (round-trips through from_json).
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] Status write_json(const std::string& path) const;

  /// The duplicate-name / empty-name / path-component checks from_json
  /// applies, callable on programmatically built manifests.
  [[nodiscard]] Status validate() const;
};

/// The paper's Table II sweep: every built-in benchmark as one resyn job
/// at the paper's q_max = 5 envelope.
[[nodiscard]] CampaignManifest table2_manifest();

/// Loads a job's design: a benchmark name gives its generic RTL netlist,
/// a `*.v` path an already-mapped netlist over the standard library.
/// `is_mapped` is set from the name alone (true for a `*.v` path), so a
/// caller can tell the two failure kinds apart. kNotFound = unknown
/// benchmark or unreadable file; a parse failure keeps the parser's
/// code, with the file name in front of its message.
[[nodiscard]] Expected<Netlist> load_design(const std::string& name,
                                            bool* is_mapped);

/// The initial test-generating analysis of a loaded design: run_initial
/// on RTL; an already-mapped netlist is placed in a fresh floorplan at
/// the flow's utilization and analyzed as is.
[[nodiscard]] Expected<FlowState> analyze_design(DesignFlow& flow,
                                                 Netlist design,
                                                 bool is_mapped);

struct CampaignOptions {
  /// Jobs in flight at once (clamped to [1, |jobs|]).
  int max_parallel_jobs = 1;
  /// Hardware budget split across the jobs in flight:
  /// `inner = max(1, total_threads / jobs_in_flight)` fault-sim lanes
  /// per job, so `jobs × inner ≤ max(total, jobs)`. 0 = hardware
  /// concurrency.
  int total_threads = 0;
  /// Campaign-wide stop signal; per-job tokens chain to it, so
  /// cancelling it drains every running job cooperatively and skips the
  /// jobs not yet started.
  const CancelToken* cancel = nullptr;
  /// Per-job checkpoint journals at `<checkpoint_root>/<job name>`
  /// (empty = no checkpointing). The root is created if missing.
  std::string checkpoint_root;
  /// Resume each job from its journal when one exists.
  bool resume = false;
};

/// Outcome of one campaign job. `status` is ok for a job that ran to
/// completion (including a resyn whose deadline expired — that returns
/// the best accepted design per the resynthesis contract, with
/// `deadline_expired` set); a failed job carries the error here and
/// leaves the optionals empty.
struct CampaignJobResult {
  std::string name;
  std::string design;
  CampaignJobSpec::Mode mode = CampaignJobSpec::Mode::Resyn;
  Status status;
  /// The campaign was cancelled/expired before this job started.
  bool skipped = false;
  bool deadline_expired = false;
  int inner_threads = 0;
  double seconds = 0.0;
  std::optional<FlowState> initial;
  std::optional<FlowState> final_state;
  std::optional<ResynthesisReport> resyn;
  AtpgCounters atpg_totals;
  /// Per-job run report, identical in shape (command "flow"/"resyn") to
  /// the one the standalone CLI run would emit.
  std::optional<RunReport> report;
  /// Per-job metrics shard (never the global registry), merged
  /// deterministically in manifest order into the campaign report.
  std::unique_ptr<MetricsRegistry> metrics;

  [[nodiscard]] bool ok() const { return status.is_ok() && !skipped; }
};

/// One row of a campaign report — the schema-level shape shared by the
/// in-process scheduler and the multi-process shard merge, so both paths
/// render through the same code and produce identical bytes for
/// identical content by construction.
struct CampaignReportRow {
  std::string name;
  std::string design;
  std::string mode;  ///< "flow" | "resyn"
  bool ok = false;
  std::string status = "ok";  ///< "ok" or the Status string
  bool skipped = false;
  bool deadline_expired = false;
  bool poisoned = false;  ///< attempt budget exhausted; no result
  int attempts = 1;       ///< lease attempts consumed (1 in-process)
  std::string worker;     ///< owner id of the publishing worker ("" local)
  int inner_threads = 0;
  double runtime_seconds = 0.0;
  std::string report_json;  ///< embedded run report; empty = absent
};

/// The campaign-level header counts of a report.
struct CampaignReportTotals {
  std::size_t jobs_total = 0;
  std::size_t completed = 0;
  std::size_t expired = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  int jobs_in_flight = 0;  ///< 0 = multi-process (not a fixed fan-out)
  int inner_threads = 0;
  int total_threads = 0;
  double runtime_seconds = 0.0;
};

/// Renders the `dfmres-campaign-report-v1` document.
[[nodiscard]] std::string render_campaign_report(
    const CampaignReportTotals& totals,
    const std::vector<CampaignReportRow>& rows,
    const std::string& metrics_json);

struct CampaignResult {
  static constexpr const char* kReportSchema = schemas::kCampaignReport;

  /// One entry per manifest job, in manifest order regardless of the
  /// order jobs finished in.
  std::vector<CampaignJobResult> jobs;
  std::size_t completed = 0;  ///< ok and not deadline-expired
  std::size_t expired = 0;    ///< ok but the job deadline cut the search
  std::size_t failed = 0;
  std::size_t skipped = 0;
  int jobs_in_flight = 0;   ///< resolved max_parallel_jobs
  int inner_threads = 0;    ///< resolved per-job fan-out budget
  int total_threads = 0;    ///< resolved hardware budget
  double seconds = 0.0;

  /// Folds every job's metrics shard into `out` in manifest order (the
  /// deterministic-merge contract: the result is independent of job
  /// scheduling).
  void merge_metrics_into(MetricsRegistry& out) const;

  /// The `dfmres-campaign-report-v1` JSON: campaign totals, one entry
  /// per job embedding its run report, and the merged metrics.
  [[nodiscard]] std::string report_json() const;
  [[nodiscard]] Status write_report(const std::string& path) const;
};

/// Executes the manifest's jobs, `max_parallel_jobs` at a time, on
/// dedicated runner threads (inner ATPG/ladder fan-outs share the
/// process-wide ThreadPool under the two-level budget; the pool is never
/// entered twice from one lane). Each job is isolated: a failed or
/// deadline-expired job is reported in its slot and the others run to
/// completion. Job results are bit-identical to the same job run alone,
/// whatever the parallelism. Fails only on campaign-level problems: an
/// empty or invalid manifest, or an unusable checkpoint root.
[[nodiscard]] Expected<CampaignResult> run_campaign(
    const CampaignManifest& manifest, const CampaignOptions& options);

// ---- Multi-process campaigns (lease-claimed workers, shard merge) ----
//
// A campaign *root* directory is the shared coordination medium:
//   <root>/manifest.json   the manifest, written once at init
//   <root>/leases/<job>/   epoch-numbered lease files (see lease.hpp)
//   <root>/ckpt/<job>/     the job's checkpoint journal (cross-attempt)
//   <root>/shards/<job>.json  one dfmres-campaign-shard-v1 per done job
//   <root>/report.json     the merged dfmres-campaign-report-v1
// Any number of worker processes may attach concurrently; jobs are
// claimed through the lease protocol, results are published as shards
// (exclusive create — first wins), and the merge is deterministic in
// manifest order, so the merged report does not depend on the worker
// count or on which workers died along the way.

inline constexpr const char* kCampaignShardSchema = schemas::kCampaignShard;

struct CampaignWorkerOptions {
  std::string campaign_root;
  /// Unique worker identity; empty = "w<pid>".
  std::string owner;
  /// Hardware budget for this worker's (serial) jobs; 0 = hardware
  /// concurrency.
  int total_threads = 0;
  /// Worker-level stop signal (SIGINT/SIGTERM): abandons the current
  /// job without publishing a shard, so another worker redoes it.
  const CancelToken* cancel = nullptr;
  std::chrono::nanoseconds heartbeat{std::chrono::milliseconds(500)};
  std::chrono::nanoseconds lease_ttl{0};  ///< 0 = 3x heartbeat
  int max_attempts = 3;
  std::chrono::nanoseconds backoff_base{std::chrono::milliseconds(250)};
  /// Period of the crash-durable telemetry snapshots this worker
  /// publishes under `<root>/telemetry/` (see telemetry.hpp). 0
  /// disables telemetry entirely.
  std::chrono::nanoseconds telemetry_interval{std::chrono::seconds(1)};
};

struct CampaignWorkerStats {
  int jobs_run = 0;       ///< shards this worker published
  int jobs_poisoned = 0;  ///< poison shards this worker published
  bool merged = false;    ///< this worker won the merge election
  bool cancelled = false; ///< stopped by the cancel token, jobs left
};

/// Creates the campaign root layout and writes the manifest (atomic,
/// durable). Fails kAlreadyExists if a manifest is already present with
/// different content; identical re-init is a no-op, so a coordinator
/// restart can reuse a root.
[[nodiscard]] Status init_campaign_root(const CampaignManifest& manifest,
                                        const std::string& root);

/// Reads `<root>/manifest.json`.
[[nodiscard]] Expected<CampaignManifest> read_campaign_root(
    const std::string& root);

/// Attaches to a campaign root and drains it: claims jobs through the
/// lease protocol, runs them one at a time (resuming from the shared
/// checkpoint dir), publishes shards, and participates in the merge
/// election once every job has a shard. Returns when the campaign is
/// complete (or the token trips). kInternal only for unusable roots and
/// I/O failures — job-level errors become failed attempts and
/// eventually poison shards, never worker exits.
[[nodiscard]] Expected<CampaignWorkerStats> run_campaign_worker(
    const CampaignWorkerOptions& options);

// ---- Shared per-job execution core ----
//
// One claim-and-run pass over a single job: the unit both the
// standalone worker (`dfmres work`, rounds in manifest order) and the
// `dfmres serve` daemon (workers popping its job deque) schedule.
// Everything stateful about the pass lives in the campaign root
// (leases, checkpoints, shards), so a pass is idempotent and safe to
// retry from any thread or process.

class LeaseDir;
class TelemetryPublisher;

enum class JobPassOutcome {
  kPublished,     ///< a result (or skip) shard was written
  kPoisoned,      ///< the attempt budget burned; tombstone published
  kAlreadyDone,   ///< a shard already existed; nothing to do
  kBusy,          ///< lease held elsewhere or in backoff; retry later
  kAttemptFailed, ///< ran and failed; lease marked, retry later
  kLeaseLost,     ///< heartbeat lost mid-run; result discarded
  kCancelled,     ///< ctx.cancel tripped; no shard, state resumable
};

struct CampaignJobPassContext {
  std::string root;
  const LeaseDir* leases = nullptr;
  std::string owner;
  int total_threads = 0;  ///< resolved hardware budget
  int inner_threads = 0;  ///< resolved fault-sim lanes for the job
  const CancelToken* cancel = nullptr;
  TelemetryPublisher* telemetry = nullptr;  ///< optional
  int max_attempts = 3;
  /// Publish a skipped shard instead of running the job: a cancelled
  /// campaign still terminalizes every pending job so the merge
  /// completes with a full report.
  bool skip = false;
};

[[nodiscard]] Expected<JobPassOutcome> campaign_job_pass(
    const CampaignJobPassContext& ctx, const CampaignJobSpec& spec);

/// True when every manifest job has a published shard.
[[nodiscard]] bool campaign_shards_complete(const std::string& root,
                                            const CampaignManifest& manifest);

/// Deterministically merges all shards into the campaign report, writes
/// it to `<root>/report.json` (atomic) and returns the JSON. The merge
/// depends only on shard *content* in manifest order — any worker count
/// and any kill schedule that produced the same shard set produces the
/// same bytes. kFailedPrecondition when shards are missing.
[[nodiscard]] Expected<std::string> merge_campaign_shards(
    const std::string& root);

/// Canonical projection of a `dfmres-campaign-report-v1` document: keeps
/// the deterministic substance (per-job verdicts, fingerprints, initial/
/// final Table-I/II summaries, the accepted convergence trace) and
/// strips everything timing- or scheduling-dependent (wall/cpu seconds,
/// thread counts, attempt/worker provenance, work counters that differ
/// across checkpoint resumes, rejected-probe records that replay does
/// not regenerate, metrics). Two runs of the same manifest — serial,
/// sharded, or crash-resumed — canonicalize to identical bytes.
[[nodiscard]] Expected<std::string> canonical_campaign_report(
    std::string_view report_json);

}  // namespace dfmres
