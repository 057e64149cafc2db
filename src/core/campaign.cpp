#include "src/core/campaign.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include <unistd.h>

#include "src/circuits/benchmarks.hpp"
#include "src/core/lease.hpp"
#include "src/core/request.hpp"
#include "src/core/telemetry.hpp"
#include "src/layout/floorplan.hpp"
#include "src/netlist/verilog.hpp"
#include "src/place/placement.hpp"
#include "src/library/osu018.hpp"
#include "src/util/crashpoint.hpp"
#include "src/util/fsio.hpp"
#include "src/util/json.hpp"
#include "src/util/logging.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/trace.hpp"

namespace dfmres {

namespace {

constexpr const char* kModeFlow = "flow";
constexpr const char* kModeResyn = "resyn";

}  // namespace

Expected<CampaignManifest> CampaignManifest::from_json(std::string_view text) {
  auto doc = JsonValue::parse(text);
  if (!doc) return doc.status();
  return from_json_value(*doc);
}

Expected<CampaignManifest> CampaignManifest::from_json_value(
    const JsonValue& doc) {
  if (!doc.is_object()) {
    return make_status(StatusCode::kInvalidArgument,
                       "manifest: expected a top-level object");
  }
  CampaignManifest manifest;
  bool have_schema = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "schema") {
      if (!value.is_string() || value.as_string() != kSchema) {
        return make_status(StatusCode::kInvalidArgument,
                           "manifest: schema must be \"%s\"", kSchema);
      }
      have_schema = true;
    } else if (key == "jobs") {
      if (!value.is_array()) {
        return make_status(StatusCode::kInvalidArgument,
                           "manifest: 'jobs' must be an array");
      }
      for (std::size_t i = 0; i < value.items().size(); ++i) {
        CampaignJobSpec job;
        const std::string ctx = strfmt("manifest job %zu", i);
        if (Status s = parse_job_spec(value.items()[i], ctx.c_str(), &job);
            !s.is_ok()) {
          return s;
        }
        manifest.jobs.push_back(std::move(job));
      }
    } else {
      return make_status(StatusCode::kInvalidArgument,
                         "manifest: unknown key '%s'", key.c_str());
    }
  }
  if (!have_schema) {
    return make_status(StatusCode::kInvalidArgument,
                       "manifest: missing \"schema\": \"%s\"", kSchema);
  }
  if (Status s = manifest.validate(); !s.is_ok()) return s;
  return manifest;
}

Expected<CampaignManifest> CampaignManifest::read(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return make_status(StatusCode::kNotFound, "cannot open manifest '%s'",
                       path.c_str());
  }
  std::ostringstream text;
  text << in.rdbuf();
  return from_json(text.str());
}

std::string CampaignManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", kSchema);
  w.key("jobs");
  w.begin_array();
  for (const auto& job : jobs) {
    write_job_spec(w, job);
  }
  w.end_array();
  w.end_object();
  return w.take();
}

Status CampaignManifest::write_json(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return make_status(StatusCode::kInvalidArgument,
                       "cannot open manifest output '%s'", path.c_str());
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return make_status(StatusCode::kDataLoss,
                       "short write to manifest output '%s'", path.c_str());
  }
  return Status::ok();
}

Status CampaignManifest::validate() const {
  if (jobs.empty()) {
    return make_status(StatusCode::kInvalidArgument, "manifest has no jobs");
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CampaignJobSpec& job = jobs[i];
    if (job.name.empty()) {
      return make_status(StatusCode::kInvalidArgument,
                         "manifest job %zu: empty name", i);
    }
    if (job.name == "." || job.name == ".." ||
        job.name.find('/') != std::string::npos) {
      return make_status(StatusCode::kInvalidArgument,
                         "manifest job %zu: name '%s' is not a single path "
                         "component",
                         i, job.name.c_str());
    }
    if (job.name.rfind("__", 0) == 0) {
      // "__merge__" and friends are reserved lease names of the
      // multi-process scheduler.
      return make_status(StatusCode::kInvalidArgument,
                         "manifest job %zu: name '%s' uses the reserved "
                         "'__' prefix",
                         i, job.name.c_str());
    }
    if (job.design.empty()) {
      return make_status(StatusCode::kInvalidArgument,
                         "manifest job %zu ('%s'): empty design", i,
                         job.name.c_str());
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (jobs[j].name == job.name) {
        return make_status(StatusCode::kInvalidArgument,
                           "manifest jobs %zu and %zu share the name '%s'", j,
                           i, job.name.c_str());
      }
    }
  }
  return Status::ok();
}

CampaignManifest table2_manifest() {
  CampaignManifest manifest;
  for (const auto name : benchmark_names()) {
    CampaignJobSpec job;
    job.name = std::string(name);
    job.design = std::string(name);
    job.mode = CampaignJobSpec::Mode::Resyn;
    job.resyn.q_max = 5;  // the paper's Table II envelope
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Benchmark name -> generic RTL netlist (is_mapped=false); *.v file ->
/// already-mapped netlist over the standard library (is_mapped=true).
Expected<Netlist> load_campaign_design(const std::string& name,
                                       bool* is_mapped) {
  *is_mapped = false;
  if (ends_with(name, ".v")) {
    std::ifstream in(name);
    if (!in) {
      return make_status(StatusCode::kNotFound, "cannot open design '%s'",
                         name.c_str());
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto nl = read_verilog(text.str(), osu018_library());
    if (!nl) return nl.status();
    *is_mapped = true;
    return std::move(*nl);
  }
  return build_benchmark(name);
}

/// Runs one job start to finish on the calling (runner) thread. Never
/// throws past here: every failure lands in the result's status so the
/// rest of the campaign is unaffected.
CampaignJobResult run_job(const CampaignJobSpec& spec,
                          const CampaignOptions& options, int inner_threads) {
  CampaignJobResult result;
  result.name = spec.name;
  result.design = spec.design;
  result.mode = spec.mode;
  result.inner_threads = inner_threads;
  result.metrics = std::make_unique<MetricsRegistry>();
  if (cancel_expired(options.cancel)) {
    result.skipped = true;
    result.status = options.cancel->to_status();
    return result;
  }

  TraceSpan span("campaign.job", "campaign");
  span.arg("name", spec.name.c_str());
  const auto t0 = std::chrono::steady_clock::now();
  const auto finish = [&] {
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };

  // The per-job stop signal: the job deadline is armed now (when the job
  // starts, matching a standalone run), chained to the campaign token so
  // a campaign-wide cancel drains this job too.
  const CancelToken token(spec.deadline.count() > 0
                              ? Deadline::after(spec.deadline)
                              : Deadline::never(),
                          options.cancel);

  bool is_mapped = false;
  auto design = load_campaign_design(spec.design, &is_mapped);
  if (!design) {
    result.status = design.status();
    finish();
    return result;
  }

  FlowOptions flow_options = spec.flow;
  // Two-level budget: the job's fault-sim/ladder fan-out never exceeds
  // its share of the machine; an explicit manifest cap only lowers it.
  flow_options.atpg.num_threads =
      flow_options.atpg.num_threads == 0
          ? inner_threads
          : std::min(flow_options.atpg.num_threads, inner_threads);
  // A flow job never probes, so it skips the probe baseline's rebuild.
  if (spec.mode == CampaignJobSpec::Mode::Flow) {
    flow_options.probe_overlays = false;
  }
  DesignFlow flow(osu018_library(), flow_options);

  Expected<FlowState> original = [&]() -> Expected<FlowState> {
    if (!is_mapped) return flow.run_initial(*design);
    const Floorplan plan = make_floorplan(*design, flow_options.utilization);
    Placement placement = global_place(*design, plan, flow_options.place);
    return flow.analyze(AnalysisRequest::placed(
        std::move(*design), std::move(placement), /*generate_tests=*/true));
  }();
  if (!original) {
    result.status = original.status();
    finish();
    return result;
  }

  if (spec.mode == CampaignJobSpec::Mode::Flow) {
    result.final_state = std::move(*original);
    result.atpg_totals = flow.atpg_totals();
    result.metrics->absorb(result.atpg_totals);
    RunReport report("flow", spec.design);
    report.set_threads(result.final_state->atpg.counters.threads_used);
    report.set_final(*result.final_state);
    report.set_atpg_totals(result.atpg_totals);
    finish();
    report.set_runtime_seconds(result.seconds);
    result.report = std::move(report);
    return result;
  }

  ResynthesisOptions resyn_options = spec.resyn;
  resyn_options.cancel = &token;
  if (!options.checkpoint_root.empty()) {
    resyn_options.checkpoint_dir = options.checkpoint_root + "/" + spec.name;
    resyn_options.resume = options.resume;
  } else {
    resyn_options.checkpoint_dir.clear();
    resyn_options.resume = false;
  }
  const std::uint64_t fingerprint =
      resynthesis_fingerprint(flow, *original, resyn_options);
  auto resyn = resynthesize(flow, *original, resyn_options);
  if (!resyn) {
    result.status = resyn.status();
    finish();
    return result;
  }
  result.initial = std::move(*original);
  result.final_state = std::move(resyn->state);
  result.resyn = std::move(resyn->report);
  result.deadline_expired = result.resyn->deadline_expired;
  result.atpg_totals = flow.atpg_totals();
  result.metrics->absorb(result.atpg_totals);
  publish_metrics(*result.resyn, *result.metrics);
  RunReport report("resyn", spec.design);
  report.set_threads(result.final_state->atpg.counters.threads_used);
  report.set_fingerprint(fingerprint);
  report.set_initial(*result.initial);
  report.set_final(*result.final_state);
  report.set_resynthesis(*result.resyn);
  report.set_atpg_totals(result.atpg_totals);
  finish();
  report.set_runtime_seconds(result.seconds);
  result.report = std::move(report);
  return result;
}

}  // namespace

void CampaignResult::merge_metrics_into(MetricsRegistry& out) const {
  for (const auto& job : jobs) {
    if (job.metrics != nullptr) out.merge(*job.metrics);
  }
}

std::string render_campaign_report(const CampaignReportTotals& totals,
                                   const std::vector<CampaignReportRow>& rows,
                                   const std::string& metrics_json) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", CampaignResult::kReportSchema);
  w.field("jobs_total", static_cast<std::uint64_t>(totals.jobs_total));
  w.field("completed", static_cast<std::uint64_t>(totals.completed));
  w.field("expired", static_cast<std::uint64_t>(totals.expired));
  w.field("failed", static_cast<std::uint64_t>(totals.failed));
  w.field("skipped", static_cast<std::uint64_t>(totals.skipped));
  w.field("jobs_in_flight", totals.jobs_in_flight);
  w.field("inner_threads", totals.inner_threads);
  w.field("total_threads", totals.total_threads);
  w.field("runtime_seconds", totals.runtime_seconds);
  w.key("jobs");
  w.begin_array();
  for (const CampaignReportRow& row : rows) {
    w.begin_object();
    w.field("name", row.name);
    w.field("design", row.design);
    w.field("mode", row.mode);
    w.field("ok", row.ok);
    w.field("status", row.status);
    w.field("skipped", row.skipped);
    w.field("deadline_expired", row.deadline_expired);
    w.field("poisoned", row.poisoned);
    w.field("attempts", row.attempts);
    w.field("worker", row.worker);
    w.field("inner_threads", row.inner_threads);
    w.field("runtime_seconds", row.runtime_seconds);
    if (!row.report_json.empty()) {
      w.key("report");
      w.raw(row.report_json);
    }
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.raw(metrics_json);
  w.end_object();
  return w.take();
}

std::string CampaignResult::report_json() const {
  CampaignReportTotals totals;
  totals.jobs_total = jobs.size();
  totals.completed = completed;
  totals.expired = expired;
  totals.failed = failed;
  totals.skipped = skipped;
  totals.jobs_in_flight = jobs_in_flight;
  totals.inner_threads = inner_threads;
  totals.total_threads = total_threads;
  totals.runtime_seconds = seconds;
  std::vector<CampaignReportRow> rows;
  rows.reserve(jobs.size());
  for (const auto& job : jobs) {
    CampaignReportRow row;
    row.name = job.name;
    row.design = job.design;
    row.mode =
        job.mode == CampaignJobSpec::Mode::Flow ? kModeFlow : kModeResyn;
    row.ok = job.ok();
    row.status = job.status.is_ok() ? std::string("ok")
                                    : job.status.to_string();
    row.skipped = job.skipped;
    row.deadline_expired = job.deadline_expired;
    row.inner_threads = job.inner_threads;
    row.runtime_seconds = job.seconds;
    if (job.report.has_value()) row.report_json = job.report->to_json();
    rows.push_back(std::move(row));
  }
  MetricsRegistry merged;
  merge_metrics_into(merged);
  return render_campaign_report(totals, rows, merged.to_json());
}

Status CampaignResult::write_report(const std::string& path) const {
  const std::string json = report_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return make_status(StatusCode::kInvalidArgument,
                       "cannot open report output '%s'", path.c_str());
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return make_status(StatusCode::kDataLoss,
                       "short write to report output '%s'", path.c_str());
  }
  return Status::ok();
}

Expected<CampaignResult> run_campaign(const CampaignManifest& manifest,
                                      const CampaignOptions& options) {
  if (Status s = manifest.validate(); !s.is_ok()) return s;
  if (!options.checkpoint_root.empty()) {
    if (Status s = make_dir(options.checkpoint_root); !s.is_ok()) return s;
  }

  CampaignResult out;
  out.total_threads = ThreadPool::resolve_threads(options.total_threads);
  out.jobs_in_flight = std::clamp(options.max_parallel_jobs, 1,
                                  static_cast<int>(manifest.jobs.size()));
  out.inner_threads =
      ThreadPool::lanes_per_job(out.total_threads, out.jobs_in_flight);
  out.jobs.resize(manifest.jobs.size());

  log(LogLevel::Info,
      "campaign: %zu job(s), %d in flight, %d fault-sim lane(s) each",
      manifest.jobs.size(), out.jobs_in_flight, out.inner_threads);

  const auto t0 = std::chrono::steady_clock::now();
  // Runners take manifest indices from one shared counter, in manifest
  // order. Determinism does not depend on which runner gets which job:
  // each result lands in its manifest slot (out.jobs[i]) and the report
  // renders in manifest order.
  std::atomic<std::size_t> next{0};
  const auto runner = [&] {
    for (;;) {
      const std::size_t i = next++;
      if (i >= manifest.jobs.size()) return;
      out.jobs[i] = run_job(manifest.jobs[i], options, out.inner_threads);
      const CampaignJobResult& job = out.jobs[i];
      log(job.ok() ? LogLevel::Info : LogLevel::Warn,
          "campaign: job '%s' %s in %.1fs%s", job.name.c_str(),
          job.skipped ? "skipped"
                      : (job.status.is_ok() ? "done" : "failed"),
          job.seconds,
          job.deadline_expired ? " (deadline expired)" : "");
    }
  };
  if (out.jobs_in_flight <= 1) {
    runner();
  } else {
    // Dedicated runner threads; each job's inner fan-out goes through
    // the shared ThreadPool under the two-level budget, so the machine
    // is never oversubscribed by jobs × lanes.
    std::vector<std::jthread> runners;
    runners.reserve(static_cast<std::size_t>(out.jobs_in_flight));
    for (int k = 0; k < out.jobs_in_flight; ++k) runners.emplace_back(runner);
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (const auto& job : out.jobs) {
    if (job.skipped) {
      ++out.skipped;
    } else if (!job.status.is_ok()) {
      ++out.failed;
    } else if (job.deadline_expired) {
      ++out.expired;
    } else {
      ++out.completed;
    }
  }
  return out;
}

// ---- Multi-process campaigns --------------------------------------------

namespace {

constexpr const char* kMergeLease = "__merge__";

std::string manifest_path(const std::string& root) {
  return root + "/manifest.json";
}
std::string shard_path(const std::string& root, const std::string& job) {
  return root + "/shards/" + job + ".json";
}
std::string merged_report_path(const std::string& root) {
  return root + "/report.json";
}

/// Re-serializes a parsed JsonValue through JsonWriter. Stable for
/// documents this codebase wrote: the writer's %.12g doubles round-trip
/// through parse + re-emit unchanged.
void write_json_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null:
      w.raw("null");
      break;
    case JsonValue::Kind::Bool:
      w.value(v.as_bool());
      break;
    case JsonValue::Kind::Number:
      w.value(v.as_number());
      break;
    case JsonValue::Kind::String:
      w.value(v.as_string());
      break;
    case JsonValue::Kind::Array:
      w.begin_array();
      for (const JsonValue& item : v.items()) write_json_value(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::Object:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        write_json_value(w, member);
      }
      w.end_object();
      break;
  }
}

/// Serializes one finished job as a dfmres-campaign-shard-v1 document.
std::string shard_json(const CampaignReportRow& row,
                       const std::string& metrics_json) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", kCampaignShardSchema);
  w.field("name", row.name);
  w.field("design", row.design);
  w.field("mode", row.mode);
  w.field("ok", row.ok);
  w.field("status", row.status);
  w.field("skipped", row.skipped);
  w.field("deadline_expired", row.deadline_expired);
  w.field("poisoned", row.poisoned);
  w.field("attempts", row.attempts);
  w.field("worker", row.worker);
  w.field("inner_threads", row.inner_threads);
  w.field("runtime_seconds", row.runtime_seconds);
  if (!row.report_json.empty()) {
    w.key("report");
    w.raw(row.report_json);
  }
  w.key("metrics");
  w.raw(metrics_json);
  w.end_object();
  return w.take();
}

Status shard_error(const std::string& path, const char* what) {
  return make_status(StatusCode::kDataLoss, "shard '%s': %s", path.c_str(),
                     what);
}

/// Parses a shard back into a report row + its metrics sub-document.
Status parse_shard(const std::string& path, const std::string& text,
                   const std::string& expect_name, CampaignReportRow* row,
                   std::string* metrics_json) {
  auto doc = JsonValue::parse(text);
  if (!doc) {
    return make_status(StatusCode::kDataLoss, "shard '%s': %s", path.c_str(),
                       doc.status().message().c_str());
  }
  if (!doc->is_object()) return shard_error(path, "not an object");
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kCampaignShardSchema) {
    return shard_error(path, "bad schema");
  }
  const auto str = [&](const char* key, std::string* out) {
    const JsonValue* v = doc->find(key);
    if (v == nullptr || !v->is_string()) return false;
    *out = v->as_string();
    return true;
  };
  const auto boolean = [&](const char* key, bool* out) {
    const JsonValue* v = doc->find(key);
    if (v == nullptr || !v->is_bool()) return false;
    *out = v->as_bool();
    return true;
  };
  const auto number = [&](const char* key, double* out) {
    const JsonValue* v = doc->find(key);
    if (v == nullptr || !v->is_number()) return false;
    *out = v->as_number();
    return true;
  };
  double attempts = 0.0;
  double inner = 0.0;
  if (!str("name", &row->name) || !str("design", &row->design) ||
      !str("mode", &row->mode) || !boolean("ok", &row->ok) ||
      !str("status", &row->status) || !boolean("skipped", &row->skipped) ||
      !boolean("deadline_expired", &row->deadline_expired) ||
      !boolean("poisoned", &row->poisoned) || !number("attempts", &attempts) ||
      !str("worker", &row->worker) || !number("inner_threads", &inner) ||
      !number("runtime_seconds", &row->runtime_seconds)) {
    return shard_error(path, "missing or mistyped field");
  }
  row->attempts = static_cast<int>(attempts);
  row->inner_threads = static_cast<int>(inner);
  if (row->name != expect_name) return shard_error(path, "wrong job name");
  const JsonValue* report = doc->find("report");
  if (report != nullptr) {
    if (!report->is_object()) return shard_error(path, "bad report");
    JsonWriter w;
    write_json_value(w, *report);
    row->report_json = w.take();
  }
  const JsonValue* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return shard_error(path, "missing metrics");
  }
  JsonWriter w;
  write_json_value(w, *metrics);
  *metrics_json = w.take();
  return Status::ok();
}

}  // namespace

Status init_campaign_root(const CampaignManifest& manifest,
                          const std::string& root) {
  if (Status s = manifest.validate(); !s.is_ok()) return s;
  if (Status s = make_dir(root); !s.is_ok()) return s;
  for (const char* sub : {"/leases", "/ckpt", "/shards"}) {
    if (Status s = make_dir(root + sub); !s.is_ok()) return s;
  }
  const std::string json = manifest.to_json();
  Expected<std::string> existing = read_file(manifest_path(root));
  if (existing) {
    if (*existing == json) return Status::ok();
    return make_status(StatusCode::kAlreadyExists,
                       "campaign root '%s' holds a different manifest",
                       root.c_str());
  }
  return write_file_atomic(manifest_path(root), json, "init");
}

Expected<CampaignManifest> read_campaign_root(const std::string& root) {
  Expected<std::string> text = read_file(manifest_path(root));
  if (!text) {
    return make_status(StatusCode::kNotFound,
                       "'%s' is not a campaign root (no manifest.json)",
                       root.c_str());
  }
  return CampaignManifest::from_json(*text);
}

bool campaign_shards_complete(const std::string& root,
                              const CampaignManifest& manifest) {
  for (const CampaignJobSpec& job : manifest.jobs) {
    if (!path_exists(shard_path(root, job.name))) return false;
  }
  return true;
}

Expected<std::string> merge_campaign_shards(const std::string& root) {
  auto manifest = read_campaign_root(root);
  if (!manifest) return manifest.status();

  std::vector<CampaignReportRow> rows;
  rows.reserve(manifest->jobs.size());
  MetricsRegistry merged_metrics;
  for (const CampaignJobSpec& job : manifest->jobs) {
    const std::string path = shard_path(root, job.name);
    Expected<std::string> text = read_file(path);
    if (!text) {
      return make_status(StatusCode::kFailedPrecondition,
                         "campaign '%s' is not complete: no shard for job "
                         "'%s'",
                         root.c_str(), job.name.c_str());
    }
    CampaignReportRow row;
    std::string metrics_json;
    if (Status s = parse_shard(path, *text, job.name, &row, &metrics_json);
        !s.is_ok()) {
      return s;
    }
    auto metrics_doc = JsonValue::parse(metrics_json);
    if (!metrics_doc) return shard_error(path, "unparsable metrics");
    if (Status s = merged_metrics.merge_json(*metrics_doc); !s.is_ok()) {
      return shard_error(path, s.message().c_str());
    }
    rows.push_back(std::move(row));
  }

  CampaignReportTotals totals;
  totals.jobs_total = rows.size();
  for (const CampaignReportRow& row : rows) {
    totals.runtime_seconds += row.runtime_seconds;
    if (row.skipped) {
      ++totals.skipped;
    } else if (!row.ok) {
      ++totals.failed;
    } else if (row.deadline_expired) {
      ++totals.expired;
    } else {
      ++totals.completed;
    }
  }
  // jobs_in_flight/thread counts stay 0: a sharded campaign has no
  // single fixed fan-out, and the canonical projection strips them.
  std::string report =
      render_campaign_report(totals, rows, merged_metrics.to_json());
  if (Status s = write_file_atomic(merged_report_path(root), report, "merge");
      !s.is_ok()) {
    return s;
  }
  crash_point("merge");
  return report;
}

namespace {

/// Canonical projection of one embedded run report (see
/// canonical_campaign_report).
Status write_canonical_run_report(JsonWriter& w, const JsonValue& report) {
  if (!report.is_object()) {
    return make_status(StatusCode::kInvalidArgument,
                       "report entry is not an object");
  }
  w.begin_object();
  for (const char* key :
       {"schema", "command", "circuit", "fingerprint", "initial", "final"}) {
    const JsonValue* v = report.find(key);
    if (v == nullptr) continue;  // fingerprint/initial are optional
    w.key(key);
    write_json_value(w, *v);
  }
  const JsonValue* resyn = report.find("resynthesis");
  if (resyn != nullptr && resyn->is_object()) {
    w.key("resynthesis");
    w.begin_object();
    for (const char* key : {"q_used", "any_accepted"}) {
      const JsonValue* v = resyn->find(key);
      if (v != nullptr) {
        w.key(key);
        write_json_value(w, *v);
      }
    }
    const JsonValue* convergence = resyn->find("convergence");
    if (convergence != nullptr && convergence->is_array()) {
      // Only the accepted records survive: a resumed run replays the
      // accepted sequence bit-identically but never re-probes the
      // rejected candidates from before the interruption. "seconds" is
      // wall clock and drops too.
      w.key("convergence");
      w.begin_array();
      for (const JsonValue& rec : convergence->items()) {
        const JsonValue* accepted = rec.find("accepted");
        if (accepted == nullptr || !accepted->is_bool() ||
            !accepted->as_bool()) {
          continue;
        }
        w.begin_object();
        for (const auto& [key, member] : rec.members()) {
          if (key == "seconds") continue;
          w.key(key);
          write_json_value(w, member);
        }
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  return Status::ok();
}

}  // namespace

Expected<std::string> canonical_campaign_report(std::string_view report_json) {
  auto doc = JsonValue::parse(report_json);
  if (!doc) return doc.status();
  const auto bad = [](const char* what) {
    return make_status(StatusCode::kInvalidArgument, "campaign report: %s",
                       what);
  };
  if (!doc->is_object()) return bad("not an object");
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != CampaignResult::kReportSchema) {
    return bad("bad schema");
  }
  JsonWriter w;
  w.begin_object();
  w.field("schema", schema->as_string());
  for (const char* key :
       {"jobs_total", "completed", "expired", "failed", "skipped"}) {
    const JsonValue* v = doc->find(key);
    if (v == nullptr || !v->is_number()) return bad("missing total");
    w.field(key, static_cast<std::uint64_t>(v->as_number()));
  }
  const JsonValue* jobs = doc->find("jobs");
  if (jobs == nullptr || !jobs->is_array()) return bad("missing jobs");
  w.key("jobs");
  w.begin_array();
  for (const JsonValue& job : jobs->items()) {
    if (!job.is_object()) return bad("job entry is not an object");
    w.begin_object();
    for (const char* key : {"name", "design", "mode", "ok", "status",
                            "skipped", "deadline_expired"}) {
      const JsonValue* v = job.find(key);
      if (v == nullptr) return bad("job entry misses a field");
      w.key(key);
      write_json_value(w, *v);
    }
    // "poisoned" postdates the first report schema revision; absent
    // means false so old and new serial reports canonicalize equal.
    const JsonValue* poisoned = job.find("poisoned");
    w.field("poisoned",
            poisoned != nullptr && poisoned->is_bool() && poisoned->as_bool());
    const JsonValue* report = job.find("report");
    if (report != nullptr) {
      w.key("report");
      if (Status s = write_canonical_run_report(w, *report); !s.is_ok()) {
        return s;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

namespace {

/// Publishes one finished job as a shard (exclusive: the first writer
/// wins; kAlreadyExists means another worker beat us with bit-identical
/// content, which is success).
Status publish_shard(const std::string& root, const CampaignReportRow& row,
                     const std::string& metrics_json,
                     const std::string& owner) {
  const std::string json = shard_json(row, metrics_json);
  crash_point("shard.stage");
  Status s = write_file_exclusive(shard_path(root, row.name), json, owner);
  if (s.code() == StatusCode::kAlreadyExists) return Status::ok();
  if (s.is_ok()) crash_point("shard.publish");
  return s;
}

}  // namespace

Expected<JobPassOutcome> campaign_job_pass(const CampaignJobPassContext& ctx,
                                           const CampaignJobSpec& spec) {
  const std::string& root = ctx.root;
  if (path_exists(shard_path(root, spec.name))) {
    return JobPassOutcome::kAlreadyDone;
  }
  if (!ctx.skip && cancel_expired(ctx.cancel)) {
    return JobPassOutcome::kCancelled;
  }
  auto claim = ctx.leases->try_claim(spec.name);
  if (!claim) return claim.status();
  if (claim->outcome != LeaseClaim::Outcome::Claimed) {
    return JobPassOutcome::kBusy;
  }
  crash_point("job.start");

  const char* mode_name =
      spec.mode == CampaignJobSpec::Mode::Flow ? kModeFlow : kModeResyn;

  if (claim->poison) {
    // We won the poison epoch: the job burned its attempt budget.
    // Publish the tombstone so the sweep terminates with a complete
    // merged report instead of convoying on one pathological job.
    CampaignReportRow row;
    row.name = spec.name;
    row.design = spec.design;
    row.mode = mode_name;
    row.ok = false;
    row.status = strfmt(
        "internal: poisoned after %d failed attempts; last error: %s",
        ctx.max_attempts,
        claim->prior_error.empty() ? "(lease lost repeatedly)"
                                   : claim->prior_error.c_str());
    row.poisoned = true;
    row.attempts = ctx.max_attempts;
    row.worker = ctx.owner;
    MetricsRegistry empty;
    if (Status s = publish_shard(root, row, empty.to_json(), ctx.owner);
        !s.is_ok()) {
      return s;
    }
    log(LogLevel::Warn, "worker %s: job '%s' poisoned (%d attempts)",
        ctx.owner.c_str(), spec.name.c_str(), ctx.max_attempts);
    if (ctx.telemetry != nullptr) {
      ctx.telemetry->note_job_done();
      (void)ctx.telemetry->publish_now();
    }
    return JobPassOutcome::kPoisoned;
  }

  if (ctx.skip) {
    // Terminalize without running: a cancelled campaign's pending jobs
    // become skipped shards so the merge still completes.
    CampaignReportRow row;
    row.name = spec.name;
    row.design = spec.design;
    row.mode = mode_name;
    row.ok = false;
    row.status = "ok";
    row.skipped = true;
    row.attempts = claim->attempt;
    row.worker = ctx.owner;
    MetricsRegistry empty;
    if (Status s = publish_shard(root, row, empty.to_json(), ctx.owner);
        !s.is_ok()) {
      return s;
    }
    log(LogLevel::Info, "worker %s: job '%s' skipped (campaign cancelled)",
        ctx.owner.c_str(), spec.name.c_str());
    if (ctx.telemetry != nullptr) {
      ctx.telemetry->note_job_done();
      (void)ctx.telemetry->publish_now();
    }
    return JobPassOutcome::kPublished;
  }

  // Run the job under a claim-scoped token: the heartbeat keeper trips
  // it if the lease is lost (so we stop double-computing a taken-over
  // job), and the caller's token chains through it.
  CancelToken claim_token(Deadline::never(), ctx.cancel);
  CampaignOptions job_options;
  job_options.cancel = &claim_token;
  job_options.checkpoint_root = root + "/ckpt";
  job_options.resume = true;
  job_options.total_threads = ctx.total_threads;
  CampaignJobResult result;
  bool lease_lost = false;
  if (ctx.telemetry != nullptr) {
    ctx.telemetry->set_job(spec.name, claim->attempt);
  }
  {
    HeartbeatKeeper keeper(*ctx.leases, spec.name, *claim, &claim_token);
    result = run_job(spec, job_options, ctx.inner_threads);
    lease_lost = keeper.lost();
  }
  if (ctx.telemetry != nullptr) ctx.telemetry->clear_job();
  if (lease_lost) {
    log(LogLevel::Warn, "worker %s: lost lease on '%s' (attempt %d)",
        ctx.owner.c_str(), spec.name.c_str(), claim->attempt);
    return JobPassOutcome::kLeaseLost;  // someone else owns the job now
  }
  if (cancel_expired(ctx.cancel)) {
    // Interrupted mid-job: no shard — the checkpoint journal holds the
    // progress and the next claimant resumes bit-identically.
    return JobPassOutcome::kCancelled;
  }
  if (!result.status.is_ok()) {
    if (Status s = ctx.leases->mark_failed(spec.name, *claim,
                                           result.status.to_string());
        !s.is_ok()) {
      return s;
    }
    log(LogLevel::Warn, "worker %s: job '%s' attempt %d failed: %s",
        ctx.owner.c_str(), spec.name.c_str(), claim->attempt,
        result.status.to_string().c_str());
    return JobPassOutcome::kAttemptFailed;
  }
  CampaignReportRow row;
  row.name = result.name;
  row.design = result.design;
  row.mode = result.mode == CampaignJobSpec::Mode::Flow ? kModeFlow
                                                        : kModeResyn;
  row.ok = result.ok();
  row.status = "ok";
  row.deadline_expired = result.deadline_expired;
  row.attempts = claim->attempt;
  row.worker = ctx.owner;
  row.inner_threads = result.inner_threads;
  row.runtime_seconds = result.seconds;
  if (result.report.has_value()) row.report_json = result.report->to_json();
  if (Status s = publish_shard(root, row,
                               result.metrics != nullptr
                                   ? result.metrics->to_json()
                                   : MetricsRegistry{}.to_json(),
                               ctx.owner);
      !s.is_ok()) {
    return s;
  }
  log(LogLevel::Info, "worker %s: job '%s' done in %.1fs (attempt %d)",
      ctx.owner.c_str(), spec.name.c_str(), result.seconds, claim->attempt);
  if (ctx.telemetry != nullptr) {
    if (result.metrics != nullptr) {
      ctx.telemetry->absorb_metrics(*result.metrics);
    }
    ctx.telemetry->note_job_done();
    (void)ctx.telemetry->publish_now();
  }
  return JobPassOutcome::kPublished;
}

Expected<CampaignWorkerStats> run_campaign_worker(
    const CampaignWorkerOptions& options) {
  const std::string& root = options.campaign_root;
  auto manifest = read_campaign_root(root);
  if (!manifest) return manifest.status();

  LeaseConfig lease_config;
  lease_config.owner = options.owner.empty()
                           ? strfmt("w%d", static_cast<int>(::getpid()))
                           : options.owner;
  lease_config.heartbeat_period = options.heartbeat;
  lease_config.ttl = options.lease_ttl;
  lease_config.max_attempts = options.max_attempts;
  lease_config.backoff_base = options.backoff_base;
  const LeaseDir leases(root, lease_config);
  if (Status s = leases.init(); !s.is_ok()) return s;
  for (const char* sub : {"/ckpt", "/shards"}) {
    if (Status s = make_dir(root + sub); !s.is_ok()) return s;
  }

  const int total_threads = ThreadPool::resolve_threads(options.total_threads);
  const int inner_threads = ThreadPool::lanes_per_job(total_threads, 1);
  log(LogLevel::Info, "worker %s: attached to %s (%zu jobs, %d lanes)",
      lease_config.owner.c_str(), root.c_str(), manifest->jobs.size(),
      inner_threads);

  // The telemetry bus: periodic crash-durable snapshots of this
  // worker's progress and trace spans under <root>/telemetry/. Best
  // effort throughout — a worker that can compute but cannot publish
  // telemetry keeps computing.
  std::optional<TelemetryPublisher> telemetry;
  if (options.telemetry_interval.count() > 0) {
    TelemetryOptions telemetry_options;
    telemetry_options.campaign_root = root;
    telemetry_options.owner = lease_config.owner;
    telemetry_options.interval = options.telemetry_interval;
    telemetry.emplace(std::move(telemetry_options));
    if (Status s = telemetry->init(); !s.is_ok()) {
      log(LogLevel::Warn, "worker %s: telemetry disabled: %s",
          lease_config.owner.c_str(), s.to_string().c_str());
      telemetry.reset();
    }
  }

  CampaignWorkerStats stats;
  CampaignJobPassContext ctx;
  ctx.root = root;
  ctx.leases = &leases;
  ctx.owner = lease_config.owner;
  ctx.total_threads = total_threads;
  ctx.inner_threads = inner_threads;
  ctx.cancel = options.cancel;
  ctx.telemetry = telemetry.has_value() ? &*telemetry : nullptr;
  ctx.max_attempts = lease_config.max_attempts;

  // Each round walks the jobs still lacking shards, in manifest order,
  // through campaign_job_pass; busy or failed jobs come back on the
  // next round.
  const auto poll_pause = std::min<std::chrono::nanoseconds>(
      options.heartbeat, std::chrono::milliseconds(200));
  std::vector<std::size_t> pending;
  for (;;) {
    if (cancel_expired(options.cancel)) {
      stats.cancelled = true;
      break;
    }
    pending.clear();
    for (std::size_t i = 0; i < manifest->jobs.size(); ++i) {
      if (!path_exists(shard_path(root, manifest->jobs[i].name))) {
        pending.push_back(i);
      }
    }
    if (pending.empty()) break;  // every job has a shard
    bool progressed = false;
    for (const std::size_t i : pending) {
      if (cancel_expired(options.cancel)) break;
      auto outcome = campaign_job_pass(ctx, manifest->jobs[i]);
      if (!outcome) return outcome.status();
      switch (*outcome) {
        case JobPassOutcome::kPublished:
          ++stats.jobs_run;
          progressed = true;
          break;
        case JobPassOutcome::kPoisoned:
          ++stats.jobs_poisoned;
          progressed = true;
          break;
        case JobPassOutcome::kAttemptFailed:
          progressed = true;
          break;
        default:
          break;  // AlreadyDone / Busy / LeaseLost / Cancelled
      }
    }
    if (cancel_expired(options.cancel)) {
      stats.cancelled = true;
      break;
    }
    if (!progressed) std::this_thread::sleep_for(poll_pause);
  }

  if (!stats.cancelled && campaign_shards_complete(root, *manifest) &&
      !path_exists(merged_report_path(root))) {
    // Merge election: the last worker out (or a fresh `dfmres work` on a
    // finished root) claims the merge lease; Busy means another live
    // worker is already merging. A crashed merger goes stale and the
    // next attachment re-claims.
    auto claim = leases.try_claim(kMergeLease);
    if (!claim) return claim.status();
    if (claim->outcome == LeaseClaim::Outcome::Claimed) {
      auto merged = merge_campaign_shards(root);
      if (!merged) return merged.status();
      stats.merged = true;
      log(LogLevel::Info, "worker %s: merged %zu shard(s) into %s",
          lease_config.owner.c_str(), manifest->jobs.size(),
          merged_report_path(root).c_str());
    }
  }
  return stats;
}

}  // namespace dfmres
