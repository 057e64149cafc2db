#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/circuits/benchmarks.hpp"
#include "src/circuits/builder.hpp"
#include "src/core/campaign.hpp"
#include "src/library/osu018.hpp"
#include "src/netlist/verilog.hpp"
#include "src/util/json.hpp"
#include "src/util/trace.hpp"

namespace dfmres {
namespace {

using Mode = CampaignJobSpec::Mode;

/// Trimmed search budgets so a multi-job campaign stays unit-test sized.
void trim(CampaignJobSpec& job) {
  job.flow.atpg.random_batches = 4;
  job.flow.atpg.backtrack_limit = 1000;
  job.resyn.max_iterations_per_phase = 8;
  job.resyn.reanalyses_per_iteration = 8;
}

CampaignJobSpec resyn_job(const std::string& name, const std::string& design,
                          int q_max) {
  CampaignJobSpec job;
  job.name = name;
  job.design = design;
  job.mode = Mode::Resyn;
  job.resyn.q_max = q_max;
  trim(job);
  return job;
}

std::string accepted_trace(const ResynthesisReport& report) {
  std::string out;
  for (const IterationRecord& r : report.trace) {
    if (!r.accepted) continue;
    out += "q" + std::to_string(r.q) + ":" + r.banned_through + "/U" +
           std::to_string(r.undetectable) + "/S" + std::to_string(r.smax) +
           ";";
  }
  return out;
}

TEST(ParseDurationSpec, AcceptsSuffixes) {
  using std::chrono::nanoseconds;
  EXPECT_EQ(parse_duration_spec("500ms").value(), nanoseconds(500'000'000));
  EXPECT_EQ(parse_duration_spec("2s").value(), nanoseconds(2'000'000'000));
  EXPECT_EQ(parse_duration_spec("2").value(), nanoseconds(2'000'000'000));
  EXPECT_EQ(parse_duration_spec("1m").value(), nanoseconds(60'000'000'000));
  EXPECT_EQ(parse_duration_spec("1.5ms").value(), nanoseconds(1'500'000));
}

TEST(ParseDurationSpec, RejectsGarbage) {
  EXPECT_FALSE(parse_duration_spec(""));
  EXPECT_FALSE(parse_duration_spec("abc"));
  EXPECT_FALSE(parse_duration_spec("-3s"));
  EXPECT_FALSE(parse_duration_spec("0"));
  EXPECT_FALSE(parse_duration_spec("12x"));
  EXPECT_FALSE(parse_duration_spec("1e10s"));  // > 1e9 seconds
  EXPECT_EQ(parse_duration_spec("oops").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CampaignManifest, RoundTripsThroughJson) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("a", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("b", "wb_conmax", 2));
  manifest.jobs[0].mode = Mode::Flow;
  manifest.jobs[0].flow.utilization = 0.65;
  manifest.jobs[0].flow.warm_start = false;
  manifest.jobs[1].deadline = std::chrono::milliseconds(1500);
  manifest.jobs[1].resyn.p1 = 0.02;
  manifest.jobs[1].resyn.parallel_ladder = false;

  const auto parsed = CampaignManifest::from_json(manifest.to_json());
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  ASSERT_EQ(parsed->jobs.size(), 2u);
  EXPECT_EQ(parsed->jobs[0].name, "a");
  EXPECT_EQ(parsed->jobs[0].mode, Mode::Flow);
  EXPECT_DOUBLE_EQ(parsed->jobs[0].flow.utilization, 0.65);
  EXPECT_FALSE(parsed->jobs[0].flow.warm_start);
  EXPECT_EQ(parsed->jobs[1].design, "wb_conmax");
  EXPECT_EQ(parsed->jobs[1].resyn.q_max, 2);
  EXPECT_DOUBLE_EQ(parsed->jobs[1].resyn.p1, 0.02);
  EXPECT_FALSE(parsed->jobs[1].resyn.parallel_ladder);
  EXPECT_EQ(parsed->jobs[1].deadline, std::chrono::nanoseconds(1'500'000'000));
  EXPECT_EQ(parsed->jobs[1].flow.atpg.random_batches, 4);
  EXPECT_EQ(parsed->jobs[1].resyn.max_iterations_per_phase, 8);
  // Canonical form: a second round trip is textually identical.
  EXPECT_EQ(parsed->to_json(), manifest.to_json());
}

TEST(CampaignManifest, RejectsMalformedDocuments) {
  const auto code = [](const char* text) {
    const auto m = CampaignManifest::from_json(text);
    return m ? StatusCode::kOk : m.status().code();
  };
  const std::string head =
      "{\"schema\": \"dfmres-campaign-manifest-v1\", \"jobs\": [";
  // Syntax error (carries a line:column locator).
  const auto syntax = CampaignManifest::from_json("{\"schema\": }");
  ASSERT_FALSE(syntax);
  EXPECT_NE(syntax.status().message().find("json 1:"), std::string::npos);
  // Wrong / missing schema.
  EXPECT_EQ(code("{\"jobs\": []}"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("{\"schema\": \"nope\", \"jobs\": []}"),
            StatusCode::kInvalidArgument);
  // Unknown keys, at both levels.
  EXPECT_EQ(code("{\"schema\": \"dfmres-campaign-manifest-v1\", "
                 "\"jobs\": [], \"extra\": 1}"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      code((head + "{\"name\": \"a\", \"design\": \"sparc_tlu\", "
                   "\"typo\": 1}]}")
               .c_str()),
      StatusCode::kInvalidArgument);
  // Missing required keys.
  EXPECT_EQ(code((head + "{\"design\": \"sparc_tlu\"}]}").c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\"}]}").c_str()),
            StatusCode::kInvalidArgument);
  // Bad enum / bad range / wrong type / bad duration.
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"mode\": \"other\"}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"q_max\": 101}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"q_max\": 2.5}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"warm_start\": 1}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\", "
                         "\"deadline\": \"soon\"}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  // Duplicate job names; names with path separators; empty manifests.
  EXPECT_EQ(code((head + "{\"name\": \"a\", \"design\": \"d\"}, "
                         "{\"name\": \"a\", \"design\": \"e\"}]}")
                     .c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code((head + "{\"name\": \"a/b\", \"design\": \"d\"}]}").c_str()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("{\"schema\": \"dfmres-campaign-manifest-v1\", "
                 "\"jobs\": []}"),
            StatusCode::kInvalidArgument);
}

TEST(CampaignManifest, Table2CoversEveryBenchmark) {
  const CampaignManifest manifest = table2_manifest();
  ASSERT_EQ(manifest.jobs.size(), benchmark_names().size());
  EXPECT_TRUE(manifest.validate().is_ok());
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    EXPECT_EQ(manifest.jobs[i].design, std::string(benchmark_names()[i]));
    EXPECT_EQ(manifest.jobs[i].mode, Mode::Resyn);
    EXPECT_EQ(manifest.jobs[i].resyn.q_max, 5);
  }
  const auto parsed = CampaignManifest::from_json(manifest.to_json());
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  EXPECT_EQ(parsed->jobs.size(), manifest.jobs.size());
}

TEST(CampaignManifest, ReadReportsMissingFile) {
  const auto m = CampaignManifest::read(testing::TempDir() +
                                        "dfmres_no_such_manifest.json");
  ASSERT_FALSE(m);
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
}

TEST(Campaign, RejectsEmptyManifest) {
  const auto result = run_campaign(CampaignManifest{}, CampaignOptions{});
  ASSERT_FALSE(result);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Campaign, SkipsEverythingWhenPreCancelled) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("a", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("b", "wb_conmax", 0));
  CancelToken token;
  token.cancel();
  CampaignOptions options;
  options.cancel = &token;
  options.max_parallel_jobs = 2;
  const auto result = run_campaign(manifest, options);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_EQ(result->skipped, 2u);
  EXPECT_EQ(result->completed, 0u);
  for (const auto& job : result->jobs) {
    EXPECT_TRUE(job.skipped);
    EXPECT_FALSE(job.ok());
    EXPECT_EQ(job.status.code(), StatusCode::kCancelled);
    EXPECT_FALSE(job.final_state.has_value());
  }
}

/// Runs `body` with tracing on; returns how many `fsim.rebase` spans
/// (probe-baseline rebuilds) it emitted.
template <typename Body>
std::size_t count_rebases(const Body& body) {
  Tracer::instance().reset();
  Tracer::instance().enable();
  body();
  Tracer::instance().disable();
  std::size_t rebases = 0;
  for (const TraceEvent& e : Tracer::instance().snapshot()) {
    rebases += std::strcmp(e.name, "fsim.rebase") == 0;
  }
  Tracer::instance().reset();
  return rebases;
}

TEST(Campaign, FlowJobBuildsNoProbeBaseline) {
  // A flow job never probes, so it skips the probe baseline a standalone
  // DesignFlow rebuilds on commit, and ends exactly like that flow.
  CampaignJobSpec job = resyn_job("tlu", "sparc_tlu", 0);
  job.mode = Mode::Flow;
  CampaignManifest manifest;
  manifest.jobs.push_back(job);
  std::optional<Expected<CampaignResult>> result;
  EXPECT_EQ(count_rebases([&] {
              result.emplace(run_campaign(manifest, CampaignOptions{}));
            }),
            0u);
  ASSERT_TRUE(*result) << result->status().to_string();
  const CampaignJobResult& ran = (*result)->jobs[0];
  ASSERT_TRUE(ran.ok()) << ran.status.to_string();
  const FlowState& got = *ran.final_state;

  DesignFlow flow(osu018_library(), job.flow);
  std::optional<FlowState> want;
  EXPECT_GT(count_rebases([&] {
              want = flow.run_initial(build_benchmark("sparc_tlu").value())
                         .value();
            }),
            0u);
  EXPECT_EQ(got.atpg.status, want->atpg.status);
  EXPECT_EQ(got.atpg.tests, want->atpg.tests);
  EXPECT_EQ(got.smax(), want->smax());
}

/// One failing job (unknown design) must not disturb its neighbors, and
/// a job whose deadline expires returns its best design, flagged.
TEST(CampaignHeavy, IsolatesFailingAndExpiringJobs) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("good", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("missing", "no_such_design", 0));
  manifest.jobs.push_back(resyn_job("rushed", "sparc_tlu", 5));
  manifest.jobs[2].deadline = std::chrono::milliseconds(1);
  CampaignOptions options;
  options.max_parallel_jobs = 3;
  const auto result = run_campaign(manifest, options);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_EQ(result->failed, 1u);
  EXPECT_EQ(result->skipped, 0u);
  EXPECT_EQ(result->completed + result->expired, 2u);

  const CampaignJobResult& good = result->jobs[0];
  EXPECT_TRUE(good.ok());
  ASSERT_TRUE(good.final_state.has_value());
  ASSERT_TRUE(good.report.has_value());
  EXPECT_GT(good.final_state->coverage(), 0.9);

  const CampaignJobResult& missing = result->jobs[1];
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(missing.skipped);
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(missing.final_state.has_value());
  EXPECT_FALSE(missing.report.has_value());

  const CampaignJobResult& rushed = result->jobs[2];
  EXPECT_TRUE(rushed.status.is_ok());
  ASSERT_TRUE(rushed.final_state.has_value());
  EXPECT_TRUE(rushed.deadline_expired);
}

/// The acceptance criterion of the scheduler: every job's results are
/// bit-identical to the same job run alone, at any --jobs level.
TEST(CampaignHeavy, JobsAreBitIdenticalToStandaloneRuns) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("tlu-q0", "sparc_tlu", 0));
  manifest.jobs.push_back(resyn_job("tlu-q2", "sparc_tlu", 2));
  manifest.jobs.push_back(resyn_job("wb-q2", "wb_conmax", 2));

  // Standalone reference runs (same options, no scheduler).
  struct Reference {
    std::size_t u, smax, faults, tests;
    double coverage;
    std::string trace;
    std::uint64_t fingerprint;
  };
  std::vector<Reference> refs;
  for (const CampaignJobSpec& spec : manifest.jobs) {
    DesignFlow flow(osu018_library(), spec.flow);
    const FlowState original =
        flow.run_initial(build_benchmark(spec.design).value()).value();
    const std::uint64_t fingerprint =
        resynthesis_fingerprint(flow, original, spec.resyn);
    const ResynthesisResult result =
        resynthesize(flow, original, spec.resyn).value();
    refs.push_back({result.state.num_undetectable(), result.state.smax(),
                    result.state.num_faults(), result.state.atpg.tests.size(),
                    result.state.coverage(), accepted_trace(result.report),
                    fingerprint});
  }

  for (const int jobs : {1, 4}) {
    CampaignOptions options;
    options.max_parallel_jobs = jobs;
    const auto result = run_campaign(manifest, options);
    ASSERT_TRUE(result) << result.status().to_string();
    ASSERT_EQ(result->jobs.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const CampaignJobResult& job = result->jobs[i];
      ASSERT_TRUE(job.ok()) << job.name << ": " << job.status.to_string();
      const FlowState& s = *job.final_state;
      EXPECT_EQ(s.num_undetectable(), refs[i].u) << job.name;
      EXPECT_EQ(s.smax(), refs[i].smax) << job.name;
      EXPECT_EQ(s.num_faults(), refs[i].faults) << job.name;
      EXPECT_EQ(s.atpg.tests.size(), refs[i].tests) << job.name;
      EXPECT_EQ(s.coverage(), refs[i].coverage) << job.name;
      EXPECT_EQ(accepted_trace(*job.resyn), refs[i].trace) << job.name;
    }
  }
}

/// The campaign report parses as strict JSON and carries the schema,
/// per-job run reports and the merged metrics.
TEST(CampaignHeavy, ReportValidates) {
  CampaignManifest manifest;
  manifest.jobs.push_back(resyn_job("tlu", "sparc_tlu", 0));
  manifest.jobs[0].mode = Mode::Flow;
  CampaignOptions options;
  const auto result = run_campaign(manifest, options);
  ASSERT_TRUE(result) << result.status().to_string();

  const auto doc = JsonValue::parse(result->report_json());
  ASSERT_TRUE(doc) << doc.status().to_string();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("schema")->as_string(), "dfmres-campaign-report-v1");
  EXPECT_EQ(doc->find("jobs_total")->as_number(), 1.0);
  EXPECT_EQ(doc->find("completed")->as_number(), 1.0);
  const JsonValue& jobs = *doc->find("jobs");
  ASSERT_TRUE(jobs.is_array());
  ASSERT_EQ(jobs.items().size(), 1u);
  const JsonValue& job = jobs.items()[0];
  EXPECT_EQ(job.find("name")->as_string(), "tlu");
  EXPECT_TRUE(job.find("ok")->as_bool());
  const JsonValue* report = job.find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("command")->as_string(), "flow");
  ASSERT_NE(report->find("final"), nullptr);
  EXPECT_GT(report->find("final")->find("coverage")->as_number(), 0.9);
  const JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());

  // The merged metrics match a manifest-order merge of the shards.
  MetricsRegistry merged;
  result->merge_metrics_into(merged);
  EXPECT_GT(merged.counter("atpg.patterns_simulated"), 0u);
}

/// A mapped .v design file runs through the campaign's flow mode.
TEST(CampaignHeavy, LoadsVerilogDesignFiles) {
  CampaignManifest first;
  first.jobs.push_back(resyn_job("tlu", "sparc_tlu", 0));
  first.jobs[0].mode = Mode::Flow;
  const auto flow_result = run_campaign(first, CampaignOptions{});
  ASSERT_TRUE(flow_result) << flow_result.status().to_string();
  ASSERT_TRUE(flow_result->jobs[0].ok());

  const std::string path = testing::TempDir() + "dfmres_campaign_design.v";
  {
    std::ofstream out(path);
    write_verilog(flow_result->jobs[0].final_state->netlist, out);
  }
  CampaignManifest second;
  second.jobs.push_back(resyn_job("mapped", path, 0));
  second.jobs[0].mode = Mode::Flow;
  const auto result = run_campaign(second, CampaignOptions{});
  ASSERT_TRUE(result) << result.status().to_string();
  const CampaignJobResult& job = result->jobs[0];
  ASSERT_TRUE(job.ok()) << job.status.to_string();
  EXPECT_EQ(job.final_state->num_faults(),
            flow_result->jobs[0].final_state->num_faults());
}

/// The consolidated API contract the deleted pre-campaign shims used to
/// forward to: a speculative ProbeSession of an unchanged design agrees
/// with a committed analyze() of the same design, and committing the
/// session folds its counters into the flow totals.
TEST(AnalysisApi, ProbeSessionMatchesCommittedAnalysis) {
  CircuitBuilder cb("shim");
  const auto a = cb.dff_bus(cb.input_bus("a", 4));
  const auto b = cb.dff_bus(cb.input_bus("b", 4));
  auto [sum, carry] = cb.ripple_add(a, b, cb.input("cin"));
  cb.output_bus(cb.dff_bus(sum));
  cb.output(carry);
  const Netlist design = cb.take();

  FlowOptions options;
  options.atpg.random_batches = 4;

  DesignFlow via_probe(osu018_library(), options);
  const FlowState base_probe = via_probe.run_initial(design).value();
  DesignFlow via_api(osu018_library(), options);
  const FlowState base_api = via_api.run_initial(design).value();

  // Committed re-analysis vs a speculative probe of the same netlist.
  const auto committed = via_api.analyze(AnalysisRequest::incremental(
      base_api.netlist, base_api.placement, /*generate_tests=*/false));
  ASSERT_TRUE(committed) << committed.status().to_string();
  ProbeSession probe = via_probe.probe();
  const auto probed = probe.reanalyze(base_probe.netlist,
                                      base_probe.placement,
                                      /*generate_tests=*/false);
  ASSERT_TRUE(probed) << probed.status().to_string();
  EXPECT_EQ(committed->num_undetectable(), probed->num_undetectable());
  EXPECT_EQ(committed->smax(), probed->smax());
  EXPECT_EQ(committed->coverage(), probed->coverage());

  // A hand-committed u_in probe agrees across independent flows and
  // folds its counters into the flow totals on commit.
  ProbeSession s_api = via_api.probe();
  const auto count_api = s_api.count_undetectable_internal(base_api.netlist);
  ASSERT_TRUE(count_api) << count_api.status().to_string();
  via_api.commit_probe(std::move(s_api));
  ProbeSession s_probe = via_probe.probe();
  const auto count_probe =
      s_probe.count_undetectable_internal(base_probe.netlist);
  ASSERT_TRUE(count_probe) << count_probe.status().to_string();
  EXPECT_EQ(*count_api, *count_probe);
  // (A probe of the unchanged committed design is fully cache-hit, so
  // its pattern count is legitimately zero — the fold must still hold.)
  const std::uint64_t probe_patterns = s_probe.counters().patterns_simulated;
  const std::uint64_t before = via_probe.atpg_totals().patterns_simulated;
  via_probe.commit_probe(std::move(s_probe));
  EXPECT_EQ(via_probe.atpg_totals().patterns_simulated,
            before + probe_patterns);
}

}  // namespace
}  // namespace dfmres
