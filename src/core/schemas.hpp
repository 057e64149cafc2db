#pragma once

#include <cstddef>
#include <string_view>

/// The schema registry: every versioned `dfmres-*-v1` document name the
/// system reads or writes, in one place. JSON emitters reference these
/// constants instead of repeating the literal, and `scripts/check.sh`
/// cross-checks this list against `summarize_report.py --list-schemas`,
/// so a new document type cannot land unregistered on either side of
/// the C++/Python boundary.
///
/// Version bumps of a document the system parses are new constants
/// (kFooV2 next to kFooV1 during a migration window), never edits: a
/// persisted document's schema string is a contract with every reader
/// that ever shipped. A write-only document (the run report) moves to
/// its next version in place.

namespace dfmres::schemas {

// ---- persisted / wire documents ----

/// Campaign manifest: the job list a campaign executes.
inline constexpr const char* kCampaignManifest = "dfmres-campaign-manifest-v1";
/// Merged campaign report (serial scheduler and shard merge).
inline constexpr const char* kCampaignReport = "dfmres-campaign-report-v1";
/// One finished job, published exclusively by its lease holder.
inline constexpr const char* kCampaignShard = "dfmres-campaign-shard-v1";
/// Single-run report (`--report-out` of flow/resyn).
inline constexpr const char* kRunReport = "dfmres-run-report-v2";
/// Epoch lease record under <root>/leases/<job>/e<N>.
inline constexpr const char* kLease = "dfmres-lease-v1";
/// Crash-durable worker snapshot under <root>/telemetry/.
inline constexpr const char* kTelemetry = "dfmres-telemetry-v1";
/// `dfmres status --json` poll line.
inline constexpr const char* kStatus = "dfmres-status-v1";
/// Client request over the `dfmres serve` socket (one per line).
inline constexpr const char* kRequest = "dfmres-request-v1";
/// Server event over the `dfmres serve` socket (one per line).
inline constexpr const char* kResponse = "dfmres-response-v1";

// ---- benchmark reports ----

inline constexpr const char* kBenchProbeOverlay =
    "dfmres-bench-probe-overlay-v1";
/// Saturation bench: submit->done latency percentiles vs offered load.
inline constexpr const char* kBenchServe = "dfmres-bench-serve-v1";

/// Every registered schema, for exhaustive validation sweeps.
inline constexpr const char* kAll[] = {
    kCampaignManifest, kCampaignReport, kCampaignShard, kRunReport,
    kLease,            kTelemetry,      kStatus,        kRequest,
    kResponse,         kBenchProbeOverlay, kBenchServe,
};

[[nodiscard]] inline constexpr bool is_registered(std::string_view schema) {
  for (const char* name : kAll) {
    if (schema == name) return true;
  }
  return false;
}

}  // namespace dfmres::schemas
