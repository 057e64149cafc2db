#pragma once

#include <chrono>
#include <cstddef>
#include <string>

#include "src/util/cancel.hpp"
#include "src/util/status.hpp"

namespace dfmres {

/// `dfmres serve`: a long-lived job service multiplexing many
/// concurrent campaigns from many clients over one Unix-domain socket.
///
/// Protocol: newline-delimited JSON, one `dfmres-request-v1` document
/// per line in, one `dfmres-response-v1` event per line out (see
/// request.hpp for the request kinds). Each admitted campaign gets a
/// standard campaign-root sub-directory `<campaign_root>/<id>/` —
/// manifest, leases, checkpoints, shards, merged report — so the whole
/// multi-process machinery (lease TTL takeover, checkpoint resume,
/// exclusive shard publish, deterministic merge) applies unchanged. A
/// daemon killed at any instant restarts by rescanning the root:
/// sub-roots without a report are re-admitted and their unfinished jobs
/// re-enqueued, and `dfmres canon` of the eventual reports is
/// byte-identical to a serial run of the same manifests.
struct ServeOptions {
  /// Parent directory of the per-campaign sub-roots (created if
  /// missing). Also the restart-recovery scan root.
  std::string campaign_root;
  /// Unix-domain socket path. An existing socket file is replaced
  /// (serve assumes it owns the path; run one daemon per root).
  std::string socket_path;
  /// Worker threads taking admitted jobs off the daemon's job queue.
  int workers = 2;
  /// Hardware budget split across the workers (0 = hardware
  /// concurrency), same two-level rule as run_campaign.
  int total_threads = 0;

  // Admission control: a request that would exceed any bound is
  // rejected with kResourceExhausted — never silently queued.
  /// Jobs admitted but not yet terminal, across all campaigns. Every
  /// queued job counts here, so this also bounds the job queue.
  std::size_t max_inflight_jobs = 64;
  /// Active (not yet completed) campaigns per client connection.
  std::size_t max_client_campaigns = 8;

  /// Server-level stop signal (SIGINT/SIGTERM): running jobs unwind
  /// cooperatively, no skip shards are published, and everything
  /// resumes on the next start.
  const CancelToken* cancel = nullptr;
  /// Main-loop poll period (cancel checks, worker-event latency bound).
  std::chrono::nanoseconds poll_interval{std::chrono::milliseconds(100)};
};

struct ServeStats {
  std::size_t campaigns_admitted = 0;   ///< accepted submit requests
  std::size_t campaigns_recovered = 0;  ///< re-admitted at startup
  std::size_t campaigns_completed = 0;  ///< merged reports written
  std::size_t requests_rejected = 0;    ///< admission-control rejections
  std::size_t requests_malformed = 0;   ///< parse/validation failures
  std::size_t jobs_executed = 0;        ///< shards published by this run
  bool drained = false;  ///< clean drain (vs. cancelled shutdown)
};

/// Runs the daemon until a drain request completes or `options.cancel`
/// trips. Errors are reserved for an unusable root or socket; protocol
/// and job failures are per-client / per-job events, never exits.
[[nodiscard]] Expected<ServeStats> run_serve(const ServeOptions& options);

}  // namespace dfmres
