#!/bin/sh
# ThreadSanitizer gate for the fault-simulation thread pool: configures a
# dedicated -DDFMRES_SANITIZE=thread build tree and runs the suites
# that drive the pool (atpg_test exercises the parallel sweeps in
# run_atpg, sim_test the shared simulation substrate, campaign_test the
# multi-job scheduler, warm_start_test the parallel resynthesis ladder,
# core_test the shared UDFM registry, serve_test the serve daemon's job
# queue) plus the pool's own unit tests.
# Any data race aborts with a TSan report and a non-zero exit, and a
# --gtest_filter that selects no test fails the gate (run_filtered).
# Usage: scripts/run_tsan.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
. scripts/gtest_filter.sh
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDFMRES_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target atpg_test sim_test util_test observability_test campaign_test \
  overlay_test fault_sim_test lease_test warm_start_test core_test \
  serve_test

# TSAN_OPTIONS: fail loudly, first report wins.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  run_filtered "$BUILD_DIR/tests/util_test" 'ThreadPool.*:Logging.*'
# atpg_test includes VerdictStore.ConcurrentReadersShareOneBase: four
# readers share one verdict store, each storing into a private overlay.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/atpg_test"
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/sim_test"
# Tracer buffers + cross-worker span propagation and the metrics locks.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  "$BUILD_DIR/tests/observability_test"
# Campaign scheduler: job runners racing the shared pool, cancellation
# fan-out, and metrics-shard merging. The standalone bit-identity
# comparison is skipped here (it reruns full flows; identity is covered
# by the regular build), the concurrent-jobs paths are not.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  run_filtered "$BUILD_DIR/tests/campaign_test" \
  '-CampaignHeavy.JobsAreBitIdenticalToStandaloneRuns'
# Probe overlays: overlay loads feed the parallel sweep workers through
# load_from frame aliasing, so races here would corrupt detect masks.
# The tv80 end-to-end case is far too slow under instrumentation; the
# small-block cases drive the same load/discard/rebase paths.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  run_filtered "$BUILD_DIR/tests/overlay_test" '-OverlayHeavy.*'
# Fault-simulation kernel: the pinned engine runs put four parallel
# sweep workers over shared good frames.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" "$BUILD_DIR/tests/fault_sim_test"
# Parallel resynthesis ladder: each lane probes on its own simulator
# arena, and with it its own phase-2 proof memo; a memo shared across
# lanes would race here.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  run_filtered "$BUILD_DIR/tests/warm_start_test" \
  'WarmStart.SerialVsParallelLadderIdentity'
# Process-wide UDFM registry: eight threads race the first shared_udfm
# call on one library; the map must be built once and published safely.
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  run_filtered "$BUILD_DIR/tests/core_test" 'SharedUdfm.*'
# Lease protocol: racing claim threads and the HeartbeatKeeper refresh
# thread against the claim-scoped cancel token. The fork-based resume
# case is excluded (fork + TSan runtime do not mix).
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  run_filtered "$BUILD_DIR/tests/lease_test" '-CampaignWorkerHeavy.*'

# Serve daemon on a thread of the test process: the main loop pushes
# admitted jobs, two workers pop them, and close wakes idle workers.
# The fork-based ServeHeavy suite is excluded (fork + TSan runtime do
# not mix).
TSAN_OPTIONS="halt_on_error=1 exitcode=66" \
  run_filtered "$BUILD_DIR/tests/serve_test" 'Serve.*'

echo "TSan: no data races detected."
