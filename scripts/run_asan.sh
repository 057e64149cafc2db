#!/bin/sh
# AddressSanitizer + UndefinedBehaviorSanitizer gate for the warm-start
# incremental ATPG machinery: -DDFMRES_SANITIZE=address expands to
# address,undefined (see CMakeLists.txt). Runs the suites that exercise
# the simulator-arena rebinding, the cache overlays and the speculative
# ladder (warm_start_test), the core flow (core_test), the engine
# itself and the id-indexed verdict store behind the status cache
# (atpg_test; VerdictStore.* drives ids past the end, cell-aware block
# regrowth and overlay folding), the SAT stage's run-long solver and
# miter (sat_test: clause arena garbage collection, retired-cone
# collection and variable reuse, watch-list rebuilds), and the
# copy-on-write probe overlays
# (overlay_test — baseline frame aliasing and the per-batch dirty-slot
# replay are exactly the pointer gymnastics ASan is for), the flat
# DFM extractor (dfm_test), and the switch-level simulator's reused CSR
# and reach buffers over both libraries' UDFM extraction
# (switchlevel_test), and the level-bucket event queue with the
# combinational levels it indexes (netlist_test) and the two-fault
# simulator's waves over it (double_fault_test). Any report, or a
# --gtest_filter that selects no test, aborts with a non-zero exit.
# Usage: scripts/run_asan.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
. scripts/gtest_filter.sh
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DDFMRES_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target warm_start_test core_test atpg_test overlay_test fault_sim_test \
  lease_test sat_test dfm_test switchlevel_test netlist_test \
  double_fault_test

# Fail loudly on the first report from either sanitizer.
SAN_ENV="halt_on_error=1 exitcode=66"
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/warm_start_test"
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/core_test"
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/switchlevel_test"
# Includes the VerdictStore.* differential and overlay tests and the
# RelevantRegion.* / ProofMemo.* phase-2 region and memo tests.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/atpg_test"
# The tv80 differential repeats the sparc_tlu one on a 3x larger block.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  run_filtered "$BUILD_DIR/tests/sat_test" '-SatAtpg.AgreesWithPodemOnTv80'
# The tv80 end-to-end case reruns two full resynthesis searches — far
# too slow under instrumentation; the small-block cases cover the same
# overlay load/discard/rebase code paths.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  run_filtered "$BUILD_DIR/tests/overlay_test" '-OverlayHeavy.*'
# Fault-simulation kernel: the oracle suite drives the load / overlay /
# detect paths and the observability memo, including the batch-tail
# lane masks.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/fault_sim_test"
# LevelQueue bucket indexing (LevelQueue.*, including a reset to fewer
# levels) and CombView levels on all 12 blocks.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/netlist_test"
# Two-fault waves: the pair simulator's level queue and epoch marks.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/double_fault_test"
# DFM extraction: CSR bucket offsets, the adjacent-track walk and the
# per-window bitmaps index flat arrays by net id and gcell.
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  "$BUILD_DIR/tests/dfm_test"
# Lease protocol + campaign workers: single-line JSON records, epoch
# path arithmetic and the shard render/parse round-trip are exactly the
# string/buffer handling ASan watches. The fork-heavy resume case runs
# in the regular build (forking an ASan child doubles the shadow).
ASAN_OPTIONS="$SAN_ENV" UBSAN_OPTIONS="$SAN_ENV" \
  run_filtered "$BUILD_DIR/tests/lease_test" '-CampaignWorkerHeavy.*'

echo "ASan/UBSan: no reports."
