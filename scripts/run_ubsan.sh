#!/bin/sh
# Standalone UndefinedBehaviorSanitizer gate (-DDFMRES_SANITIZE=undefined)
# for the paths that parse untrusted or on-disk bytes: the Verilog
# front-end (verilog_test), the checkpoint journal reader and the
# cancellation machinery (resilience_test), plus the netlist core they
# feed (netlist_test), the SAT solver's literal/arena arithmetic
# (sat_test), and the id-indexed verdict store's slot and block
# arithmetic (atpg_test, VerdictStore.* only). Narrower and much faster
# than the combined ASan+UBSan build in run_asan.sh; any report, or a
# --gtest_filter that selects no test, aborts with a non-zero exit.
# Usage: scripts/run_ubsan.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
. scripts/gtest_filter.sh
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DDFMRES_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target verilog_test netlist_test resilience_test fault_sim_test \
  sat_test atpg_test

# Fail loudly on the first report.
SAN_ENV="halt_on_error=1 exitcode=66"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/verilog_test"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/netlist_test"
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/resilience_test"
UBSAN_OPTIONS="$SAN_ENV" \
  run_filtered "$BUILD_DIR/tests/sat_test" '-SatAtpg.AgreesWithPodemOnTv80'
UBSAN_OPTIONS="$SAN_ENV" \
  run_filtered "$BUILD_DIR/tests/atpg_test" 'VerdictStore.*'
# The fault-simulation kernel's lane masks are shifts by the lane
# count; UBSan checks them on every batch-tail shape.
UBSAN_OPTIONS="$SAN_ENV" "$BUILD_DIR/tests/fault_sim_test"

echo "UBSan: no reports."
