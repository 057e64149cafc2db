#!/bin/sh
# Full local gate: tier-1 build + test suite (with the fuzz harness
# built and replayed over its seed corpus), then the sanitizer
# configurations (TSan for the thread pool, ASan+UBSan for the
# warm-start/arena machinery, plain UBSan for the parser/journal
# paths). Usage: scripts/check.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DDFMRES_FUZZ=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Under gcc the fuzz targets are standalone replayers: every corpus
# seed must run through its front-end without crashing.
"$BUILD_DIR/tools/fuzz_verilog" tools/fuzz_corpus/*.v
"$BUILD_DIR/tools/fuzz_manifest" tools/fuzz_corpus_manifest/*.json
"$BUILD_DIR/tools/fuzz_request" tools/fuzz_corpus_request/*.json

# Schema registry cross-check: the C++ registry (src/core/schemas.hpp)
# and the Python summarizer must agree on the exact set of versioned
# document names, so neither side can grow a schema the other cannot
# see.
grep -o '"dfmres-[a-z0-9-]*-v[0-9]*"' src/core/schemas.hpp \
  | tr -d '"' | sort -u > "$BUILD_DIR/schemas_cpp.txt"
python3 scripts/summarize_report.py --list-schemas \
  | sort -u > "$BUILD_DIR/schemas_py.txt"
diff -u "$BUILD_DIR/schemas_cpp.txt" "$BUILD_DIR/schemas_py.txt"
echo "schema registry: C++ and Python agree" \
  "($(wc -l < "$BUILD_DIR/schemas_cpp.txt") schemas)"

# CLI exit-code contract (regression pin): 0 = success, 1 = runtime
# failure, 2 = usage/flag error. Scripts and the serve tests key off
# these; a drift here silently breaks every caller.
expect_exit() {
  want="$1"; shift
  set +e
  "$@" >/dev/null 2>&1
  got=$?
  set -e
  if [ "$got" != "$want" ]; then
    echo "check.sh: '$*' exited $got, pinned $want" >&2
    exit 1
  fi
}
expect_exit 0 "$BUILD_DIR/tools/dfmres" list
expect_exit 2 "$BUILD_DIR/tools/dfmres" list extra
expect_exit 1 "$BUILD_DIR/tools/dfmres" resyn no_such_design
# Resyn smoke: sparc_lsu's first phase-1 region is not convex, so some of
# its re-maps close a combinational loop; they must be rejected as
# candidates, not abort the run (~2 s).
expect_exit 0 "$BUILD_DIR/tools/dfmres" resyn sparc_lsu --threads 1
expect_exit 1 "$BUILD_DIR/tools/dfmres" request --socket /nonexistent.sock drain
expect_exit 2 "$BUILD_DIR/tools/dfmres" resyn sparc_tlu --q 999
expect_exit 2 "$BUILD_DIR/tools/dfmres" flow sparc_tlu --util bogus
expect_exit 2 "$BUILD_DIR/tools/dfmres" flow sparc_tlu --simd=auto
# --max-inflight is serve's one bound on queued jobs; the removed
# queue bound flag is a usage error.
expect_exit 2 "$BUILD_DIR/tools/dfmres" serve --campaign-root D \
  --listen S --queue-capacity 4
expect_exit 2 "$BUILD_DIR/tools/dfmres" no_such_command
echo "cli exit codes: 0/1/2 contract holds"

# Observability gate: a CLI run with all three output flags must produce
# three well-formed JSON documents (trace loadable in chrome://tracing,
# metrics, run report) and the report must pass the summarizer's schema
# check.
OBS_DIR="$BUILD_DIR/obs_gate"
mkdir -p "$OBS_DIR"
"$BUILD_DIR/tools/dfmres" resyn sparc_tlu --q 1 --deadline 120s \
  --trace-out "$OBS_DIR/trace.json" \
  --metrics-out "$OBS_DIR/metrics.json" \
  --report-out "$OBS_DIR/report.json"
python3 - "$OBS_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
trace = json.load(open(os.path.join(d, "trace.json")))
assert trace["traceEvents"], "empty trace"
assert any(e.get("ph") == "X" for e in trace["traceEvents"]), "no spans"
metrics = json.load(open(os.path.join(d, "metrics.json")))
assert metrics["counters"].get("atpg.patterns_simulated", 0) > 0
# Every observability wave updates at least its victim net, so the memo
# miss count is bounded by the propagation events.
obs = metrics["counters"].get("atpg.obs_propagations", 0)
events = metrics["counters"].get("atpg.propagation_events", 0)
assert 0 < obs <= events, f"atpg.obs_propagations={obs}, events={events}"
report = json.load(open(os.path.join(d, "report.json")))
assert report["schema"] == "dfmres-run-report-v2"
assert report["resynthesis"]["convergence"], "empty convergence series"
counters = report["resynthesis"]["counters"]
assert "probe_proof_memo_hits" in counters
# Every probe PODEM->SAT handoff ends in exactly one SAT verdict.
sat_verdicts = (counters["probe_sat_detected"] +
                counters["probe_sat_undetectable"] +
                counters["probe_sat_aborted"])
assert counters["probe_podem_handoffs"] == sat_verdicts, \
    f"probe handoffs {counters['probe_podem_handoffs']} != SAT D+U+A {sat_verdicts}"
print("observability gate: trace/metrics/report OK")
EOF
python3 scripts/summarize_report.py "$OBS_DIR/report.json"

# SAT-stage gate: the three abort-heavy blocks must classify every fault
# within the default conflict budget — A no larger than the per-block
# counts in EXPERIMENTS.md ("SAT second stage") — with exactly the U each
# block has had since the SAT stage landed, and the run report must carry
# the SAT and proof-memo counters.
SATSTAGE_DIR="$BUILD_DIR/sat_stage_gate"
mkdir -p "$SATSTAGE_DIR"
for spec in sparc_ffu:0:320 aes_core:0:1214 sparc_fpu:0:1364; do
  block="${spec%%:*}"
  "$BUILD_DIR/tools/dfmres" flow "$block" \
    --report-out "$SATSTAGE_DIR/$block.json" > /dev/null
  python3 - "$SATSTAGE_DIR/$block.json" "${spec#*:}" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
max_a, want_u = (int(x) for x in sys.argv[2].split(":"))
aborted = report["final"]["aborted"]
assert aborted <= max_a, f"{report['circuit']}: A={aborted} > {max_a}"
undetectable = report["final"]["undetectable"]
assert undetectable == want_u, \
    f"{report['circuit']}: U={undetectable}, expected {want_u}"
for key in ("podem_handoffs", "sat_calls", "sat_conflicts", "sat_detected",
            "sat_undetectable", "sat_aborted", "sat_clauses", "sat_seconds",
            "proof_memo_hits"):
    assert key in report["atpg"], f"report lacks atpg.{key}"
# Every PODEM->SAT handoff is one SAT call ending in one verdict.
atpg = report["atpg"]
sat_verdicts = (atpg["sat_detected"] + atpg["sat_undetectable"] +
                atpg["sat_aborted"])
assert atpg["podem_handoffs"] == atpg["sat_calls"] == sat_verdicts, \
    (f"{report['circuit']}: handoffs {atpg['podem_handoffs']}, SAT calls "
     f"{atpg['sat_calls']}, SAT D+U+A {sat_verdicts}")
# Each block proves some region undetectable twice in one run.
hits = report["atpg"]["proof_memo_hits"]
assert hits > 0, f"{report['circuit']}: no proof memo hits"
print(f"sat stage gate: {report['circuit']} A={aborted} (<= {max_a}),"
      f" U={undetectable}, {atpg['sat_calls']} SAT calls"
      f" ({atpg['sat_clauses']} clauses), {hits} proof memo hits")
EOF
done

# Literal-free proof gate: on aes_core, SAT refutes unobservable cones
# without reading the call's literals, and the proof memo answers later
# calls on those victims by the literal-free cone key; each such hit is
# a proof memo hit.
"$BUILD_DIR/tools/dfmres" flow aes_core --threads 1 \
  --report-out "$SATSTAGE_DIR/aes_core_t1.json" > /dev/null
python3 - "$SATSTAGE_DIR/aes_core_t1.json" <<'EOF'
import json, sys
atpg = json.load(open(sys.argv[1]))["atpg"]
cone, hits = atpg["cone_proof_hits"], atpg["proof_memo_hits"]
assert 0 < cone <= hits, \
    f"aes_core: cone_proof_hits={cone}, proof_memo_hits={hits}"
print(f"literal-free proof gate: aes_core {cone} of {hits} memo hits by cone")
EOF

# A failing run must still flush its observability outputs: the CLI
# exits non-zero but --trace-out holds a complete, loadable document,
# not nothing and not a torn file.
if "$BUILD_DIR/tools/dfmres" resyn no_such_design \
    --trace-out "$OBS_DIR/failed_trace.json" 2>/dev/null; then
  echo "check.sh: expected resyn on a bogus design to fail" >&2
  exit 1
fi
python3 - "$OBS_DIR/failed_trace.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
assert "traceEvents" in trace, "failed run left no trace document"
print("observability gate: failed-run trace still loads")
EOF

# Campaign gate: a 2-job mini-campaign from a manifest must finish with
# every job completed and emit a schema-valid campaign report whose
# per-job run reports and merged metrics survive the summarizer.
CAMP_DIR="$BUILD_DIR/campaign_gate"
mkdir -p "$CAMP_DIR"
cat > "$CAMP_DIR/manifest.json" <<'EOF'
{
  "schema": "dfmres-campaign-manifest-v1",
  "jobs": [
    {"name": "tlu-q0", "design": "sparc_tlu", "mode": "resyn", "q_max": 0},
    {"name": "wb-q2", "design": "wb_conmax", "mode": "resyn", "q_max": 2}
  ]
}
EOF
"$BUILD_DIR/tools/dfmres" campaign --manifest "$CAMP_DIR/manifest.json" \
  --jobs 2 --checkpoint-root "$CAMP_DIR/ckpt" \
  --report-out "$CAMP_DIR/report.json"
python3 - "$CAMP_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
report = json.load(open(os.path.join(d, "report.json")))
assert report["schema"] == "dfmres-campaign-report-v1"
assert report["jobs_total"] == 2 and report["completed"] == 2
assert report["failed"] == 0 and report["skipped"] == 0
assert report["jobs_in_flight"] == 2
for job in report["jobs"]:
    assert job["ok"], job
    assert job["report"]["command"] == "resyn", job
    assert job["report"]["final"]["coverage"] > 0.9, job
assert {j["name"] for j in report["jobs"]} == {"tlu-q0", "wb-q2"}
assert report["metrics"]["counters"]["atpg.patterns_simulated"] > 0
print("campaign gate: report OK")
EOF
python3 scripts/summarize_report.py "$CAMP_DIR/report.json"

# Chaos gate: the same manifest as a 2-worker lease-claimed campaign
# with deterministic SIGKILL injection (each worker dies at its 2nd
# checkpoint append and again when it first stages a shard; the
# coordinator respawns it and the job resumes from the shared
# checkpoint). The merged report must canonicalize byte-identically to
# the in-process run above.
CHAOS_DIR="$BUILD_DIR/chaos_gate"
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"
DFMRES_CRASH_AFTER="ckpt.append:2,shard.stage:1" \
  "$BUILD_DIR/tools/dfmres" campaign --manifest "$CAMP_DIR/manifest.json" \
  --workers 2 --campaign-root "$CHAOS_DIR/root"
"$BUILD_DIR/tools/dfmres" canon "$CAMP_DIR/report.json" \
  > "$CHAOS_DIR/serial.canon"
"$BUILD_DIR/tools/dfmres" canon "$CHAOS_DIR/root/report.json" \
  > "$CHAOS_DIR/chaos.canon"
cmp "$CHAOS_DIR/serial.canon" "$CHAOS_DIR/chaos.canon"
python3 scripts/summarize_report.py "$CHAOS_DIR"/root/shards/*.json
echo "chaos gate: crash-resumed merge canonically identical"

# Serve gate: the always-on daemon must accept the same manifest over
# its socket via the protocol client, stream schema-valid
# dfmres-response-v1 events, answer a status query, drain cleanly
# (exit 0), and leave a campaign report whose canonical projection is
# byte-identical to the in-process serial run above.
SERVE_DIR="$BUILD_DIR/serve_gate"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
SERVE_SOCK="$SERVE_DIR/serve.sock"
"$BUILD_DIR/tools/dfmres" serve --campaign-root "$SERVE_DIR/root" \
  --listen "$SERVE_SOCK" --workers 2 > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while [ ! -S "$SERVE_SOCK" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
"$BUILD_DIR/tools/dfmres" request --socket "$SERVE_SOCK" submit \
  --id gate --manifest "$CAMP_DIR/manifest.json" --wait \
  > "$SERVE_DIR/submit_events.jsonl"
"$BUILD_DIR/tools/dfmres" request --socket "$SERVE_SOCK" status --id gate \
  > "$SERVE_DIR/status_event.jsonl"
"$BUILD_DIR/tools/dfmres" request --socket "$SERVE_SOCK" drain \
  > "$SERVE_DIR/drain_events.jsonl"
wait "$SERVE_PID"
python3 - "$SERVE_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
def lines(name):
    with open(os.path.join(d, name)) as fh:
        return [json.loads(l) for l in fh if l.strip()]
submit = lines("submit_events.jsonl")
assert all(e["schema"] == "dfmres-response-v1" for e in submit)
events = [e["event"] for e in submit]
assert events[0] == "accepted", events
assert events.count("job_done") == 2, events
assert events[-1] == "report", events
report = submit[-1]["report"]
assert report["schema"] == "dfmres-campaign-report-v1"
assert report["completed"] == 2 and report["failed"] == 0
status = lines("status_event.jsonl")
assert status[-1]["event"] == "status"
assert status[-1]["status"]["schema"] == "dfmres-status-v1"
assert status[-1]["status"]["report_written"]
drain = lines("drain_events.jsonl")
assert drain[-1]["event"] == "drained"
print("serve gate: accepted/job_done/report/status/drained all schema-valid")
EOF
"$BUILD_DIR/tools/dfmres" canon "$SERVE_DIR/root/gate/report.json" \
  > "$SERVE_DIR/serve.canon"
cmp "$CHAOS_DIR/serial.canon" "$SERVE_DIR/serve.canon"
echo "serve gate: socket-run report canonically identical to serial"

# Saturation bench: latency percentiles must be ordered at every load
# level and the over-capacity level must produce explicit admission
# rejections (the bench itself exits non-zero if it sees none).
SAT_DIR="$BUILD_DIR/serve_sat_gate"
rm -rf "$SAT_DIR"
mkdir -p "$SAT_DIR"
SAT_BIN="$BUILD_DIR/bench/bench_serve_saturation"
case "$SAT_BIN" in /*) ;; *) SAT_BIN="$(pwd)/$SAT_BIN" ;; esac
(cd "$SAT_DIR" && "$SAT_BIN")
python3 - "$SAT_DIR/BENCH_serve_saturation.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "dfmres-bench-serve-v1"
assert report["rejections_seen"], "saturated level saw no rejections"
for level in report["levels"]:
    assert level["accepted"] + level["rejected"] == level["offered"], level
    if level["accepted"]:
        assert 0 < level["p50_ms"] <= level["p95_ms"] <= level["p99_ms"], level
sat = report["levels"][-1]
assert sat["offered"] > report["max_inflight_jobs"] and sat["rejected"] > 0
print(f"serve saturation gate: {len(report['levels'])} levels,"
      f" {sat['rejected']} rejection(s) at offered={sat['offered']}")
EOF
python3 scripts/summarize_report.py "$SAT_DIR/BENCH_serve_saturation.json"

# Telemetry gate: a 2-worker chaos mini-campaign (every first-generation
# worker SIGKILLed right after claiming, so the respawns take over the
# stale leases) must leave behind schema-valid machine output at every
# layer: dfmres status --json, the per-worker telemetry snapshots, and a
# merged Chrome timeline that re-merges byte-identically and records the
# forced lease takeover.
TELEM_DIR="$BUILD_DIR/telemetry_gate"
rm -rf "$TELEM_DIR"
mkdir -p "$TELEM_DIR"
DFMRES_CRASH_AFTER="job.start:1" \
  "$BUILD_DIR/tools/dfmres" campaign --manifest "$CAMP_DIR/manifest.json" \
  --workers 2 --campaign-root "$TELEM_DIR/root" --snapshot-interval 100ms
"$BUILD_DIR/tools/dfmres" status --json --campaign-root "$TELEM_DIR/root" \
  > "$TELEM_DIR/status.json"
"$BUILD_DIR/tools/dfmres" trace merge --campaign-root "$TELEM_DIR/root" \
  --out "$TELEM_DIR/merge1.json"
"$BUILD_DIR/tools/dfmres" trace merge --campaign-root "$TELEM_DIR/root" \
  --out "$TELEM_DIR/merge2.json"
cmp "$TELEM_DIR/merge1.json" "$TELEM_DIR/merge2.json"
python3 - "$TELEM_DIR" <<'EOF'
import json, sys, os, glob
d = sys.argv[1]
status = json.load(open(os.path.join(d, "status.json")))
assert status["schema"] == "dfmres-status-v1"
assert status["report_written"]
assert status["done"] == status["jobs_total"] == 2
assert all(j["state"] == "done" for j in status["jobs"])
assert status["workers"], "no telemetry snapshots behind the status"
shards = sorted(glob.glob(os.path.join(d, "root", "telemetry", "*.json")))
assert shards, "telemetry directory is empty"
for path in shards:
    snap = json.load(open(path))
    assert snap["schema"] == "dfmres-telemetry-v1", path
trace = json.load(open(os.path.join(d, "merge1.json")))
names = {e.get("name") for e in trace["traceEvents"]}
assert "lease.claim" in names, "no lease-protocol rows in the timeline"
assert "lease.takeover" in names, "kill injection left no takeover event"
pids = {e["pid"] for e in trace["traceEvents"] if e.get("ph") == "X"}
assert len(pids) >= 2, f"expected spans from >=2 worker pids, got {pids}"
print("telemetry gate: status/snapshots/merge/takeover OK")
EOF
python3 scripts/summarize_report.py "$TELEM_DIR/status.json"

# Probe-overlay gate: the copy-on-write overlays must stay bit-identical
# to full per-probe loads and keep the local-edit probe cost at O(cone):
# >= 10x fewer frame bytes per probe than the O(netlist) full loads on
# tv80. The bench exits non-zero on any observable divergence.
OVL_DIR="$BUILD_DIR/overlay_gate"
mkdir -p "$OVL_DIR"
OVL_BIN="$BUILD_DIR/bench/bench_probe_overlay"
case "$OVL_BIN" in /*) ;; *) OVL_BIN="$(pwd)/$OVL_BIN" ;; esac
(cd "$OVL_DIR" && "$OVL_BIN" tv80)
python3 - "$OVL_DIR/BENCH_probe_overlay_compare.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "dfmres-bench-probe-overlay-v1"
assert report["identical"], "overlay and full runs disagree"
ratio = report["bytes_per_probe_ratio"]
assert ratio >= 10.0, f"local-edit bytes/probe ratio {ratio:.1f}x < 10x"
print(f"probe overlay gate: bit-identical, {ratio:.1f}x fewer bytes/probe")
EOF
python3 scripts/summarize_report.py "$OVL_DIR/BENCH_probe_overlay_compare.json"

# Fault-simulation kernel gate: exact tail-lane masks, the per-lane
# brute-force oracle on real fault universes (including reloads that
# must drop the observability memo), and the pinned cold-engine output
# hashes on sparc_tlu and tv80.
"$BUILD_DIR/tests/fault_sim_test"

scripts/run_tsan.sh
scripts/run_asan.sh
scripts/run_ubsan.sh

echo "check.sh: all gates passed."
