#!/usr/bin/env bash
# Assert that BENCH_serving.json parses, carries every key the
# EXPERIMENTS.md schema documents, and holds the three hard guarantees of
# the serving layer: every served response was bit-identical to a direct
# single-sample plan call, the framed-TCP hop preserved those bits, and
# batched dispatch was at least as fast as one-request-at-a-time dispatch
# under the same load. Run after the `serving` bench bin:
#
#   cargo run --release -p pnc-bench --bin serving -- --quick
#   scripts/check_bench_serving.sh [REPORT]
#
# With no argument, checks BENCH_serving.json at the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
report=${1:-BENCH_serving.json}

if [ ! -f "$report" ]; then
    echo "MISSING REPORT: $report (run the serving bench first)" >&2
    exit 1
fi

python3 - "$report" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)

failures = []


def need(obj, key, where, kind):
    if key not in obj:
        failures.append(f"{where}: missing key '{key}'")
    elif not isinstance(obj[key], kind):
        failures.append(f"{where}.{key}: expected {kind}, got {type(obj[key]).__name__}")


def check_phase(phase, where):
    for key in ("client_threads", "requests", "completed", "rejected"):
        need(phase, key, where, int)
    for key in ("requests_per_s", "p50_us", "p99_us"):
        need(phase, key, where, number)
    if isinstance(phase.get("completed"), int) and phase.get("completed", 0) <= 0:
        failures.append(f"{where}.completed: no request completed")


number = (int, float)
need(report, "machine_threads", "report", int)
need(report, "bit_identical", "report", bool)
need(report, "tcp_round_trip", "report", bool)
need(report, "batching_speedup", "report", number)

need(report, "model", "report", dict)
model = report.get("model", {})
need(model, "dataset", "model", str)
need(model, "precision", "model", str)
for key in ("in_dim", "out_dim"):
    need(model, key, "model", int)

need(report, "config", "report", dict)
config = report.get("config", {})
for key in ("max_batch", "queue_capacity", "worker_threads"):
    need(config, key, "config", int)

need(report, "serial", "report", dict)
check_phase(report.get("serial", {}), "serial")

need(report, "load", "report", list)
load = report.get("load", [])
if not load:
    failures.append("load: at least one loaded phase is required")
for i, phase in enumerate(load):
    if isinstance(phase, dict):
        check_phase(phase, f"load[{i}]")
    else:
        failures.append(f"load[{i}]: expected an object")

# The three hard acceptance bars, beyond pure schema shape.
if report.get("bit_identical") is not True:
    failures.append(
        "bit_identical: served responses must match direct single-sample plan bits"
    )
if report.get("tcp_round_trip") is not True:
    failures.append("tcp_round_trip: the framed-TCP hop must preserve exact f64 bits")
speedup = report.get("batching_speedup")
if isinstance(speedup, number) and speedup < 1.0:
    failures.append(
        f"batching_speedup: {speedup:.2f} < 1.0 — batched dispatch must not lose "
        "to one-request-at-a-time under the same load"
    )

if failures:
    for line in failures:
        print(f"BENCH SCHEMA: {line}", file=sys.stderr)
    sys.exit(1)

print(
    f"{path}: schema ok "
    f"(batching {speedup:.2f}x vs one-at-a-time, bit-identical, tcp exact)"
)
PY
