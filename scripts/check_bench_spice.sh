#!/usr/bin/env bash
# Assert that BENCH_spice.json parses, carries every key the EXPERIMENTS.md
# schema documents, and holds the two hard guarantees of the solver-backend
# subsystem: sparse LU agreed with the dense-LU oracle in situ to
# linear-solver precision (see docs/SOLVERS.md), and on the headline
# crossbar-scale circuit (>= 10x the Fig. 1 node count) dense LU was at
# least 5x slower than sparse LU. Run after the `spice_backends` bench bin:
#
#   cargo run --release -p pnc-bench --bin spice_backends -- --quick
#   scripts/check_bench_spice.sh [REPORT]
#
# With no argument, checks BENCH_spice.json at the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
report=${1:-BENCH_spice.json}

if [ ! -f "$report" ]; then
    echo "MISSING REPORT: $report (run the spice_backends bench first)" >&2
    exit 1
fi

python3 - "$report" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)

failures = []
number = (int, float)


def need(obj, key, where, kind):
    if key not in obj:
        failures.append(f"{where}: missing key '{key}'")
    elif not isinstance(obj[key], kind):
        failures.append(f"{where}.{key}: expected {kind}, got {type(obj[key]).__name__}")


need(report, "machine_threads", "report", int)
need(report, "quick", "report", bool)
for key in ("sparse_agreement_tol", "worst_sparse_dev"):
    need(report, key, "report", number)

need(report, "circuits", "report", list)
circuits = report.get("circuits", [])
if not circuits:
    failures.append("circuits: at least one measured circuit is required")
families = set()
for i, c in enumerate(circuits):
    where = f"circuits[{i}]"
    if not isinstance(c, dict):
        failures.append(f"{where}: expected an object")
        continue
    for key in ("family", "label"):
        need(c, key, where, str)
    need(c, "nodes", where, int)
    for key in ("dense_solves_per_s", "sparse_solves_per_s", "sparse_max_dev"):
        need(c, key, where, number)
        if isinstance(c.get(key), number) and c[key] < 0:
            failures.append(f"{where}.{key}: negative")
    families.add(c.get("family"))
for family in ("ladder", "crossbar"):
    if family not in families:
        failures.append(f"circuits: no '{family}' family entry")

need(report, "headline", "report", dict)
headline = report.get("headline", {})
need(headline, "label", "headline", str)
need(headline, "nodes", "headline", int)
for key in ("dense_solves_per_s", "sparse_solves_per_s", "dense_vs_sparse_slowdown"):
    need(headline, key, "headline", number)

if "crossover_nodes" not in report:
    failures.append("report: missing key 'crossover_nodes'")
elif report["crossover_nodes"] is not None and not isinstance(report["crossover_nodes"], int):
    failures.append("report.crossover_nodes: expected int or null")

# The hard acceptance bars, beyond pure schema shape.
nodes = headline.get("nodes")
if isinstance(nodes, int) and nodes < 60:
    failures.append(
        f"headline.nodes: {nodes} < 60 — the headline circuit must be "
        "crossbar-scale (>= 10x the Fig. 1 node count)"
    )
slowdown = headline.get("dense_vs_sparse_slowdown")
if isinstance(slowdown, number) and slowdown < 5.0:
    failures.append(
        f"headline.dense_vs_sparse_slowdown: {slowdown:.2f} < 5.0 — dense LU "
        "must be at least 5x slower than sparse LU at crossbar scale"
    )
sparse_tol = report.get("sparse_agreement_tol")
sparse_dev = report.get("worst_sparse_dev")
if isinstance(sparse_tol, number) and isinstance(sparse_dev, number):
    if sparse_dev >= sparse_tol:
        failures.append(
            f"worst_sparse_dev: {sparse_dev:.3e} >= tol {sparse_tol:.1e} — "
            "sparse LU drifted from the dense oracle"
        )

if failures:
    for line in failures:
        print(f"BENCH SCHEMA: {line}", file=sys.stderr)
    sys.exit(1)

print(
    f"{path}: schema ok "
    f"(headline {headline.get('label')}: {nodes} nodes, dense {slowdown:.1f}x "
    f"slower than sparse; crossover {report.get('crossover_nodes')} nodes; "
    f"worst sparse dev {sparse_dev:.2e})"
)
PY
