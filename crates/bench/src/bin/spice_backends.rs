//! Solver-backend shootout: dense LU vs sparse LU on two circuit families —
//! resistor ladders (tridiagonal-plus-border) and crossbar networks (the
//! paper's topology, where sparsity pays). The full grid steps both
//! families through 9–73 nodes so the dense/sparse crossover is measured,
//! not guessed. Results go to `BENCH_spice.json` at the repo root, with the
//! `spice.*` metrics summary beside it in `BENCH_spice_metrics.json`.
//!
//! Every timed circuit is also solved once on sparse LU for an *in-situ*
//! agreement check against the dense-LU oracle: `worst_sparse_dev` in the
//! report is the largest node-voltage deviation seen anywhere in the run,
//! and `scripts/check_bench_spice.sh` holds it to the tolerance documented
//! in `docs/SOLVERS.md`. The same script enforces the headline scaling bar:
//! on the largest crossbar (≥ 10× the Fig. 1 node count) dense LU must be
//! ≥ 5× slower than sparse LU.
//!
//! ```sh
//! cargo run --release -p pnc-bench --bin spice_backends -- [--quick]
//! ```

use pnc_spice::circuits::{resistor_ladder, CrossbarNetwork};
use pnc_spice::{Circuit, DcSolver, SolverBackend};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Sparse LU must track the dense oracle to linear-solver precision.
const SPARSE_TOL: f64 = 1e-8;

/// One circuit measured under both backends.
#[derive(Debug, Serialize)]
struct CircuitResult {
    /// `"ladder"` or `"crossbar"`.
    family: String,
    /// Human-readable size, e.g. `"ladder-64"` or `"crossbar-16x16x16"`.
    label: String,
    /// Non-ground node count (the MNA dimension less vsource branches).
    nodes: usize,
    /// Cold solves per second under the dense-LU oracle.
    dense_solves_per_s: f64,
    /// Cold solves per second under sparse LU.
    sparse_solves_per_s: f64,
    /// Largest |voltage difference| vs the dense oracle across all nodes.
    sparse_max_dev: f64,
}

/// The scaling headline: the crossbar where sparsity must pay.
#[derive(Debug, Serialize)]
struct Headline {
    label: String,
    nodes: usize,
    dense_solves_per_s: f64,
    sparse_solves_per_s: f64,
    /// `sparse_solves_per_s / dense_solves_per_s` — the ≥ 5 hard bar.
    dense_vs_sparse_slowdown: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    /// Physical cores on the measuring machine.
    machine_threads: usize,
    /// Whether this was a `--quick` smoke run.
    quick: bool,
    circuits: Vec<CircuitResult>,
    headline: Headline,
    /// Smallest measured node count from which sparse LU out-solves dense
    /// LU on every measured circuit at least that large; `null` if dense
    /// won on the largest circuit (it never should at these sizes).
    crossover_nodes: Option<usize>,
    /// The agreement bar `worst_sparse_dev` is held to.
    sparse_agreement_tol: f64,
    /// Largest sparse-vs-dense node-voltage deviation anywhere in the run.
    worst_sparse_dev: f64,
}

fn logical_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical core count: unique `(physical id, core id)` pairs from
/// `/proc/cpuinfo`, falling back to [`logical_threads`] (same accounting as
/// the other bench bins).
fn physical_cores() -> usize {
    let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") else {
        return logical_threads();
    };
    let mut cores = std::collections::HashSet::new();
    let (mut package, mut core) = (None::<u64>, None::<u64>);
    for line in info.lines().chain(std::iter::once("")) {
        if line.trim().is_empty() {
            if let (Some(p), Some(c)) = (package, core) {
                cores.insert((p, c));
            }
            package = None;
            core = None;
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        match key.trim() {
            "physical id" => package = value.trim().parse().ok(),
            "core id" => core = value.trim().parse().ok(),
            _ => {}
        }
    }
    if cores.is_empty() {
        logical_threads()
    } else {
        cores.len()
    }
}

/// Cold solves per second of `circuit` under `backend`, best of `reps`
/// batches. The batch size is calibrated from one warmup solve so slow
/// backends on big circuits still finish promptly, then the max batch rate
/// is taken — transient slowdowns only ever subtract throughput.
fn solves_per_s(circuit: &Circuit, backend: SolverBackend, reps: usize, target_s: f64) -> f64 {
    let solver = DcSolver::with_backend(backend);
    let warmup = Instant::now();
    solver.solve(circuit).expect("timed circuit solves");
    let one = warmup.elapsed().as_secs_f64().max(1e-7);
    let batch = ((target_s / one).ceil() as usize).clamp(1, 20_000);
    let mut best = 0.0_f64;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..batch {
            solver.solve(circuit).expect("timed circuit solves");
        }
        best = best.max(batch as f64 / t.elapsed().as_secs_f64());
    }
    best
}

/// Largest |node-voltage difference| between the sparse backend's solution
/// and the dense oracle's, over every non-ground node; infinite if the
/// sparse solve fails.
fn sparse_deviation(circuit: &Circuit, oracle: &[f64]) -> f64 {
    let Ok(got) = DcSolver::with_backend(SolverBackend::SparseLu).solve(circuit) else {
        return f64::INFINITY;
    };
    oracle
        .iter()
        .zip(got.voltages())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max)
}

/// Measures one circuit under both backends.
fn measure(
    family: &str,
    label: String,
    circuit: &Circuit,
    reps: usize,
    target_s: f64,
) -> CircuitResult {
    eprintln!("  {label} ({} nodes) ...", circuit.num_nodes());
    let oracle = DcSolver::new().solve(circuit).expect("dense oracle solves");
    let sparse_max_dev = sparse_deviation(circuit, oracle.voltages());
    let dense = solves_per_s(circuit, SolverBackend::DenseLu, reps, target_s);
    let sparse = solves_per_s(circuit, SolverBackend::SparseLu, reps, target_s);
    eprintln!("    dense {dense:.0}/s   sparse {sparse:.0}/s");
    CircuitResult {
        family: family.to_string(),
        label,
        nodes: circuit.num_nodes(),
        dense_solves_per_s: dense,
        sparse_solves_per_s: sparse,
        sparse_max_dev,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 5 };
    let target_s = if quick { 0.05 } else { 0.25 };

    let mut circuits = Vec::new();

    eprintln!("resistor ladders ...");
    let ladder_sections: &[usize] = if quick {
        &[8, 24, 96]
    } else {
        &[8, 12, 16, 20, 24, 32, 40, 48, 56, 64, 96, 384]
    };
    for &sections in ladder_sections {
        let (ladder, _) = resistor_ladder(sections, 1_000.0, 10_000.0)?;
        circuits.push(measure(
            "ladder",
            format!("ladder-{sections}"),
            &ladder,
            reps,
            target_s,
        ));
    }

    eprintln!("crossbar networks ...");
    let crossbar_layers: &[&[usize]] = if quick {
        &[&[4, 4], &[8, 8, 8], &[16, 16, 16, 16]]
    } else {
        // 11, 16, 21, 31, 41, 53, 65, 73, 109 and 209 nodes.
        &[
            &[2, 2],
            &[3, 3],
            &[4, 4],
            &[6, 6],
            &[8, 8],
            &[4, 4, 4, 4],
            &[8, 8, 6],
            &[8, 8, 8],
            &[12, 12, 12],
            &[16, 16, 16, 16],
        ]
    };
    let mut headline: Option<Headline> = None;
    for &layers in crossbar_layers {
        let label = format!(
            "crossbar-{}",
            layers
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("x")
        );
        let net = CrossbarNetwork::build(layers, 42)?;
        let result = measure("crossbar", label.clone(), net.circuit(), reps, target_s);
        headline = Some(Headline {
            label,
            nodes: result.nodes,
            dense_solves_per_s: result.dense_solves_per_s,
            sparse_solves_per_s: result.sparse_solves_per_s,
            dense_vs_sparse_slowdown: result.sparse_solves_per_s / result.dense_solves_per_s,
        });
        circuits.push(result);
    }
    let headline = headline.expect("at least one crossbar is always measured");

    // Walk down from the largest circuit while sparse keeps winning: one
    // noisy small-circuit win below a dense win does not move the crossover.
    let mut by_nodes: Vec<&CircuitResult> = circuits.iter().collect();
    by_nodes.sort_by_key(|r| std::cmp::Reverse(r.nodes));
    let crossover_nodes = by_nodes
        .iter()
        .take_while(|r| r.sparse_solves_per_s > r.dense_solves_per_s)
        .last()
        .map(|r| r.nodes);

    let worst_sparse_dev = circuits
        .iter()
        .map(|r| r.sparse_max_dev)
        .fold(0.0_f64, f64::max);

    let report = Report {
        machine_threads: physical_cores(),
        quick,
        circuits,
        headline,
        crossover_nodes,
        sparse_agreement_tol: SPARSE_TOL,
        worst_sparse_dev,
    };

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_spice.json");
    std::fs::write(&out, serde_json::to_string_pretty(&report)?)?;
    eprintln!("\nreport saved to {}", out.display());

    // End-of-run metrics summary next to the timing report: the
    // `spice.backend.*` counters behind the numbers above (docs/METRICS.md).
    let metrics_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_spice_metrics.json");
    pnc_obs::write_summary(&metrics_out)?;
    eprintln!("metrics summary saved to {}", metrics_out.display());

    println!(
        "headline {}: {} nodes, dense {:.0}/s vs sparse {:.0}/s ({:.1}x), \
         crossover {:?} nodes, worst sparse dev {:.2e}",
        report.headline.label,
        report.headline.nodes,
        report.headline.dense_solves_per_s,
        report.headline.sparse_solves_per_s,
        report.headline.dense_vs_sparse_slowdown,
        report.crossover_nodes,
        report.worst_sparse_dev,
    );
    Ok(())
}
