//! Inference-path benchmark: the autodiff-graph forward vs the compiled
//! allocation-free f64 [`InferencePlan`] on the paper's Iris network. Results go to `BENCH_infer.json` at the repo root,
//! with the `infer.*` counter summary beside it in
//! `BENCH_infer_metrics.json`.
//!
//! Two sections:
//!
//! 1. **single_sample** — per-call latency distribution (p50/p99 in µs) of
//!    one-row inference, the deployment-shaped workload: a printed
//!    classifier sees one sensor frame at a time. The headline
//!    `speedup_f64_vs_graph` compares p50s and must stay ≥ 3× (enforced by
//!    `scripts/check_bench_infer.sh`).
//! 2. **batched** — steady-state inferences/s at batch 128 for the graph
//!    path and the plan.
//!
//! The report also carries `bit_identical_f64`: the f64 plan's outputs on
//! the held-out rows are compared against the graph forward with exact
//! equality, re-verifying the DESIGN.md §12 contract on the very network
//! being timed.
//!
//! ```sh
//! cargo run --release -p pnc-bench --bin infer -- [--quick]
//! ```

use pnc_core::{InferencePlan, LabeledData, Pnn, PnnConfig, TrainConfig, Trainer, VariationModel};
use pnc_datasets::generators::iris;
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig as STrain};
use serde::Serialize;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The trained network behind the numbers, for report self-description.
#[derive(Debug, Serialize)]
struct NetworkInfo {
    /// Benchmark task the network was trained on.
    dataset: String,
    /// Input features.
    in_dim: usize,
    /// Output classes.
    out_dim: usize,
    /// Crossbar layers in the compiled plan.
    layers: usize,
    /// Training epochs the network received before compilation.
    train_epochs: usize,
}

/// Per-call latency percentiles of one-row inference, in microseconds.
#[derive(Debug, Serialize)]
struct SingleSampleSection {
    /// Timed calls per variant (after warmup).
    reps: usize,
    graph_p50_us: f64,
    graph_p99_us: f64,
    plan_f64_p50_us: f64,
    plan_f64_p99_us: f64,
    /// `graph_p50_us / plan_f64_p50_us` — the headline compiled-plan win.
    speedup_f64_vs_graph: f64,
}

/// Steady-state throughput at a fixed batch, in inferences (rows) per second.
#[derive(Debug, Serialize)]
struct BatchedSection {
    /// Rows per call.
    batch: usize,
    graph_inferences_per_s: f64,
    plan_f64_inferences_per_s: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    /// Physical cores on the measuring machine (every timing here is
    /// single-threaded; this is context, not a parallelism claim).
    machine_threads: usize,
    network: NetworkInfo,
    single_sample: SingleSampleSection,
    batched: BatchedSection,
    /// Whether the f64 plan reproduced the graph forward bit for bit on the
    /// held-out rows of the benchmarked network.
    bit_identical_f64: bool,
}

fn logical_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical core count: unique `(physical id, core id)` pairs from
/// `/proc/cpuinfo`, falling back to [`logical_threads`] where the file is
/// absent or unparsable (same accounting as the `kernels` bench bin).
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

/// `p`-th percentile (0–100) of an ascending-sorted sample, nearest-rank.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Per-call wall times of `reps` invocations of `f`, in microseconds,
/// ascending, after `reps / 10 + 1` warmup calls.
fn time_calls<F: FnMut()>(reps: usize, mut f: F) -> Vec<f64> {
    for _ in 0..reps / 10 + 1 {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    samples
}

/// Best-of-`reps` wall time of `f`, in milliseconds, after one warmup run.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    eprintln!("building fixture surrogate ...");
    let data = build_dataset(&DatasetConfig {
        samples: if quick { 60 } else { 120 },
        sweep_points: if quick { 21 } else { 31 },
    })?;
    let surrogate = Arc::new(
        train_surrogate(
            &data,
            &STrain {
                layer_sizes: vec![10, 8, 4],
                max_epochs: if quick { 60 } else { 200 },
                patience: 100,
                ..STrain::default()
            },
        )?
        .0,
    );

    let ds = iris();
    let (train, val, test) = ds.split(7);
    let train_epochs = if quick { 2 } else { 6 };
    eprintln!(
        "training the {} network for {train_epochs} epoch(s) ...",
        ds.name
    );
    let config = PnnConfig::for_dataset(ds.num_features(), ds.num_classes).with_seed(7);
    let mut pnn = Pnn::new(config, surrogate)?;
    Trainer::new(TrainConfig {
        variation: VariationModel::None,
        n_train_mc: 1,
        n_val_mc: 1,
        max_epochs: train_epochs,
        patience: train_epochs,
        parallel: ParallelConfig::serial(),
        ..TrainConfig::default()
    })
    .train(
        &mut pnn,
        LabeledData::new(&train.features, &train.labels)?,
        LabeledData::new(&val.features, &val.labels)?,
    )?;

    let mut plan64 = InferencePlan::compile(&pnn)?;

    // Bit-identity of the f64 plan on held-out rows, on the very network
    // being timed — the DESIGN.md §12 contract, re-checked in situ.
    let graph_out = pnn.infer(&test.features, None)?;
    let plan_out = plan64.infer(&test.features)?;
    let bit_identical_f64 = graph_out == plan_out;
    eprintln!(
        "f64 plan bit-identity over {} held-out rows: {bit_identical_f64}",
        test.features.rows()
    );

    // Single-sample latency: one held-out row, the deployment-shaped load.
    let reps = if quick { 300 } else { 2000 };
    let x1 = Matrix::from_fn(1, test.features.cols(), |_, j| test.features[(0, j)]);
    let mut out1 = Matrix::zeros(1, ds.num_classes);
    eprintln!("single-sample latency, {reps} calls per variant ...");
    let graph_t = time_calls(reps, || {
        black_box(pnn.infer(black_box(&x1), None).expect("graph forward"));
    });
    let f64_t = time_calls(reps, || {
        plan64
            .infer_into(black_box(&x1), &mut out1)
            .expect("f64 plan forward");
        black_box(&out1);
    });
    let single_sample = SingleSampleSection {
        reps,
        graph_p50_us: percentile(&graph_t, 50.0),
        graph_p99_us: percentile(&graph_t, 99.0),
        plan_f64_p50_us: percentile(&f64_t, 50.0),
        plan_f64_p99_us: percentile(&f64_t, 99.0),
        speedup_f64_vs_graph: percentile(&graph_t, 50.0) / percentile(&f64_t, 50.0),
    };
    eprintln!(
        "  graph p50 {:.2} µs   plan f64 p50 {:.2} µs   ({:.1}x)",
        single_sample.graph_p50_us,
        single_sample.plan_f64_p50_us,
        single_sample.speedup_f64_vs_graph
    );

    // Batched throughput: 128 rows cycled out of the held-out split.
    let batch = 128;
    let breps = if quick { 20 } else { 100 };
    let xb = Matrix::from_fn(batch, test.features.cols(), |i, j| {
        test.features[(i % test.features.rows(), j)]
    });
    let mut outb = Matrix::zeros(batch, ds.num_classes);
    eprintln!("batched throughput at batch {batch} ...");
    let per_s = |ms: f64| batch as f64 / (ms * 1e-3);
    let batched = BatchedSection {
        batch,
        graph_inferences_per_s: per_s(time_best(breps, || {
            black_box(pnn.infer(black_box(&xb), None).expect("graph forward"));
        })),
        plan_f64_inferences_per_s: per_s(time_best(breps, || {
            plan64
                .infer_into(black_box(&xb), &mut outb)
                .expect("f64 plan forward");
            black_box(&outb);
        })),
    };
    eprintln!(
        "  graph {:.0}/s   f64 {:.0}/s",
        batched.graph_inferences_per_s, batched.plan_f64_inferences_per_s
    );

    let report = Report {
        machine_threads: physical_cores(),
        network: NetworkInfo {
            dataset: ds.name.clone(),
            in_dim: plan64.in_dim(),
            out_dim: plan64.out_dim(),
            layers: plan64.num_layers(),
            train_epochs,
        },
        single_sample,
        batched,
        bit_identical_f64,
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_infer.json");
    std::fs::write(&out, serde_json::to_string_pretty(&report)?)?;
    eprintln!("\nreport saved to {}", out.display());

    // End-of-run metrics summary next to the timing report: the `infer.*`
    // counters behind the numbers above (see docs/METRICS.md).
    let metrics_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_infer_metrics.json");
    pnc_obs::write_summary(&metrics_out)?;
    eprintln!("metrics summary saved to {}", metrics_out.display());

    println!(
        "single-sample f64 plan speedup vs graph: {:.2}x (bit-identical: {})",
        report.single_sample.speedup_f64_vs_graph, report.bit_identical_f64
    );
    Ok(())
}
