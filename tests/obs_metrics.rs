//! Integration tests for the observability layer: a miniature fig4-style
//! pipeline (SPICE characterization → ptanh extraction → dataset build) must
//! produce a metrics summary containing the keys documented in
//! `docs/METRICS.md`, with counters bit-identical across 1, 2, and 8 worker
//! threads.
//!
//! The metric registry is process-global, so the tests in this binary
//! serialize through one mutex and `reset()` before each measured run.

use printed_neuromorphic::datasets::generators::iris;
use printed_neuromorphic::fit::fit_ptanh;
use printed_neuromorphic::linalg::ParallelConfig;
use printed_neuromorphic::obs;
use printed_neuromorphic::pnn::{LabeledData, Pnn, PnnConfig, TrainConfig, TrainReport, Trainer};
use printed_neuromorphic::spice::circuits::{
    characteristic_curve, NonlinearCircuitParams, PtanhCircuit, VDD,
};
use printed_neuromorphic::spice::sweep::linspace;
use printed_neuromorphic::spice::{DcSolver, FaultInjection};
use printed_neuromorphic::surrogate::{
    build_dataset, DatasetConfig, DesignSpace, StreamBuilder, StreamConfig, SurrogateModel,
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("unpoisoned")
}

/// The counters the fig4 metrics summary documents in `docs/METRICS.md` and
/// which any SPICE-and-fit trajectory must populate.
const DOCUMENTED_COUNTERS: &[&str] = &[
    "spice.solve.total",
    "spice.solve.failures",
    "spice.newton.iterations",
    "spice.newton.attempts",
    "spice.recovery.plain",
    "fit.lm.runs",
    "fit.lm.iterations",
    "fit.lm.lambda_escalations",
    "fit.ptanh.fits",
    "surrogate.dataset.points",
    "surrogate.dataset.entries",
    "surrogate.dataset.unconverged_fits",
];

const DOCUMENTED_HISTOGRAMS: &[&str] = &[
    "spice.newton.residual",
    "fit.lm.final_cost",
    "fit.ptanh.rmse",
    "surrogate.dataset.fit_rmse",
    "surrogate.dataset.chunk_seconds",
];

/// The training counters `docs/METRICS.md` documents, which every
/// `Trainer::train` run registers.
const DOCUMENTED_TRAIN_COUNTERS: &[&str] = &[
    "core.train.runs",
    "core.train.epochs",
    "core.train.mc_draws",
    "core.train.early_stops",
    "core.train.no_progress_runs",
    "core.train.late_best_runs",
];

/// A miniature fig4 trajectory: one characteristic curve + fit, then a tiny
/// dataset build, all at the given thread count.
fn run_pipeline(threads: usize) -> obs::MetricsSnapshot {
    obs::reset();
    let curve = characteristic_curve(&NonlinearCircuitParams::nominal(), 31).expect("simulates");
    fit_ptanh(&curve).expect("fits");
    let config = DatasetConfig {
        parallel: ParallelConfig::with_threads(threads),
        max_failure_fraction: 0.5,
        ..DatasetConfig::new(16, 21)
    };
    build_dataset(&config, None).expect("builds");
    obs::snapshot()
}

#[test]
fn fig4_style_summary_contains_documented_keys() {
    let _guard = test_lock();
    let snap = run_pipeline(2);
    for name in DOCUMENTED_COUNTERS {
        assert!(
            snap.counter(name).is_some(),
            "documented counter {name} missing from summary"
        );
    }
    for name in DOCUMENTED_HISTOGRAMS {
        assert!(
            snap.histogram(name).is_some(),
            "documented histogram {name} missing from summary"
        );
    }
    // Sanity on contents: work actually happened and was tallied.
    assert!(snap.counter("spice.solve.total").unwrap() > 0);
    assert!(snap.counter("fit.lm.runs").unwrap() > 0);
    assert_eq!(snap.counter("surrogate.dataset.points"), Some(16));
    assert!(snap.histogram("spice.newton.residual").unwrap().count > 0);

    // The JSON serialization carries the same keys.
    let json = snap.to_json();
    for name in DOCUMENTED_COUNTERS.iter().chain(DOCUMENTED_HISTOGRAMS) {
        assert!(json.contains(name), "{name} missing from JSON summary");
    }
    obs::reset();
}

#[test]
fn pipeline_counters_are_bit_identical_across_thread_counts() {
    let _guard = test_lock();
    let reference = run_pipeline(1);
    for threads in [2, 8] {
        let snap = run_pipeline(threads);
        assert_eq!(
            snap.counters, reference.counters,
            "counters diverged at {threads} threads"
        );
        // Numeric histograms (residuals, costs, rmse) are deterministic too;
        // only wall-clock duration histograms are exempt, so compare the
        // rest field by field.
        for (a, b) in snap.histograms.iter().zip(&reference.histograms) {
            assert_eq!(a.name, b.name);
            if a.name.ends_with("_seconds") {
                assert_eq!(a.count, b.count, "{}: count must still match", a.name);
            } else {
                assert_eq!(a, b, "{} diverged at {threads} threads", a.name);
            }
        }
    }
    obs::reset();
}

/// A streamed build feeds the same metric family as an in-memory one: the
/// per-stage failure counters and the fit-RMSE histogram included.
#[test]
fn streamed_build_counts_failures_by_stage_and_fit_rmse() {
    const BAD: &[usize] = &[2, 9, 13];
    let _guard = test_lock();
    let factory = |index: usize| {
        let mut solver = DcSolver::new();
        if BAD.contains(&index) {
            solver.fault_injection = Some(FaultInjection::unrecoverable_at(vec![0.5]));
        }
        solver
    };
    let config = StreamConfig {
        chunk_points: 7,
        max_failure_fraction: 0.2,
        parallel: ParallelConfig::with_threads(2),
        ..StreamConfig::new(20, 21)
    };
    let path = std::env::temp_dir().join(format!("pnc_obs_stream_{}.pncds", std::process::id()));
    obs::reset();
    let report = StreamBuilder::create(&path, &config)
        .expect("creates")
        .with_solver_factory(&factory)
        .run_to_completion()
        .expect("builds");
    let snap = obs::snapshot();
    std::fs::remove_file(&path).ok();
    assert_eq!(report.failures, BAD.len());
    assert_eq!(
        snap.counter("surrogate.dataset.failures.sweep"),
        Some(BAD.len() as u64)
    );
    assert_eq!(
        snap.histogram("surrogate.dataset.fit_rmse")
            .map(|h| h.count),
        Some(report.entries as u64)
    );
    obs::reset();
}

/// `surrogate.dataset.unconverged_fits` equals a recount of the kept fits
/// that report no convergence, made by fitting the same design points'
/// sweeps directly. On 11-point sweeps no start of point 289 converges, so
/// the first 290 points keep one unconverged fit and the recount is non-zero.
#[test]
fn unconverged_fits_counter_matches_a_recount() {
    const POINTS: usize = 290;
    const SWEEP: usize = 11;
    let _guard = test_lock();
    let config = DatasetConfig {
        parallel: ParallelConfig::with_threads(2),
        ..DatasetConfig::new(POINTS, SWEEP)
    };
    obs::reset();
    let data = build_dataset(&config, None).expect("builds");
    let counted = obs::snapshot().counter("surrogate.dataset.unconverged_fits");
    assert!(data.failures.is_empty(), "{:?}", data.failures);

    let grid = linspace(0.0, VDD, SWEEP);
    let recount = DesignSpace::paper()
        .sample(POINTS)
        .expect("samples")
        .into_iter()
        .filter(|omega| {
            let curve = PtanhCircuit::build(&NonlinearCircuitParams::from_array(*omega))
                .and_then(|mut circuit| circuit.transfer_curve(&grid))
                .expect("simulates");
            !fit_ptanh(&curve).expect("fits").converged
        })
        .count() as u64;
    assert!(recount > 0, "the fixed build keeps an unconverged fit");
    assert_eq!(counted, Some(recount));
    obs::reset();
}

#[test]
fn write_summary_produces_parseable_json_file() {
    let _guard = test_lock();
    obs::reset();
    let curve = characteristic_curve(&NonlinearCircuitParams::nominal(), 21).expect("simulates");
    fit_ptanh(&curve).expect("fits");
    let dir = std::env::temp_dir().join("pnc-obs-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("summary.json");
    obs::write_summary(&path).expect("writes");
    let text = std::fs::read_to_string(&path).expect("readable");
    let value: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    drop(value);
    assert!(text.contains("spice.solve.total"));
    std::fs::remove_file(&path).ok();
    obs::reset();
}

/// Trains an Iris pNN against the committed quick surrogate from a reset
/// registry and returns the report with the two training-defect counters.
fn train_iris(config: TrainConfig) -> (TrainReport, u64, u64) {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/surrogate-quick.json");
    let surrogate = Arc::new(SurrogateModel::load(&path).expect("committed quick surrogate"));
    let data = iris();
    let (train, val, _) = data.split(1);
    let mut pnn = Pnn::new(
        PnnConfig::for_dataset(data.num_features(), data.num_classes).with_seed(2),
        surrogate,
    )
    .expect("valid config");
    obs::reset();
    let report = Trainer::new(config)
        .train(
            &mut pnn,
            LabeledData::new(&train.features, &train.labels).expect("train data"),
            LabeledData::new(&val.features, &val.labels).expect("val data"),
        )
        .expect("trains");
    let snap = obs::snapshot();
    for name in DOCUMENTED_TRAIN_COUNTERS {
        assert!(
            snap.counter(name).is_some(),
            "documented counter {name} missing from summary"
        );
    }
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    (
        report,
        count("core.train.no_progress_runs"),
        count("core.train.late_best_runs"),
    )
}

/// Each training-defect counter rises by exactly one for one run of its
/// kind and stays put for a run of the other kind.
#[test]
fn training_defect_counters_count_one_run_each() {
    let _guard = test_lock();
    let budget = TrainConfig {
        n_train_mc: 1,
        n_val_mc: 1,
        max_epochs: 6,
        patience: 6,
        parallel: ParallelConfig::serial(),
        ..TrainConfig::default()
    };

    // Zero learning rates: no epoch can beat epoch 0's validation loss.
    let (report, no_progress, late_best) = train_iris(TrainConfig {
        lr_theta: 0.0,
        lr_omega: 0.0,
        ..budget
    });
    assert_eq!(report.best_epoch, 0);
    assert_eq!((no_progress, late_best), (1, 0));

    // The default rates still improve at the last of 6 epochs.
    let (report, no_progress, late_best) = train_iris(budget);
    assert_eq!(report.best_epoch, 5, "{:?}", report.val_losses);
    assert_eq!((no_progress, late_best), (0, 1));
    obs::reset();
}
