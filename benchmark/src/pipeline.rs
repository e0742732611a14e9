//! `pipeline`: the paper's flow, cold, at a fixed small budget —
//! characterize design points through `StreamBuilder`, train the 13-layer
//! surrogate on them, train the full method (learnable circuits,
//! variation-aware at ε = 10 %) and the baseline (fixed circuits, nominal)
//! on Cardiotocography and Seeds, evaluate both under Monte-Carlo
//! variation, and compile the full-method networks for inference.
//!
//! Autodiff training dominates; SPICE is a small share. The two datasets
//! train on batches 10× apart (≈1,276 and 126 rows), which separates
//! per-op overhead from matmul cost.

use crate::counters::{ratio, Window};
use crate::trace::Recorder;
use crate::{labeled, stats, Outcome, RunArgs, THREADS};
use pnc_autodiff::{GradStore, Graph};
use pnc_core::{
    mc_evaluate_with, CompiledPnn, McStats, NoiseSample, PlanPrecision, Pnn, PnnConfig,
    TrainConfig, Trainer, VariationModel,
};
use pnc_datasets::generators::{cardiotocography, seeds};
use pnc_datasets::Dataset;
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_surrogate::{load_circuit_dataset, train_surrogate, StreamBuilder, StreamConfig};
use serde::Value;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const POINTS: usize = 512;
const CHUNK_POINTS: usize = 256;
const SWEEP_POINTS: usize = 61;
const SURROGATE_EPOCHS: usize = 300;
const PNN_EPOCHS: usize = 100;
const EPSILON: f64 = 0.10;
const N_TRAIN: usize = 5;
const N_VAL: usize = 3;
const N_TEST: usize = 100;
const SETUP_REPEATS: usize = 9;
/// Fewest flows an untraced run measures.
const MIN_FLOWS: usize = 3;
const PROBE_REPEATS: usize = 20;
const STAGES: [&str; 5] = [
    "pipeline.characterize",
    "pipeline.surrogate_train",
    "pipeline.pnn_train",
    "pipeline.eval",
    "pipeline.compile",
];

struct Task {
    key: &'static str,
    train: Dataset,
    val: Dataset,
    test: Dataset,
}

fn setup(seed: u64) -> Vec<Task> {
    [("cardiotocography", cardiotocography()), ("seeds", seeds())]
        .into_iter()
        .map(|(key, ds)| {
            let (train, val, test) = ds.split(seed);
            Task {
                key,
                train,
                val,
                test,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Method {
    /// Learnable circuits, variation-aware training.
    Full,
    /// Fixed circuits, nominal training.
    Baseline,
}

impl Method {
    fn train_config(self, seed: u64) -> TrainConfig {
        let (variation, n_train_mc, n_val_mc) = match self {
            Method::Full => (VariationModel::Uniform { epsilon: EPSILON }, N_TRAIN, N_VAL),
            Method::Baseline => (VariationModel::None, 1, 1),
        };
        TrainConfig {
            variation,
            n_train_mc,
            n_val_mc,
            max_epochs: PNN_EPOCHS,
            patience: PNN_EPOCHS,
            seed,
            parallel: ParallelConfig::with_threads(THREADS),
            ..TrainConfig::default()
        }
    }

    fn train(
        self,
        task: &Task,
        surrogate: &Arc<pnc_surrogate::SurrogateModel>,
        seed: u64,
    ) -> Result<Pnn, String> {
        let mut config = PnnConfig::for_dataset(task.train.num_features(), task.train.num_classes)
            .with_seed(seed);
        if self == Method::Baseline {
            config = config.with_fixed_nonlinearity();
        }
        let mut pnn = Pnn::new(config, Arc::clone(surrogate)).map_err(|e| e.to_string())?;
        Trainer::new(self.train_config(seed))
            .train(&mut pnn, labeled(&task.train)?, labeled(&task.val)?)
            .map_err(|e| e.to_string())?;
        Ok(pnn)
    }
}

/// What the flow produced that a user of it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quality {
    /// Full-method Monte-Carlo mean accuracy at ε = 10 %, averaged over
    /// the datasets.
    acc: f64,
    /// Its Monte-Carlo standard deviation, averaged likewise.
    std: f64,
    /// Full-method minus baseline mean accuracy.
    gain: f64,
    surrogate_r2: f64,
}

struct Flow {
    seconds: f64,
    traced: bool,
    quality: Quality,
    /// `[full, baseline]` per task.
    nets: Vec<[Pnn; 2]>,
    plans: Vec<CompiledPnn>,
    surrogate_epochs: usize,
}

fn flow(tasks: &[Task], seed: u64, path: &Path, rec: &mut Recorder) -> Result<Flow, String> {
    let start = Instant::now();
    rec.span("pipeline.flow", |rec| {
        let data = rec.span("pipeline.characterize", |_| {
            let config = StreamConfig {
                chunk_points: CHUNK_POINTS,
                parallel: ParallelConfig::with_threads(THREADS),
                ..StreamConfig::new(POINTS, SWEEP_POINTS)
            };
            let mut builder = StreamBuilder::create(path, &config).map_err(|e| e.to_string())?;
            builder.run_to_completion().map_err(|e| e.to_string())?;
            load_circuit_dataset(builder.store()).map_err(|e| e.to_string())
        })?;
        let (surrogate, report) = rec.span("pipeline.surrogate_train", |_| {
            train_surrogate(
                &data,
                &pnc_surrogate::TrainConfig {
                    max_epochs: SURROGATE_EPOCHS,
                    patience: SURROGATE_EPOCHS,
                    seed,
                    ..pnc_surrogate::TrainConfig::default()
                },
            )
            .map_err(|e| e.to_string())
        })?;
        let surrogate = Arc::new(surrogate);
        let nets = rec.span("pipeline.pnn_train", |_| {
            tasks
                .iter()
                .map(|task| {
                    Ok([
                        Method::Full.train(task, &surrogate, seed)?,
                        Method::Baseline.train(task, &surrogate, seed)?,
                    ])
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mc: Vec<[McStats; 2]> = rec.span("pipeline.eval", |_| {
            let evaluate = |pnn: &Pnn, task: &Task| {
                mc_evaluate_with(
                    pnn,
                    labeled(&task.test)?,
                    &VariationModel::Uniform { epsilon: EPSILON },
                    N_TEST,
                    seed,
                    ParallelConfig::with_threads(THREADS),
                )
                .map_err(|e| e.to_string())
            };
            nets.iter()
                .zip(tasks)
                .map(|([full, base], task)| Ok([evaluate(full, task)?, evaluate(base, task)?]))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let plans = rec.span("pipeline.compile", |_| {
            nets.iter()
                .map(|[full, _]| CompiledPnn::compile(full, PlanPrecision::F64))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())
        })?;
        let mean =
            |f: &dyn Fn(&[McStats; 2]) -> f64| mc.iter().map(f).sum::<f64>() / mc.len() as f64;
        let acc = mean(&|[full, _]| full.mean);
        Ok(Flow {
            seconds: start.elapsed().as_secs_f64(),
            traced: false,
            quality: Quality {
                acc,
                std: mean(&|[full, _]| full.std),
                gain: acc - mean(&|[_, base]| base.mean),
                surrogate_r2: report.test_r2,
            },
            nets,
            plans,
            surrogate_epochs: report.epochs_run,
        })
    })
}

/// Runs flows until `seconds` have passed and at least [`MIN_FLOWS`] ran.
/// Given a recorder, every second flow runs traced (at least two of each),
/// so traced and untraced flows see the same machine and their difference
/// is the tracing cost.
fn flows_for(
    tasks: &[Task],
    seed: u64,
    path: &Path,
    seconds: f64,
    mut trace: Option<&mut Recorder>,
) -> Result<(Vec<Flow>, f64), String> {
    let mut off = Recorder::disabled();
    let min = if trace.is_some() { 4 } else { MIN_FLOWS };
    let start = Instant::now();
    let mut flows = Vec::new();
    while flows.len() < min || start.elapsed().as_secs_f64() < seconds {
        let traced = flows.len() % 2 == 1 && trace.is_some();
        let rec = match trace.as_deref_mut() {
            Some(rec) if traced => rec,
            _ => &mut off,
        };
        let done = flow(tasks, seed, path, rec)?;
        flows.push(Flow { traced, ..done });
    }
    Ok((flows, start.elapsed().as_secs_f64()))
}

/// The compiled plans answer exactly as the networks they came from, every
/// flow of a run yields the same numbers, and every number is finite.
fn verify(tasks: &[Task], flows: &[Flow], outcome: &mut Outcome) {
    outcome.attempted += flows.len() as u64;
    for flow in flows {
        for ((task, [full, _]), plan) in tasks.iter().zip(&flow.nets).zip(&flow.plans) {
            let want = full.infer(&task.test.features, None);
            let got = plan.clone().infer(&task.test.features);
            let same = match (want, got) {
                (Ok(w), Ok(g)) => w
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(g.as_slice().iter().map(|v| v.to_bits())),
                _ => false,
            };
            outcome.check(same, || {
                format!(
                    "compiled {} plan differs from Pnn::infer on the test rows",
                    task.key
                )
            });
        }
        let q = flow.quality;
        outcome.check(
            [q.acc, q.std, q.gain, q.surrogate_r2]
                .iter()
                .all(|v| v.is_finite()),
            || format!("non-finite quality {q:?}"),
        );
        outcome.check(q == flows[0].quality, || {
            format!("flows of one run disagree: {q:?} vs {:?}", flows[0].quality)
        });
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let path = args.scratch_file("pipeline")?;
    let result = run_at(args, &path);
    let _ = std::fs::remove_file(&path);
    result
}

fn run_at(args: &RunArgs, path: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut tasks = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        tasks = setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut rec = Recorder::new();
    let window = Window::open();
    let (flows, elapsed) = flows_for(
        &tasks,
        args.seed,
        path,
        args.seconds,
        args.trace.then_some(&mut rec),
    )?;
    let delta = window.close();
    let peak_rss_mb = crate::peak_rss_mb()?;
    verify(&tasks, &flows, &mut outcome);
    let flow_ms: Vec<f64> = flows
        .iter()
        .filter(|f| !f.traced)
        .map(|f| f.seconds * 1e3)
        .collect();
    let quality = flows[0].quality;

    if !args.trace {
        outcome.set("throughput", flows.len() as f64 / elapsed, flows.len());
        outcome.set("latency_p50_ms", stats::median(&flow_ms), flow_ms.len());
        outcome.detail.push((
            "flow_ms",
            Value::Array(flow_ms.iter().map(|&ms| Value::F64(ms)).collect()),
        ));
        crate::report_setup(&mut outcome, &setup_s);
        outcome.set("peak_rss_mb", peak_rss_mb, 1);
        outcome.detail.push((
            "quality",
            crate::object(vec![
                ("acc_va_10", Value::F64(quality.acc)),
                ("std_va_10", Value::F64(quality.std)),
                ("acc_gain_10", Value::F64(quality.gain)),
                ("surrogate_r2", Value::F64(quality.surrogate_r2)),
            ]),
        ));
        return Ok(outcome);
    }

    // Every flow does the same work, so counts per flow are exact.
    let per_flow = |name: &str| delta.counter(name) / flows.len() as f64;
    let flow_s = rec.durations("pipeline.flow");
    let stage_s: Vec<Vec<f64>> = STAGES.iter().map(|s| rec.durations(s)).collect();
    let unattributed_s: Vec<f64> = flow_s
        .iter()
        .enumerate()
        .map(|(i, total)| total - stage_s.iter().map(|s| s[i]).sum::<f64>())
        .collect();
    let n = flow_s.len();
    for (name, durations) in [
        "pipeline.characterize_s",
        "pipeline.surrogate_train_s",
        "pipeline.pnn_train_s",
        "pipeline.eval_s",
        "pipeline.compile_s",
    ]
    .into_iter()
    .zip(&stage_s)
    {
        outcome.set(name, stats::median(durations), n);
    }
    outcome.set("pipeline.unattributed_s", stats::median(&unattributed_s), n);
    outcome.set("pipeline.acc_va_10", quality.acc, N_TEST * tasks.len());
    outcome.set("pipeline.std_va_10", quality.std, N_TEST * tasks.len());
    outcome.set("pipeline.acc_gain_10", quality.gain, N_TEST * tasks.len());
    outcome.set("pipeline.surrogate_r2", quality.surrogate_r2, 1);
    let surrogate_s = stats::median(&stage_s[1]);
    outcome.set(
        "surrogate.epoch_ms",
        ratio(surrogate_s, flows[0].surrogate_epochs as f64) * 1e3,
        flows[0].surrogate_epochs,
    );
    let train_s = stats::median(&stage_s[2]);
    outcome.set("core.epochs", per_flow("core.train.epochs"), n);
    outcome.set(
        "core.ms_per_mc_draw",
        ratio(train_s, per_flow("core.train.mc_draws")) * 1e3,
        per_flow("core.train.mc_draws") as usize,
    );

    // Autodiff probe on the trained networks at the real batches: each
    // epoch runs its training draws forward and backward on the train rows
    // and its validation draws forward on the validation rows. The trainer
    // spreads a step's draws over THREADS threads, so the critical path of
    // an epoch is ceil(draws / THREADS) passes.
    let last = flows.last().expect("MIN_FLOWS > 0");
    let rounds = |draws: usize| draws.div_ceil(THREADS) as f64;
    let mut attributed_s = 0.0;
    for (task, [full, base]) in tasks.iter().zip(&last.nets) {
        let identity = NoiseSample::identity(&full.theta_shapes(), full.num_circuits());
        let (f, b) = probe_autodiff(full, &task.train, Some(&identity))?;
        let (fv, _) = probe_autodiff(full, &task.val, Some(&identity))?;
        let (bf, bb) = probe_autodiff(base, &task.train, None)?;
        let (bfv, _) = probe_autodiff(base, &task.val, None)?;
        attributed_s +=
            PNN_EPOCHS as f64 * (rounds(N_TRAIN) * (f + b) + rounds(N_VAL) * fv + (bf + bb) + bfv);
        let (fwd, bwd) = match task.key {
            "cardiotocography" => (
                "autodiff.forward_us.cardiotocography",
                "autodiff.backward_us.cardiotocography",
            ),
            _ => ("autodiff.forward_us.seeds", "autodiff.backward_us.seeds"),
        };
        outcome.set(fwd, f * 1e6, PROBE_REPEATS);
        outcome.set(bwd, b * 1e6, PROBE_REPEATS);
    }
    outcome.set(
        "core.train_attributed_frac",
        ratio(attributed_s, train_s),
        n,
    );
    let (plan_us, calls) = probe_plan(&last.plans[0], &tasks[0].test.features)?;
    outcome.set("core.plan_infer_us", plan_us, calls);

    let own = rec.self_time_by_name();
    let unattributed = own.get("pipeline.flow").copied().unwrap_or(0.0);
    let total = rec.total("pipeline.flow");
    outcome.set("ledger.unattributed_frac", ratio(unattributed, total), n);
    outcome.set(
        "trace_overhead_frac",
        stats::median(&flow_s) / stats::median(&flow_ms) * 1e3 - 1.0,
        flows.len(),
    );
    crate::check_ledger(&mut outcome, &own, unattributed, total);
    outcome.detail.push(("spans", rec.to_json()));
    Ok(outcome)
}

/// Median seconds of one forward + loss, and of one backward, on `ds`'s
/// whole training batch.
fn probe_autodiff(
    pnn: &Pnn,
    ds: &Dataset,
    noise: Option<&NoiseSample>,
) -> Result<(f64, f64), String> {
    let loss_kind = TrainConfig::default().loss;
    let mut graph = Graph::new();
    let mut grads = GradStore::new();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPEATS {
        graph.reset();
        let t0 = Instant::now();
        let (scores, _) = pnn
            .forward(&mut graph, &ds.features, noise)
            .map_err(|e| e.to_string())?;
        let loss = pnn
            .loss(&mut graph, scores, &ds.labels, loss_kind)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        graph
            .backward_into(loss, &mut grads)
            .map_err(|e| e.to_string())?;
        bwd.push(t1.elapsed().as_secs_f64());
        fwd.push((t1 - t0).as_secs_f64());
    }
    Ok((stats::median(&fwd), stats::median(&bwd)))
}

/// Median microseconds of a single-sample plan call over `rows`.
pub fn probe_plan(plan: &CompiledPnn, rows: &Matrix) -> Result<(f64, usize), String> {
    const CALLS: usize = 2000;
    let mut plan = plan.clone();
    let singles: Vec<Matrix> = (0..rows.rows())
        .map(|i| Matrix::from_fn(1, rows.cols(), |_, j| rows[(i, j)]))
        .collect();
    let mut us = Vec::with_capacity(CALLS);
    for i in 0..CALLS {
        let t = Instant::now();
        let out = plan
            .infer(&singles[i % singles.len()])
            .map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    Ok((stats::median(&us), CALLS))
}
