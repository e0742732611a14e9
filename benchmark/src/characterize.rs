//! `characterize`: the surrogate's data flow at scale. A uniform
//! `StreamBuilder` build over the paper's design space, 61-point DC sweeps,
//! committed chunk by chunk to an on-disk store. SPICE (Newton/LU) and the
//! ptanh LM fit do almost all of the work; autodiff and serving do none.
//!
//! The uniform Sobol' stream is seed-free by design, so every run
//! characterizes the same points; the seed is only recorded.

use crate::counters::{ratio, Window};
use crate::trace::Recorder;
use crate::{stats, Outcome, RunArgs, THREADS};
use pnc_fit::{fit_ptanh, PtanhFit};
use pnc_linalg::ParallelConfig;
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, VDD};
use pnc_spice::sweep::linspace;
use pnc_surrogate::{
    load_circuit_dataset, DatasetStore, DesignSpace, StreamBuilder, StreamConfig, OMEGA_DIM,
};
use serde::Value;
use std::path::Path;
use std::time::Instant;

const SWEEP_POINTS: usize = 61;
/// Never reached: a run stops on time, not on completion.
const TOTAL_POINTS: usize = 1 << 24;
const SETUP_REPEATS: usize = 9;
/// `StreamBuilder`'s own abort threshold on failed points.
const MAX_FAILURE_SHARE: f64 = 0.05;
/// The traced run's decomposition: rounds of one streamed chunk of
/// `ROUND_POINTS` points, then the same points composed call by call.
const ROUNDS: usize = 4;
const ROUND_POINTS: usize = 256;

/// `StreamBuilder`'s defaults (1,024-point chunks, uniform Sobol' sampling, 5 %
/// failure threshold) with the thread count pinned.
fn config() -> StreamConfig {
    StreamConfig {
        parallel: ParallelConfig::with_threads(THREADS),
        ..StreamConfig::new(TOTAL_POINTS, SWEEP_POINTS)
    }
}

struct Streamed {
    points: usize,
    failures: usize,
    /// Commit time of every chunk, and whether it ran traced.
    chunk_s: Vec<(f64, bool)>,
    seconds: f64,
}

impl Streamed {
    fn chunk_s(&self, traced: bool) -> Vec<f64> {
        self.chunk_s
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(s, _)| *s)
            .collect()
    }
}

/// Commits chunks until `seconds` have passed. Given a recorder, every
/// second chunk runs traced, so traced and untraced chunks see the same
/// machine and the difference is the tracing cost.
fn stream_for(
    builder: &mut StreamBuilder<'_>,
    seconds: f64,
    mut trace: Option<&mut Recorder>,
) -> Result<Streamed, String> {
    let mut off = Recorder::disabled();
    let start = Instant::now();
    let mut run = Streamed {
        points: 0,
        failures: 0,
        chunk_s: Vec::new(),
        seconds: 0.0,
    };
    while start.elapsed().as_secs_f64() < seconds {
        let traced = run.chunk_s.len() % 2 == 1 && trace.is_some();
        let rec = match trace.as_deref_mut() {
            Some(rec) if traced => rec,
            _ => &mut off,
        };
        let t = Instant::now();
        let chunk = rec
            .span("surrogate.next_chunk", |_| builder.next_chunk())
            .map_err(|e| e.to_string())?
            .ok_or("the build completed before the run ended")?;
        run.chunk_s.push((t.elapsed().as_secs_f64(), traced));
        run.points += chunk.points;
        run.failures += chunk.failures;
    }
    run.seconds = start.elapsed().as_secs_f64();
    Ok(run)
}

/// The failure share stays under `StreamBuilder`'s threshold, and the store
/// reloads with every attempted point accounted for.
fn verify(path: &Path, run: &Streamed, outcome: &mut Outcome) {
    outcome.attempted += run.points as u64;
    outcome.failed += run.failures as u64;
    outcome.check(
        run.failures as f64 <= MAX_FAILURE_SHARE * run.points as f64,
        || format!("{} of {} points failed", run.failures, run.points),
    );
    let reloaded = DatasetStore::open_readonly(path)
        .map_err(|e| e.to_string())
        .and_then(|store| load_circuit_dataset(&store).map_err(|e| e.to_string()));
    match reloaded {
        Ok(data) => outcome.check(
            data.entries.len() + data.failures.len() == run.points
                && data.failures.len() == run.failures,
            || {
                format!(
                    "store reloads {} entries + {} failures for {} points ({} failed)",
                    data.entries.len(),
                    data.failures.len(),
                    run.points,
                    run.failures
                )
            },
        ),
        Err(e) => outcome.problems.push(format!("store does not reload: {e}")),
    }
}

/// The three public calls `characterize_point` makes for one design point,
/// each in its own span.
fn compose(rec: &mut Recorder, omega: &[f64; OMEGA_DIM], grid: &[f64]) -> Option<PtanhFit> {
    rec.span("composed.point", |r| {
        let params = NonlinearCircuitParams::from_array(*omega);
        let mut circuit = r
            .span("spice.build", |_| PtanhCircuit::build(&params))
            .ok()?;
        let curve = r
            .span("spice.sweep", |_| circuit.transfer_curve(grid))
            .ok()?;
        r.span("fit.ptanh", |_| fit_ptanh(&curve)).ok()
    })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let path = args.scratch_file("characterize")?;
    let result = run_at(args, &path);
    let _ = std::fs::remove_file(&path);
    result
}

fn run_at(args: &RunArgs, path: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut builder = None;
    for _ in 0..SETUP_REPEATS {
        drop(builder.take());
        let t = Instant::now();
        builder = Some(StreamBuilder::create(path, &config()).map_err(|e| e.to_string())?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut builder = builder.expect("SETUP_REPEATS > 0");

    if !args.trace {
        let plain = stream_for(&mut builder, args.seconds, None)?;
        drop(builder);
        // Read before verification, which loads the whole store into memory.
        let peak_rss_mb = crate::peak_rss_mb()?;
        verify(path, &plain, &mut outcome);
        let chunk_ms: Vec<f64> = plain.chunk_s(false).iter().map(|s| s * 1e3).collect();
        outcome.set(
            "throughput",
            plain.points as f64 / plain.seconds,
            chunk_ms.len(),
        );
        outcome.set("latency_p50_ms", stats::median(&chunk_ms), chunk_ms.len());
        crate::report_setup(&mut outcome, &setup_s);
        outcome.set("peak_rss_mb", peak_rss_mb, 1);
        outcome
            .detail
            .push(("chunk_ms", crate::quantile_detail(&chunk_ms)));
        outcome.detail.push((
            "settings",
            crate::object(vec![
                ("chunk_points", Value::U64(config().chunk_points as u64)),
                ("sweep_points", Value::U64(SWEEP_POINTS as u64)),
            ]),
        ));
        return Ok(outcome);
    }

    let mut rec = Recorder::new();
    let streamed = stream_for(&mut builder, args.seconds, Some(&mut rec))?;
    drop(builder);
    verify(path, &streamed, &mut outcome);
    let (plain_s, traced_s) = (streamed.chunk_s(false), streamed.chunk_s(true));
    if traced_s.is_empty() {
        return Err("too few chunks to trace; raise --seconds".into());
    }

    // Pair a streamed chunk with the same points composed call by call,
    // round after round, so each difference is taken on one machine state.
    // Both halves of a round make the same calls on the same points, so
    // the counter deltas over the rounds are twice the composed work.
    let omegas = DesignSpace::paper()
        .sample(ROUND_POINTS)
        .map_err(|e| e.to_string())?;
    let grid = linspace(0.0, VDD, SWEEP_POINTS);
    let round_config = StreamConfig {
        chunk_points: ROUND_POINTS,
        total_points: ROUND_POINTS,
        ..config()
    };
    let window = Window::open();
    let mut overhead_us = Vec::with_capacity(ROUNDS);
    let mut mirrors = true;
    for _ in 0..ROUNDS {
        rec.span("characterize.round", |r| -> Result<(), String> {
            let mut builder =
                StreamBuilder::create(path, &round_config).map_err(|e| e.to_string())?;
            let t = Instant::now();
            r.span("surrogate.next_chunk", |_| builder.next_chunk())
                .map_err(|e| e.to_string())?;
            let chunk_s = t.elapsed().as_secs_f64() * THREADS as f64;
            let t = Instant::now();
            let fits: Vec<PtanhFit> = omegas
                .iter()
                .filter_map(|omega| compose(r, omega, &grid))
                .collect();
            let composed_s = t.elapsed().as_secs_f64();
            overhead_us.push((chunk_s - composed_s) / ROUND_POINTS as f64 * 1e6);
            // The composition mirrors `StreamBuilder`'s per-point kernel; if the
            // two drift apart the per-layer split no longer describes it.
            let entries = builder.store().load_all().map_err(|e| e.to_string())?.0;
            mirrors &= entries.len() == fits.len()
                && entries
                    .iter()
                    .zip(&fits)
                    .all(|(e, f)| e.eta.map(f64::to_bits) == f.curve.eta.map(f64::to_bits));
            Ok(())
        })?;
    }
    let delta = window.close();
    if !mirrors {
        eprintln!("warning: composed per-point fits differ from the streamed entries");
    }

    let own = rec.self_time_by_name();
    let own_of = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let total = rec.root_total();
    let unattributed = own_of("characterize.round") + own_of("composed.point");
    let point_s = rec.total("composed.point");
    let n = ROUNDS * ROUND_POINTS;
    let us = |name: &str| stats::median(&rec.durations(name)) * 1e6;
    let count = |name: &str| delta.counter(name) / 2.0;
    let solves = count("spice.solve.total");
    let lm_runs = count("fit.lm.runs");
    let lm_iters = count("fit.lm.iterations");
    let recovered = count("spice.recovery.perturbed_guess")
        + count("spice.recovery.gmin_stepping")
        + count("spice.recovery.source_stepping");

    outcome.set("spice.build_us", us("spice.build"), n);
    outcome.set("spice.sweep_us", us("spice.sweep"), n);
    outcome.set("fit.ptanh_us", us("fit.ptanh"), n);
    outcome.set(
        "spice.share",
        ratio(own_of("spice.build") + own_of("spice.sweep"), point_s),
        n,
    );
    outcome.set("fit.share", ratio(own_of("fit.ptanh"), point_s), n);
    outcome.set("spice.solves_per_point", ratio(solves, n as f64), n);
    outcome.set(
        "spice.newton_iters_per_solve",
        ratio(count("spice.newton.iterations"), solves),
        solves as usize,
    );
    outcome.set(
        "spice.factorizations_per_solve",
        ratio(count("spice.newton.factorizations"), solves),
        solves as usize,
    );
    outcome.set(
        "spice.recovery_frac",
        ratio(recovered, solves),
        solves as usize,
    );
    outcome.set(
        "fit.lm_runs_per_fit",
        ratio(lm_runs, count("fit.ptanh.fits")),
        n,
    );
    outcome.set(
        "fit.lm_iters_per_run",
        ratio(lm_iters, lm_runs),
        lm_runs as usize,
    );
    outcome.set(
        "fit.lm_nonconverged_frac",
        ratio(count("fit.lm.nonconverged"), lm_runs),
        lm_runs as usize,
    );
    outcome.set(
        "fit.lambda_escalations_per_iter",
        ratio(count("fit.lm.lambda_escalations"), lm_iters),
        lm_iters as usize,
    );
    outcome.set(
        "surrogate.chunk_s",
        stats::median(&traced_s),
        traced_s.len(),
    );
    outcome.set(
        "surrogate.stream_overhead_us",
        stats::median(&overhead_us),
        ROUNDS,
    );
    outcome.set(
        "ledger.unattributed_frac",
        ratio(unattributed, total),
        rec.spans().len(),
    );
    outcome.set(
        "trace_overhead_frac",
        stats::median(&traced_s) / stats::median(&plain_s) - 1.0,
        streamed.chunk_s.len(),
    );
    crate::check_ledger(&mut outcome, &own, unattributed, total);
    outcome
        .detail
        .push(("composed_mirrors_stream", Value::Bool(mirrors)));
    outcome.detail.push(("spans", rec.to_json()));
    Ok(outcome)
}
