//! The repository's three measured performance claims, each checked against
//! its bar. Correctness bars (bit identity, exact TCP round trip, resume
//! fidelity) are `cargo test` tests; these are the claims only a timed or
//! sized run can check.
//!
//! | claim | bar |
//! |---|---|
//! | streamed-build peak RSS, 8,000 vs 800 points | ratio ≤ 1.2 |
//! | compiled f64 plan vs graph, single-sample p50 | ≥ 3× |
//! | 8-client batched vs one-at-a-time serving throughput | ≥ 1.0 |
//!
//! The sizes are fixed here; the bin takes no flags and reads no
//! environment overrides. It writes no report: it prints one `PASS`/`FAIL`
//! line per claim and exits non-zero if any claim fails. The streamed
//! builds go to scratch stores in the temp directory, deleted after use.
//!
//! ```sh
//! cargo run --release -p pnc-bench --bin claims
//! ```

use pnc_core::{
    InferencePlan, LabeledData, PlanPrecision, Pnn, PnnArtifact, PnnConfig, TrainConfig, Trainer,
    VariationModel,
};
use pnc_datasets::generators::iris;
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_serve::{ModelRegistry, ServeConfig, ServeError, Server};
use pnc_surrogate::{
    build_dataset, train_surrogate, DatasetConfig, StreamBuilder, StreamConfig,
    TrainConfig as STrain,
};
use std::error::Error;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

type Res<T> = Result<T, Box<dyn Error>>;

/// One measured claim against its bar.
struct Claim {
    name: &'static str,
    /// The measurement, already formatted with its unit.
    measured: String,
    bar: &'static str,
    pass: bool,
}

impl Claim {
    fn print(&self) {
        let verdict = if self.pass { "PASS" } else { "FAIL" };
        println!(
            "{verdict}  {}: {} (bar: {})",
            self.name, self.measured, self.bar
        );
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnc_claims_{}_{name}.pncds", std::process::id()))
}

/// Streams a build of `config` to a scratch store, deletes it, and
/// returns `VmHWM` read right after the build.
fn streamed_build_peak_rss(config: &StreamConfig, name: &str) -> Res<u64> {
    let path = scratch(name);
    let built = StreamBuilder::create(&path, config).and_then(|mut b| b.run_to_completion());
    std::fs::remove_file(&path).ok();
    built?;
    Ok(pnc_obs::record_peak_rss().ok_or("VmHWM is unreadable")?)
}

/// Flat memory: the 10×-points build grows peak RSS by at most 1.2×.
/// `VmHWM` never decreases, so this runs first in the process and the
/// small build runs before the large one.
fn stream_rss_claim() -> Res<Claim> {
    let small = StreamConfig {
        chunk_points: 256,
        ..StreamConfig::new(800, 21)
    };
    let large = StreamConfig {
        total_points: 8_000,
        ..small
    };
    let small_rss = streamed_build_peak_rss(&small, "small")?;
    let large_rss = streamed_build_peak_rss(&large, "large")?;
    let ratio = large_rss as f64 / small_rss as f64;
    Ok(Claim {
        name: "streamed build peak RSS, 8000 vs 800 points",
        measured: format!(
            "{ratio:.3} (large {:.1} MiB, small {:.1} MiB)",
            large_rss as f64 / 1048576.0,
            small_rss as f64 / 1048576.0
        ),
        bar: "<= 1.2",
        pass: ratio <= 1.2,
    })
}

/// The Iris network behind the inference and serving claims: a quick
/// fixture surrogate and two training epochs.
fn iris_fixture() -> Res<(Pnn, Matrix)> {
    let data = build_dataset(&DatasetConfig::new(60, 21), None)?;
    let surrogate_config = STrain {
        layer_sizes: vec![10, 8, 4],
        max_epochs: 60,
        patience: 100,
        ..STrain::default()
    };
    let surrogate = Arc::new(train_surrogate(&data, &surrogate_config)?.0);
    let ds = iris();
    let (train, val, test) = ds.split(7);
    let config = PnnConfig::for_dataset(ds.num_features(), ds.num_classes).with_seed(7);
    let mut pnn = Pnn::new(config, surrogate)?;
    Trainer::new(TrainConfig {
        variation: VariationModel::None,
        n_train_mc: 1,
        n_val_mc: 1,
        max_epochs: 2,
        patience: 2,
        parallel: ParallelConfig::serial(),
        ..TrainConfig::default()
    })
    .train(
        &mut pnn,
        LabeledData::new(&train.features, &train.labels)?,
        LabeledData::new(&val.features, &val.labels)?,
    )?;
    Ok((pnn, test.features))
}

/// Median per-call wall time of 300 calls of `f` in microseconds, after 31
/// warmup calls.
fn p50_us(mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    const REPS: usize = 300;
    for _ in 0..REPS / 10 + 1 {
        f()?;
    }
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[REPS / 2])
}

/// The compiled f64 plan answers one held-out row at least 3× faster (p50)
/// than the autodiff-graph forward.
fn infer_claim(pnn: &Pnn, test: &Matrix) -> Res<Claim> {
    let mut plan = InferencePlan::compile(pnn)?;
    let x = Matrix::from_fn(1, test.cols(), |_, j| test[(0, j)]);
    let mut out = Matrix::zeros(1, plan.out_dim());
    let graph = p50_us(|| {
        black_box(pnn.infer(black_box(&x), None)?);
        Ok(())
    })?;
    let compiled = p50_us(|| {
        plan.infer_into(black_box(&x), &mut out)?;
        black_box(&out);
        Ok(())
    })?;
    let speedup = graph / compiled;
    Ok(Claim {
        name: "f64 plan vs graph, single-sample p50",
        measured: format!("{speedup:.1}x (graph {graph:.2} us, plan {compiled:.2} us)"),
        bar: ">= 3x",
        pass: speedup >= 3.0,
    })
}

/// Completed requests per second of 8 client threads issuing 1,000
/// classify calls each against a fresh one-worker server.
fn serve_throughput(registry: &ModelRegistry, max_batch: usize, rows: &[Vec<f64>]) -> Res<f64> {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 1_000;
    let server = Arc::new(Server::start(
        registry,
        ServeConfig {
            max_batch,
            queue_capacity: 1024,
            worker_threads: 1,
        },
    ));
    let rows = Arc::new(rows.to_vec());
    let wall = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (server, rows) = (Arc::clone(&server), Arc::clone(&rows));
            std::thread::spawn(move || -> Result<usize, ServeError> {
                let mut completed = 0;
                for step in 0..PER_CLIENT {
                    match server.classify("Iris", &rows[(step + c * 3) % rows.len()]) {
                        Ok(_) => completed += 1,
                        Err(ServeError::Overloaded { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(completed)
            })
        })
        .collect();
    let mut completed = 0;
    for client in clients {
        completed += client.join().map_err(|_| "client thread panicked")??;
    }
    let per_s = completed as f64 / wall.elapsed().as_secs_f64();
    server.shutdown();
    Ok(per_s)
}

/// Coalescing pays: under the same 8-client load, a server that batches up
/// to 32 queued requests per plan call is at least as fast as one that
/// dispatches one request at a time. One run per side, no best-of-N.
fn serving_claim(pnn: &Pnn, test: &Matrix) -> Res<Claim> {
    let mut registry = ModelRegistry::new(PlanPrecision::F64, 32);
    registry.insert(PnnArtifact::from_pnn(pnn, "Iris")?)?;
    let rows: Vec<Vec<f64>> = (0..test.rows()).map(|i| test.row(i).to_vec()).collect();
    let serial = serve_throughput(&registry, 1, &rows)?;
    let batched = serve_throughput(&registry, 32, &rows)?;
    let ratio = batched / serial;
    Ok(Claim {
        name: "8-client batched vs one-at-a-time serving throughput",
        measured: format!("{ratio:.3} (batched {batched:.0}, one-at-a-time {serial:.0} req/s)"),
        bar: ">= 1.0",
        pass: ratio >= 1.0,
    })
}

fn main() -> Res<ExitCode> {
    let mut claims = Vec::new();
    // First: the RSS claim reads the process-lifetime high-water mark.
    claims.push(stream_rss_claim()?);
    let (pnn, test) = iris_fixture()?;
    claims.push(infer_claim(&pnn, &test)?);
    claims.push(serving_claim(&pnn, &test)?);
    for claim in &claims {
        claim.print();
    }
    Ok(if claims.iter().all(|c| c.pass) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
