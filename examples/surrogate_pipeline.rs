//! The full surrogate-modelling pipeline of Fig. 3: quasi Monte-Carlo
//! design-space sampling → SPICE simulation → ptanh extraction → training
//! the 13-layer regression network — then the parity check of Fig. 4
//! (right).
//!
//! ```sh
//! cargo run --release --example surrogate_pipeline [n_samples]
//! ```

use printed_neuromorphic::artifacts;
use printed_neuromorphic::linalg::stats;
use printed_neuromorphic::surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let samples: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1500);

    println!("1. sampling {samples} design points (Sobol' QMC over Tab. I) and simulating ...");
    let data = build_dataset(&DatasetConfig::new(samples, 61), None)?;
    let rmses: Vec<f64> = data.entries.iter().map(|e| e.fit_rmse).collect();
    println!(
        "   {} circuits characterized; ptanh fit rmse: mean {:.4} V, max {:.4} V",
        data.entries.len(),
        stats::mean(&rmses),
        stats::max(&rmses).unwrap_or(0.0),
    );
    let tally = data.failure_tally();
    if tally.total() > 0 {
        println!(
            "   {} points failed (build {}, sweep {}, fit {}); first: {}",
            tally.total(),
            tally.build,
            tally.sweep,
            tally.fit,
            data.failures
                .first()
                .map(|f| f.cause.as_str())
                .unwrap_or("-"),
        );
    }

    println!("2. training the 13-layer surrogate network (70/20/10 split) ...");
    let (model, report) = train_surrogate(&data, &TrainConfig::default())?;
    println!(
        "   {} epochs; mse train {:.5} / val {:.5} / test {:.5}",
        report.epochs_run, report.train_mse, report.val_mse, report.test_mse
    );
    println!(
        "   test R² (pooled over η components): {:.4}",
        report.test_r2
    );

    println!("3. parity check on a few test-style points (cf. Fig. 4 right):");
    println!("   {:>28} | {:>28}", "true η (fit)", "predicted η(ω)");
    for e in data.entries.iter().rev().take(5) {
        let pred = model.predict_eta(&e.omega);
        println!(
            "   [{:6.3} {:6.3} {:6.3} {:6.3}] | [{:6.3} {:6.3} {:6.3} {:6.3}]",
            e.eta[0], e.eta[1], e.eta[2], e.eta[3], pred[0], pred[1], pred[2], pred[3]
        );
    }

    // End-of-run metrics summary: how much SPICE/LM effort the pipeline
    // spent, and where points were lost (see docs/METRICS.md).
    let dir = artifacts::artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let metrics_path = dir.join("surrogate_pipeline_metrics.json");
    printed_neuromorphic::obs::write_summary(&metrics_path)?;
    println!("metrics summary saved to {}", metrics_path.display());
    Ok(())
}
