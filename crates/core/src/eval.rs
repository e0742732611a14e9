//! Accuracy and Monte-Carlo robustness evaluation (Sec. IV-C).
//!
//! Every draw runs the training step's compiled forward pass
//! (`crate::train_plan::EvalPlan`) over buffers sized once per call, with
//! no autodiff tape. Its scores are [`Pnn::infer`]'s bit for bit, so each
//! accuracy is the argmax accuracy of [`Pnn::predict`] under the same draw;
//! `tests/eval_oracle.rs` checks that.

use crate::network::Pnn;
use crate::train::LabeledData;
use crate::train_plan::EvalPlan;
use crate::variation::{NoiseSample, VariationModel};
use crate::PnnError;
use pnc_linalg::{stats, ParallelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Classification accuracy of `pnn` on `data`, optionally under one
/// printing-variation draw.
///
/// # Errors
///
/// Returns [`PnnError::Data`] for empty data, data that does not match the
/// network's input width, or a draw that does not match its shape.
///
/// # Examples
///
/// See [`mc_evaluate`] for the Monte-Carlo wrapper the experiment tables
/// use.
pub fn accuracy(
    pnn: &Pnn,
    data: LabeledData<'_>,
    noise: Option<&NoiseSample>,
) -> Result<f64, PnnError> {
    let plan = EvalPlan::compile(pnn, data, 1)?;
    let accuracies = plan.accuracies(&[noise.cloned()], &ParallelConfig::serial())?;
    Ok(accuracies[0])
}

/// Monte-Carlo robustness statistics: accuracy mean and standard deviation
/// over variation draws, exactly as Tab. II reports (`mean ± std` over
/// `N_test = 100` samples).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McStats {
    /// Mean accuracy over the draws.
    pub mean: f64,
    /// Population standard deviation over the draws — the paper's
    /// robustness metric.
    pub std: f64,
    /// The individual per-draw accuracies.
    pub accuracies: Vec<f64>,
}

/// Evaluates `pnn` under `n_test` Monte-Carlo draws of `variation`,
/// applying the noise to every printable value (crossbar conductances *and*
/// nonlinear-circuit components — the full printing process).
///
/// # Errors
///
/// Returns [`PnnError::Data`] for empty data or `n_test == 0`, and
/// propagates forward-pass failures.
///
/// # Examples
///
/// ```no_run
/// # use pnc_core::{mc_evaluate, LabeledData, Pnn, VariationModel};
/// # fn eval(pnn: &Pnn, data: LabeledData<'_>) -> Result<(), pnc_core::PnnError> {
/// let stats = mc_evaluate(
///     pnn,
///     data,
///     &VariationModel::Uniform { epsilon: 0.10 },
///     100,
///     42,
/// )?;
/// println!("{:.3} ± {:.3}", stats.mean, stats.std);
/// # Ok(())
/// # }
/// ```
pub fn mc_evaluate(
    pnn: &Pnn,
    data: LabeledData<'_>,
    variation: &VariationModel,
    n_test: usize,
    seed: u64,
) -> Result<McStats, PnnError> {
    mc_evaluate_with(
        pnn,
        data,
        variation,
        n_test,
        seed,
        ParallelConfig::automatic(),
    )
}

/// [`mc_evaluate`] with an explicit thread-count configuration.
///
/// All noise is pre-drawn serially from the seeded generator (so the draw
/// sequence never depends on scheduling), then the draws split into one
/// contiguous chunk per worker, each run over its own compiled buffers,
/// and come back in draw order — the returned statistics are identical at
/// every thread count.
///
/// # Errors
///
/// Same contract as [`mc_evaluate`].
pub fn mc_evaluate_with(
    pnn: &Pnn,
    data: LabeledData<'_>,
    variation: &VariationModel,
    n_test: usize,
    seed: u64,
    parallel: ParallelConfig,
) -> Result<McStats, PnnError> {
    if n_test == 0 {
        return Err(PnnError::Data {
            detail: "n_test must be positive".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = pnn.theta_shapes();
    let noise: Vec<Option<NoiseSample>> = (0..n_test)
        .map(|_| {
            if variation.is_none() {
                None
            } else {
                Some(NoiseSample::draw(
                    variation,
                    &mut rng,
                    &shapes,
                    pnn.num_circuits(),
                ))
            }
        })
        .collect();
    let workers = parallel.effective_threads().min(n_test);
    let accuracies = EvalPlan::compile(pnn, data, workers)?.accuracies(&noise, &parallel)?;
    Ok(McStats {
        mean: stats::mean(&accuracies),
        std: stats::std(&accuracies),
        accuracies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PnnConfig;
    use pnc_linalg::Matrix;
    use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig};
    use std::sync::Arc;

    fn quick_pnn() -> Pnn {
        let data = build_dataset(&DatasetConfig::new(120, 31), None).unwrap();
        let surrogate = Arc::new(
            train_surrogate(
                &data,
                &pnc_surrogate::TrainConfig {
                    layer_sizes: vec![10, 8, 4],
                    max_epochs: 300,
                    patience: 100,
                    ..pnc_surrogate::TrainConfig::default()
                },
            )
            .unwrap()
            .0,
        );
        Pnn::new(PnnConfig::for_dataset(2, 2), surrogate).unwrap()
    }

    #[test]
    fn accuracy_counts_matches() {
        let pnn = quick_pnn();
        let x = Matrix::from_fn(6, 2, |i, j| ((i + j) % 4) as f64 / 3.0);
        let preds = pnn.predict(&x, None).unwrap();
        let data = LabeledData::new(&x, &preds).unwrap();
        // Using the model's own predictions as labels gives accuracy 1.
        assert_eq!(accuracy(&pnn, data, None).unwrap(), 1.0);
        // Flipping every label gives accuracy 0.
        let flipped: Vec<usize> = preds.iter().map(|&p| 1 - p).collect();
        let data = LabeledData::new(&x, &flipped).unwrap();
        assert_eq!(accuracy(&pnn, data, None).unwrap(), 0.0);
    }

    #[test]
    fn mc_evaluate_without_variation_has_zero_std() {
        let pnn = quick_pnn();
        let x = Matrix::from_fn(5, 2, |i, j| ((2 * i + j) % 5) as f64 / 4.0);
        let y = vec![0, 1, 0, 1, 0];
        let data = LabeledData::new(&x, &y).unwrap();
        let stats = mc_evaluate(&pnn, data, &VariationModel::None, 10, 0).unwrap();
        assert!(stats.std < 1e-12, "std {}", stats.std);
        assert_eq!(stats.accuracies.len(), 10);
        assert!(stats.accuracies.iter().all(|&a| a == stats.accuracies[0]));
    }

    #[test]
    fn mc_evaluate_is_seed_deterministic() {
        let pnn = quick_pnn();
        let x = Matrix::from_fn(8, 2, |i, j| ((i * 2 + 3 * j) % 7) as f64 / 6.0);
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let data = LabeledData::new(&x, &y).unwrap();
        let v = VariationModel::Uniform { epsilon: 0.1 };
        let a = mc_evaluate(&pnn, data, &v, 20, 7).unwrap();
        let b = mc_evaluate(&pnn, data, &v, 20, 7).unwrap();
        assert_eq!(a, b);
        // Different seeds draw different noise; accuracies may or may not
        // coincide (they are coarse fractions), but the call must succeed.
        let c = mc_evaluate(&pnn, data, &v, 20, 8).unwrap();
        assert_eq!(c.accuracies.len(), 20);
    }

    #[test]
    fn mc_evaluate_is_identical_across_thread_counts() {
        let pnn = quick_pnn();
        let x = Matrix::from_fn(8, 2, |i, j| ((i * 3 + j) % 9) as f64 / 8.0);
        let y = vec![0, 1, 1, 0, 1, 0, 0, 1];
        let data = LabeledData::new(&x, &y).unwrap();
        let v = VariationModel::Gaussian { sigma: 0.05 };
        let serial = mc_evaluate_with(&pnn, data, &v, 24, 11, ParallelConfig::serial()).unwrap();
        for threads in [2, 4] {
            let parallel = mc_evaluate_with(
                &pnn,
                data,
                &v,
                24,
                11,
                ParallelConfig::with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn rejects_zero_samples_and_empty_data() {
        let pnn = quick_pnn();
        let x = Matrix::from_fn(2, 2, |_, _| 0.5);
        let y = vec![0, 1];
        let data = LabeledData::new(&x, &y).unwrap();
        assert!(mc_evaluate(&pnn, data, &VariationModel::None, 0, 0).is_err());
        let empty_x = Matrix::zeros(0, 2);
        let empty = LabeledData {
            features: &empty_x,
            labels: &[],
        };
        assert!(accuracy(&pnn, empty, None).is_err());
    }
}
