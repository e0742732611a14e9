//! Aging of printed conductances: lifetime evaluation and aging-aware
//! training (the extension direction of the paper's companion work,
//! "Aging-Aware Training for Printed Neuromorphic Circuits", ICCAD 2022).
//!
//! Printed resistors drift over their lifetime — the effective conductance
//! decays as the printed film degrades. An [`AgingModel`] maps an age `t`
//! (in arbitrary lifetime units) to a multiplicative decay factor applied
//! to the *printable* crossbar conductances (the nonlinear circuits age
//! much more slowly and are left nominal, as in the companion work).
//!
//! Two entry points:
//!
//! * [`lifetime_accuracy`] — evaluate a trained pNN across its lifetime,
//!   Monte-Carlo style (aging × printing variation);
//! * [`TrainConfig::aging`](crate::TrainConfig) — train against ages drawn
//!   uniformly over the target lifetime, the aging-aware objective.
//!
//! # Examples
//!
//! ```
//! use pnc_core::aging::AgingModel;
//!
//! let model = AgingModel::Exponential { rate: 0.1 };
//! assert_eq!(model.decay(0.0), 1.0);
//! assert!(model.decay(5.0) < model.decay(1.0));
//! ```

use crate::eval::McStats;
use crate::network::Pnn;
use crate::train::LabeledData;
use crate::variation::{NoiseSample, VariationModel};
use crate::PnnError;
use pnc_linalg::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A lifetime-decay law for printed conductances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AgingModel {
    /// `g(t) = g₀ · exp(−rate · t)` — the stretched-film decay used by the
    /// companion work (with stretch exponent 1).
    Exponential {
        /// Decay rate per lifetime unit.
        rate: f64,
    },
    /// `g(t) = g₀ · max(1 − rate·t, floor)` — a linear ramp with a floor.
    Linear {
        /// Decay rate per lifetime unit.
        rate: f64,
        /// Lowest decay factor (models the saturated degraded film).
        floor: f64,
    },
}

impl AgingModel {
    /// The multiplicative conductance factor at age `t >= 0`.
    pub fn decay(&self, t: f64) -> f64 {
        match *self {
            AgingModel::Exponential { rate } => (-rate * t.max(0.0)).exp(),
            AgingModel::Linear { rate, floor } => (1.0 - rate * t.max(0.0)).max(floor),
        }
    }
}

/// Lifetime parameters of aging-aware training: ages are drawn uniformly
/// from `[0, lifetime]` for every Monte-Carlo noise sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingAwareness {
    /// The decay law.
    pub model: AgingModel,
    /// The target lifetime to train over.
    pub lifetime: f64,
}

impl AgingAwareness {
    /// Draws an age and returns its decay factor.
    pub(crate) fn sample_decay(&self, rng: &mut StdRng) -> f64 {
        let t = rng.gen_range(0.0..=self.lifetime.max(0.0));
        self.model.decay(t)
    }
}

/// Applies an aging decay to the crossbar factors of a noise sample
/// (the nonlinear circuits are left untouched).
///
/// Aging is stochastic per device: each printed resistor follows its own
/// degradation trajectory, modeled as `decay^u` with `u ~ U[0, 2]` (mean
/// exponent 1, so the *average* film follows the [`AgingModel`] law). A
/// uniform decay would cancel exactly in the normalized weighted sum of
/// Eq. 1 — it is precisely the device-to-device aging mismatch that
/// degrades accuracy, as the companion work observes.
pub(crate) fn age_noise(sample: &mut NoiseSample, decay: f64, rng: &mut StdRng) {
    for m in &mut sample.theta_factors {
        for v in m.as_mut_slice() {
            *v *= decay.powf(rng.gen_range(0.0..2.0));
        }
    }
}

/// One point of a lifetime sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgePoint {
    /// The age the network was evaluated at.
    pub age: f64,
    /// The conductance decay factor at that age.
    pub decay: f64,
    /// Monte-Carlo accuracy statistics (aging × printing variation).
    pub stats: McStats,
}

/// Evaluates a trained pNN over its lifetime: at each age, the crossbar
/// conductances decay by the aging model while printing variation is drawn
/// per Monte-Carlo sample as usual.
///
/// # Errors
///
/// Returns [`PnnError::Data`] for empty inputs and propagates evaluation
/// failures.
///
/// # Examples
///
/// See the `aging` experiment binary in `pnc-bench`.
pub fn lifetime_accuracy(
    pnn: &Pnn,
    data: LabeledData<'_>,
    aging: &AgingModel,
    variation: &VariationModel,
    ages: &[f64],
    n_test: usize,
    seed: u64,
) -> Result<Vec<AgePoint>, PnnError> {
    if ages.is_empty() || n_test == 0 {
        return Err(PnnError::Data {
            detail: "need at least one age and one Monte-Carlo sample".into(),
        });
    }
    let shapes = pnn.theta_shapes();
    let mut out = Vec::with_capacity(ages.len());
    for &age in ages {
        let decay = aging.decay(age);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut accuracies = Vec::with_capacity(n_test);
        for _ in 0..n_test {
            let mut noise = NoiseSample::draw(variation, &mut rng, &shapes, pnn.num_circuits());
            age_noise(&mut noise, decay, &mut rng);
            accuracies.push(crate::eval::accuracy(pnn, data, Some(&noise))?);
        }
        out.push(AgePoint {
            age,
            decay,
            stats: McStats {
                mean: stats::mean(&accuracies),
                std: stats::std(&accuracies),
                accuracies,
            },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PnnConfig;
    use crate::train::{TrainConfig, Trainer};
    use pnc_linalg::Matrix;
    use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig};
    use std::sync::Arc;

    #[test]
    fn decay_laws() {
        let e = AgingModel::Exponential { rate: 0.5 };
        assert_eq!(e.decay(0.0), 1.0);
        assert!((e.decay(2.0) - (-1.0f64).exp()).abs() < 1e-12);
        assert_eq!(e.decay(-3.0), 1.0, "negative ages clamp to fresh");

        let l = AgingModel::Linear {
            rate: 0.2,
            floor: 0.3,
        };
        assert_eq!(l.decay(0.0), 1.0);
        assert!((l.decay(2.0) - 0.6).abs() < 1e-12);
        assert_eq!(l.decay(100.0), 0.3, "floor saturates");
    }

    #[test]
    fn age_noise_scales_only_theta_with_device_mismatch() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sample = NoiseSample::identity(&[(20, 20)], 2);
        age_noise(&mut sample, 0.5, &mut rng);
        let values: Vec<f64> = sample.theta_factors[0].as_slice().to_vec();
        // Per-device factors lie in [decay², 1] and are not all equal.
        assert!(values
            .iter()
            .all(|&v| (0.25 - 1e-12..=1.0 + 1e-12).contains(&v)));
        let spread = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.1, "aging must be device-to-device stochastic");
        // Mean exponent is 1: the average factor is near exp(mean ln)·spread
        // effects; just require it to be well below fresh and above decay².
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((0.3..0.9).contains(&mean), "mean factor {mean}");
        assert_eq!(sample.omega_factors, vec![[1.0; 7]; 2]);

        // Fresh devices are untouched regardless of randomness.
        let mut fresh = NoiseSample::identity(&[(4, 4)], 1);
        age_noise(&mut fresh, 1.0, &mut rng);
        assert!(fresh.theta_factors[0].as_slice().iter().all(|&v| v == 1.0));
    }

    fn quick_pnn() -> (Pnn, Matrix, Vec<usize>) {
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
        let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2), surrogate).unwrap();
        // Simple separable blobs.
        let n = 40;
        let x = Matrix::from_fn(n, 2, |i, j| {
            let base = if i % 2 == 0 { 0.25 } else { 0.75 };
            (base + (((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5) * 0.2).clamp(0.0, 1.0)
        });
        let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let d = LabeledData::new(&x, &y).unwrap();
        Trainer::new(TrainConfig {
            max_epochs: 60,
            patience: 60,
            n_train_mc: 3,
            n_val_mc: 2,
            ..TrainConfig::default()
        })
        .train(&mut pnn, d, d)
        .unwrap();
        (pnn, x, y)
    }

    #[test]
    fn lifetime_sweep_reports_every_age() {
        let (pnn, x, y) = quick_pnn();
        let d = LabeledData::new(&x, &y).unwrap();
        let points = lifetime_accuracy(
            &pnn,
            d,
            &AgingModel::Exponential { rate: 0.3 },
            &VariationModel::Uniform { epsilon: 0.05 },
            &[0.0, 1.0, 3.0],
            10,
            0,
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].decay, 1.0);
        assert!(points[2].decay < points[1].decay);
        // Fresh accuracy should be at least as good as heavily aged on
        // average (uniform decay of all conductances cancels in Eq. 1 only
        // partially: the g_d leg shifts the operating point).
        assert!(points[0].stats.mean >= 0.5);
    }

    #[test]
    fn lifetime_rejects_empty_inputs() {
        let (pnn, x, y) = quick_pnn();
        let d = LabeledData::new(&x, &y).unwrap();
        assert!(lifetime_accuracy(
            &pnn,
            d,
            &AgingModel::Exponential { rate: 0.1 },
            &VariationModel::None,
            &[],
            10,
            0
        )
        .is_err());
    }

    #[test]
    fn aging_aware_training_runs() {
        let (_, x, y) = quick_pnn();
        let d = LabeledData::new(&x, &y).unwrap();
        let data = build_dataset(&DatasetConfig::new(100, 31), None).unwrap();
        let surrogate = Arc::new(
            train_surrogate(
                &data,
                &pnc_surrogate::TrainConfig {
                    layer_sizes: vec![10, 8, 4],
                    max_epochs: 200,
                    patience: 80,
                    ..pnc_surrogate::TrainConfig::default()
                },
            )
            .unwrap()
            .0,
        );
        let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2), surrogate).unwrap();
        let report = Trainer::new(TrainConfig {
            variation: VariationModel::Uniform { epsilon: 0.05 },
            aging: Some(AgingAwareness {
                model: AgingModel::Exponential { rate: 0.2 },
                lifetime: 5.0,
            }),
            max_epochs: 40,
            patience: 40,
            n_train_mc: 3,
            n_val_mc: 2,
            ..TrainConfig::default()
        })
        .train(&mut pnn, d, d)
        .unwrap();
        assert!(report.best_val_loss.is_finite());
    }
}
