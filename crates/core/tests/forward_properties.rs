//! Property-based invariants of the pNN forward pass: outputs stay within
//! physical voltage bounds, variation perturbs but never destabilizes, and
//! the network is batch-consistent.

use pnc_core::{NoiseSample, Pnn, PnnConfig, VariationModel};
use pnc_linalg::Matrix;
use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, SurrogateModel, TrainConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

fn surrogate() -> Arc<SurrogateModel> {
    static CELL: OnceLock<Arc<SurrogateModel>> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = build_dataset(&DatasetConfig::new(150, 31), None).expect("builds");
        Arc::new(
            train_surrogate(
                &data,
                &TrainConfig {
                    layer_sizes: vec![10, 8, 4],
                    max_epochs: 300,
                    patience: 100,
                    ..TrainConfig::default()
                },
            )
            .expect("trains")
            .0,
        )
    })
    .clone()
}

/// The activation curve family is bounded by the η ranges the surrogate was
/// trained on; with headroom, no physical output voltage exceeds this.
const VOLTAGE_BOUND: f64 = 5.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Outputs are finite and bounded for arbitrary [0,1] inputs, random
    /// seeds, and random variation levels.
    #[test]
    fn outputs_are_finite_and_bounded(
        seed in 0u64..500,
        batch in 1usize..6,
        eps in 0.0..0.3f64,
        noise_seed in 0u64..500,
    ) {
        let pnn = Pnn::new(
            PnnConfig::for_dataset(3, 2).with_seed(seed),
            surrogate(),
        ).expect("valid config");
        let x = Matrix::from_fn(batch, 3, |i, j| {
            ((i * 13 + j * 7 + seed as usize) % 17) as f64 / 16.0
        });

        let noise = if eps > 0.0 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(noise_seed);
            Some(NoiseSample::draw(
                &VariationModel::Uniform { epsilon: eps },
                &mut rng,
                &pnn.theta_shapes(),
                pnn.num_circuits(),
            ))
        } else {
            None
        };

        let out = pnn.infer(&x, noise.as_ref()).expect("forward pass");
        for &v in out.as_slice() {
            prop_assert!(v.is_finite(), "non-finite output");
            prop_assert!(v.abs() < VOLTAGE_BOUND, "output {v} out of physical range");
        }
    }

    /// Batch consistency: evaluating samples together or one-by-one gives
    /// identical outputs (no cross-sample leakage in the crossbar math).
    #[test]
    fn batch_rows_are_independent(seed in 0u64..200) {
        let pnn = Pnn::new(
            PnnConfig::for_dataset(4, 3).with_seed(seed),
            surrogate(),
        ).expect("valid config");
        let x = Matrix::from_fn(5, 4, |i, j| ((i * 5 + j * 3 + 1) % 11) as f64 / 10.0);
        let together = pnn.infer(&x, None).expect("batched");
        for i in 0..5 {
            let row = Matrix::from_fn(1, 4, |_, j| x[(i, j)]);
            let single = pnn.infer(&row, None).expect("single");
            for j in 0..3 {
                prop_assert!(
                    (together[(i, j)] - single[(0, j)]).abs() < 1e-12,
                    "row {i} output {j} differs batched vs single"
                );
            }
        }
    }

    /// Small variation produces small output perturbations (no chaotic
    /// amplification through the two-layer cascade).
    #[test]
    fn small_variation_small_effect(seed in 0u64..200, noise_seed in 0u64..200) {
        let pnn = Pnn::new(
            PnnConfig::for_dataset(3, 2).with_seed(seed),
            surrogate(),
        ).expect("valid config");
        let x = Matrix::from_fn(3, 3, |i, j| ((i + 2 * j) % 5) as f64 / 4.0);
        let nominal = pnn.infer(&x, None).expect("nominal");
        let mut rng = rand::rngs::StdRng::seed_from_u64(noise_seed);
        let noise = NoiseSample::draw(
            &VariationModel::Uniform { epsilon: 0.01 },
            &mut rng,
            &pnn.theta_shapes(),
            pnn.num_circuits(),
        );
        let varied = pnn.infer(&x, Some(&noise)).expect("varied");
        let max_shift = nominal.sub(&varied).expect("shapes").norm_inf();
        prop_assert!(max_shift < 0.25, "1% component noise moved outputs by {max_shift} V");
    }
}
