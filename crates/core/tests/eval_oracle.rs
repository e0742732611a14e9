//! The Monte-Carlo evaluation oracle: every per-draw accuracy
//! `mc_evaluate_with` reports equals, bit for bit, the argmax accuracy of
//! `Pnn::predict` on the autodiff tape under the same draw, at any thread
//! count. The draws are re-made here from the seed in the order the
//! evaluator documents (all pre-drawn serially from one `StdRng`), so the
//! test pins both the draw sequence and the forward pass.

use pnc_core::{
    accuracy, mc_evaluate_with, LabeledData, NoiseSample, NonlinearityGranularity, Pnn, PnnConfig,
    VariationModel,
};
use pnc_linalg::{stats, Matrix, ParallelConfig};
use pnc_surrogate::SurrogateModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

fn surrogate() -> Arc<SurrogateModel> {
    static CELL: OnceLock<Arc<SurrogateModel>> = OnceLock::new();
    CELL.get_or_init(|| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../artifacts/surrogate-quick.json");
        Arc::new(SurrogateModel::load(&path).expect("committed quick surrogate"))
    })
    .clone()
}

/// Random θ and 𝔴 around the initialization, so the classes the network
/// predicts vary from row to row and from draw to draw.
fn perturb(pnn: &mut Pnn, rng: &mut StdRng) {
    for layer in pnn.layers_mut() {
        for v in layer.theta.value_mut().as_mut_slice() {
            *v = rng.gen_range(-1.2..1.2) * if rng.gen_bool(0.2) { 0.01 } else { 1.0 };
        }
    }
    for (a, i) in pnn.circuits_mut() {
        for p in [a.parameter_mut(), i.parameter_mut()].into_iter().flatten() {
            for v in p.value_mut().as_mut_slice() {
                *v += rng.gen_range(-1.5..1.5);
            }
        }
    }
}

/// The tape's accuracy under one draw: `Pnn::predict`, then the share of
/// rows whose argmax is the label.
fn tape_accuracy(pnn: &Pnn, x: &Matrix, labels: &[usize], noise: Option<&NoiseSample>) -> f64 {
    let preds = pnn.predict(x, noise).expect("tape forward");
    let correct = preds.iter().zip(labels).filter(|(p, t)| p == t).count();
    correct as f64 / labels.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three granularities, fixed and learnable circuits, the output
    /// activation on and off, 1–9 rows, no variation, Uniform and Gaussian
    /// draws, on one and two threads.
    #[test]
    fn mc_evaluate_matches_tape_predict(
        seed in 0u64..1_000_000,
        granularity in 0usize..3,
        learnable in proptest::bool::ANY,
        act_on_output in proptest::bool::ANY,
        variation in 0usize..3,
        threads in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(1usize..4);
        let mut sizes = vec![rng.gen_range(1usize..5)];
        for _ in 0..depth {
            sizes.push(rng.gen_range(2usize..5));
        }
        let classes = *sizes.last().unwrap_or(&2);
        let config = PnnConfig {
            layer_sizes: sizes.clone(),
            learnable_nonlinearity: learnable,
            granularity: [
                NonlinearityGranularity::Shared,
                NonlinearityGranularity::PerLayer,
                NonlinearityGranularity::PerNeuron,
            ][granularity],
            activation_on_output: act_on_output,
            ..PnnConfig::for_dataset(sizes[0], classes).with_seed(seed)
        };
        let mut pnn = Pnn::new(config, surrogate()).unwrap();
        perturb(&mut pnn, &mut rng);
        let rows = rng.gen_range(1usize..10);
        let x = Matrix::from_fn(rows, sizes[0], |_, _| rng.gen_range(0.0..1.0));
        let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
        let data = LabeledData::new(&x, &labels).unwrap();
        let model = [
            VariationModel::None,
            VariationModel::Uniform { epsilon: 0.1 },
            VariationModel::Gaussian { sigma: 0.05 },
        ][variation];
        let n_test = rng.gen_range(1usize..6);
        let eval_seed = rng.gen_range(0u64..1_000_000);

        let got = mc_evaluate_with(
            &pnn,
            data,
            &model,
            n_test,
            eval_seed,
            ParallelConfig::with_threads(threads),
        )
        .unwrap();

        let mut draws = StdRng::seed_from_u64(eval_seed);
        let shapes = pnn.theta_shapes();
        let want: Vec<f64> = (0..n_test)
            .map(|_| {
                let noise = (!model.is_none())
                    .then(|| NoiseSample::draw(&model, &mut draws, &shapes, pnn.num_circuits()));
                let acc = tape_accuracy(&pnn, &x, &labels, noise.as_ref());
                let single = accuracy(&pnn, data, noise.as_ref()).unwrap();
                assert_eq!(single.to_bits(), acc.to_bits(), "accuracy() under one draw");
                acc
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got.accuracies), bits(&want));
        prop_assert_eq!(got.mean.to_bits(), stats::mean(&want).to_bits());
        prop_assert_eq!(got.std.to_bits(), stats::std(&want).to_bits());
    }
}
