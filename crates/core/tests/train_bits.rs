//! Bit-for-bit pin of one variation-aware training trajectory.
//!
//! `training_is_bit_identical_across_thread_counts` compares thread counts
//! within one build; this test compares the build against recorded
//! constants, so it also catches a change to the tape, the backward pass,
//! the Monte-Carlo reduction or the optimizer that moves a single bit of a
//! loss or a parameter. The run: the committed quick surrogate, Iris with
//! the paper's `#input-3-#output` topology and learnable circuits, ±10 %
//! uniform variation, two training and two validation draws, 30 epochs,
//! weight and noise seed 2. The best epoch (16) lies before the last, so
//! the restore of the best-by-validation snapshot is pinned too. A
//! deliberate numeric change must re-record the constants and say why.

use pnc_core::{
    LabeledData, NonlinearCircuit, Pnn, PnnConfig, TrainConfig, Trainer, VariationModel,
};
use pnc_surrogate::SurrogateModel;
use std::path::Path;
use std::sync::Arc;

/// FNV-1a-64 of the train losses, the val losses, every final θ and every
/// final 𝔴, word by word over `f64::to_bits`, in that order.
const DIGEST: u64 = 0x1e7c_022d_fcf6_eeb5;
/// Best-by-validation epoch and epochs run.
const EPOCHS: (usize, usize) = (16, 30);

fn fnv(digest: u64, values: &[f64]) -> u64 {
    values.iter().fold(digest, |d, v| {
        (d ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn variation_aware_training_trajectory_is_pinned() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/surrogate-quick.json");
    let surrogate = Arc::new(SurrogateModel::load(&path).expect("committed quick surrogate"));
    let iris = pnc_datasets::generators::iris();
    let (train, val, _) = iris.split(1);
    let mut pnn = Pnn::new(
        PnnConfig::for_dataset(iris.num_features(), iris.num_classes).with_seed(2),
        surrogate,
    )
    .expect("valid config");
    let report = Trainer::new(TrainConfig {
        variation: VariationModel::Uniform { epsilon: 0.1 },
        n_train_mc: 2,
        n_val_mc: 2,
        max_epochs: 30,
        patience: 30,
        seed: 2,
        ..TrainConfig::default()
    })
    .train(
        &mut pnn,
        LabeledData::new(&train.features, &train.labels).expect("train data"),
        LabeledData::new(&val.features, &val.labels).expect("val data"),
    )
    .expect("trains");

    let mut digest = fnv(0xcbf2_9ce4_8422_2325, &report.train_losses);
    digest = fnv(digest, &report.val_losses);
    for layer in pnn.layers() {
        digest = fnv(digest, layer.theta.value().as_slice());
    }
    for circuit in pnn.circuits().iter().flat_map(|(a, i)| [a, i]) {
        if let NonlinearCircuit::Learnable { w } = circuit {
            digest = fnv(digest, w.value().as_slice());
        }
    }
    assert_eq!(
        (report.best_epoch, report.epochs_run),
        EPOCHS,
        "best epoch, epochs run"
    );
    assert_eq!(digest, DIGEST, "digest {digest:#018x}");
}
