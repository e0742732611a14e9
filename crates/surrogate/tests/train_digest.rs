//! Bit-for-bit pin of one surrogate training trajectory: FNV-1a-64 over the
//! `to_bits()` of every final weight and bias (layer by layer, weight
//! first), then the report's train, validation and test MSE, test R² and
//! epochs run.
//!
//! The run: a 60-point in-memory dataset on 21-point sweeps, the paper's
//! 13-layer network, 50 full-batch Adam epochs with the default learning
//! rate and seed 0. It covers the tape's `matmul` backward (`Aᵀ·G` and
//! `G·Bᵀ`), Adam, the per-epoch validation MSE that picks the kept
//! network, and the final scores. Any change that moves a bit of a weight,
//! a loss or the early-stopping choice moves the digest; a deliberate
//! numeric change must re-record it and say why.

use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig};

const TRAIN_FNV: u64 = 0x0e57_44f7_f354_5135;

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn floats(hash: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(hash, |h, v| fnv1a64(h, &v.to_bits().to_le_bytes()))
}

#[test]
fn surrogate_training_trajectory_is_pinned() {
    let data = build_dataset(&DatasetConfig::new(60, 21), None).expect("the pinned build");
    let config = TrainConfig {
        max_epochs: 50,
        ..TrainConfig::default()
    };
    let (model, report) = train_surrogate(&data, &config).expect("trains");

    let mut mlp = model.mlp().clone();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for param in mlp.parameters_mut() {
        digest = floats(digest, param.value().as_slice());
    }
    digest = floats(
        digest,
        &[
            report.train_mse,
            report.val_mse,
            report.test_mse,
            report.test_r2,
        ],
    );
    digest = fnv1a64(digest, &(report.epochs_run as u64).to_le_bytes());
    assert_eq!(report.epochs_run, 50, "epochs run");
    assert_eq!(digest, TRAIN_FNV, "digest {digest:#018x}");
}
