//! **printed-neuromorphic** — a from-scratch Rust reproduction of
//! *Highly-Bespoke Robust Printed Neuromorphic Circuits* (Zhao et al.,
//! DATE 2023).
//!
//! This facade crate re-exports the whole workspace and hosts the runnable
//! examples and cross-crate integration tests. The layers, bottom-up:
//!
//! * [`linalg`] — dense matrices, LU solves, statistics.
//! * [`qmc`] — the Sobol' quasi Monte-Carlo sampler.
//! * [`spice`] — a DC circuit simulator (modified nodal analysis +
//!   Newton–Raphson) with a printed electrolyte-gated transistor model and
//!   the paper's two-stage nonlinear circuit netlists.
//! * [`fit`] — Levenberg–Marquardt fitting of the `ptanh` curve (Eq. 2).
//! * [`autodiff`] — reverse-mode tape autodiff with straight-through
//!   estimators and the Adam optimizer.
//! * [`surrogate`] — the Sec. III-A pipeline: design-space sampling →
//!   simulation → curve fitting → the 13-layer surrogate network η̂(ω̃).
//! * [`datasets`] — the 13 benchmark classification tasks of Tab. II.
//! * [`pnn`] — printed neural networks with learnable nonlinear circuits
//!   and variation-aware training (the paper's contribution).
//! * [`obs`] — structured observability: deterministic counters/histograms,
//!   span timers, and the opt-in `PNC_OBS` JSON-lines event sink.
//! * [`serve`] — the batched serving layer: artifact registry,
//!   micro-batching workers over compiled inference plans, and the
//!   framed-TCP front door with bounded-queue backpressure.
//!
//! # Quickstart
//!
//! ```no_run
//! use printed_neuromorphic::artifacts;
//! use printed_neuromorphic::pnn::{
//!     mc_evaluate, LabeledData, Pnn, PnnConfig, TrainConfig, Trainer, VariationModel,
//! };
//! use printed_neuromorphic::datasets::generators::iris;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let surrogate = Arc::new(artifacts::default_surrogate()?);
//! let data = iris();
//! let (train, val, test) = data.split(1);
//!
//! let mut pnn = Pnn::new(
//!     PnnConfig::for_dataset(data.num_features(), data.num_classes),
//!     surrogate,
//! )?;
//! Trainer::new(TrainConfig {
//!     variation: VariationModel::Uniform { epsilon: 0.10 },
//!     ..TrainConfig::default()
//! })
//! .train(
//!     &mut pnn,
//!     LabeledData::new(&train.features, &train.labels)?,
//!     LabeledData::new(&val.features, &val.labels)?,
//! )?;
//!
//! let stats = mc_evaluate(
//!     &pnn,
//!     LabeledData::new(&test.features, &test.labels)?,
//!     &VariationModel::Uniform { epsilon: 0.10 },
//!     100,
//!     0,
//! )?;
//! println!("accuracy under 10% printing variation: {:.3} ± {:.3}", stats.mean, stats.std);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pnc_autodiff as autodiff;
pub use pnc_core as pnn;
pub use pnc_datasets as datasets;
pub use pnc_fit as fit;
pub use pnc_linalg as linalg;
pub use pnc_obs as obs;
pub use pnc_qmc as qmc;
pub use pnc_serve as serve;
pub use pnc_spice as spice;
pub use pnc_surrogate as surrogate;

pub mod artifacts {
    //! Shared trained artifacts, cached on disk so examples and experiments
    //! pay the surrogate-training cost once.

    pub use pnc_surrogate::{artifact_dir, default_surrogate, quick_surrogate};
}
