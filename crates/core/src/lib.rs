//! Printed neural networks (pNNs) with **learnable nonlinear subcircuits**
//! and **variation-aware training** — the primary contribution of
//! *Highly-Bespoke Robust Printed Neuromorphic Circuits* (DATE 2023).
//!
//! A pNN models a printed analog neuromorphic circuit:
//!
//! * each layer is a resistor crossbar computing the normalized
//!   weighted sum of Eq. 1 over its input voltages (plus a bias input at
//!   1 V and a grounded `g_d` leg),
//! * negative weights are realized by routing the input through a
//!   negative-weight inverter (Eq. 3),
//! * each weighted sum feeds a tanh-like `ptanh` activation circuit
//!   (Eq. 2),
//! * the learnable crossbar conductances θ are projected onto the printable
//!   range with a straight-through estimator (Sec. II-C).
//!
//! On top of this baseline (prior work \[1\]), this crate implements the
//! paper's two contributions:
//!
//! 1. **Learnable nonlinear circuits** (Sec. III-B, Fig. 5) — the physical
//!    parameters ω of the activation and negative-weight circuits become
//!    trainable through the differentiable surrogate model of
//!    `pnc-surrogate`: a constrained parameter 𝔴 passes through a sigmoid,
//!    denormalization, divider reassembly (`R2 = k1·R1`, `R4 = k2·R3`) and
//!    feasibility clipping to produce printable component values.
//! 2. **Variation-aware training** (Sec. III-C) — printing variation is
//!    modeled as i.i.d. multiplicative noise `ε ~ U[1−ϵ, 1+ϵ]` on every
//!    *printable* value (projected conductances and physical ω), and the
//!    Monte-Carlo estimate of the expected loss is minimized.
//!
//! [`Pnn`] is the model, [`Trainer`] runs (variation-aware) training with
//! early stopping, [`eval`] measures Monte-Carlo robustness the way Tab. II
//! reports it, [`PrintedDesign`] exports the component values a printer
//! would receive, and [`InferencePlan`] compiles a trained network into an
//! allocation-free forward pass, bit-identical to the graph (see
//! [`infer`]).
//!
//! # Examples
//!
//! Train a small pNN on one of the benchmark tasks:
//!
//! ```no_run
//! use pnc_core::{LabeledData, Pnn, PnnConfig, TrainConfig, Trainer, VariationModel};
//! use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig as SurrogateTrain};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = build_dataset(&DatasetConfig { samples: 500, sweep_points: 41 })?;
//! let (surrogate, _) = train_surrogate(&data, &SurrogateTrain::default())?;
//!
//! // Any [0, 1]-normalized tabular task works; pnc-datasets provides the
//! // paper's 13-dataset benchmark suite.
//! # let (x_train, y_train, x_val, y_val): (pnc_linalg::Matrix, Vec<usize>, pnc_linalg::Matrix, Vec<usize>) = unimplemented!();
//! let config = PnnConfig::for_dataset(x_train.cols(), 3);
//! let mut pnn = Pnn::new(config, Arc::new(surrogate))?;
//! let report = Trainer::new(TrainConfig {
//!     variation: VariationModel::Uniform { epsilon: 0.05 },
//!     ..TrainConfig::default()
//! })
//! .train(
//!     &mut pnn,
//!     LabeledData::new(&x_train, &y_train)?,
//!     LabeledData::new(&x_val, &y_val)?,
//! )?;
//! println!("best validation loss {}", report.best_val_loss);
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! Training feeds the `core.*` counters and histograms of `pnc-obs`
//! (epochs, Monte-Carlo draws, gradient norms, early stops, seed-search
//! progress) and emits per-epoch / end-of-run events when the `PNC_OBS`
//! sink is enabled — see `docs/METRICS.md` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aging;
mod error;
pub mod eval;
mod export;
pub mod hardware;
pub mod infer;
mod layer;
mod network;
mod nonlinearity;
mod train;
mod variation;

pub use error::PnnError;
pub use eval::{accuracy, mc_evaluate, mc_evaluate_with, McStats};
pub use export::{
    ArtifactLayer, CircuitDesign, CrossbarDesign, PnnArtifact, PrintedDesign,
    ARTIFACT_FORMAT_VERSION,
};
pub use infer::{CompiledPnn, InferencePlan, PlanPrecision};
pub use layer::{project_printable, PLayer};
pub use network::{argmax_row, LossKind, NonlinearityGranularity, Pnn, PnnConfig, PnnVars};
pub use nonlinearity::{apply_inv, apply_ptanh, NonlinearCircuit};
pub use train::{train_best_of_seeds, LabeledData, TrainConfig, TrainReport, Trainer};
pub use variation::{NoiseSample, VariationModel};
