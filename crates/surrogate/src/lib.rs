//! Surrogate models of printed nonlinear circuits (Sec. III-A of the paper).
//!
//! The pipeline of Fig. 3, end to end:
//!
//! 1. [`DesignSpace`] — the feasible component box of **Tab. I** with the
//!    divider inequality constraints, sampled with quasi Monte-Carlo
//!    ([`DesignSpace::sample`]).
//! 2. [`build_dataset`] — simulate every sampled circuit with `pnc-spice`,
//!    fit the ptanh curve of Eq. 2 with `pnc-fit`, and collect `(ω, η)`
//!    pairs (the green boxes of Fig. 3). [`StreamBuilder`] runs the same
//!    chunk loop into a resumable on-disk [`DatasetStore`] for builds too
//!    large to hold in memory.
//! 3. [`Mlp`] / [`train_surrogate`] — train the paper's 13-layer regression
//!    network (10-9-9-8-8-7-7-6-6-6-5-5-5-4) on normalized, ratio-augmented
//!    inputs to predict normalized η (the blue box of Fig. 3).
//! 4. [`SurrogateModel`] — the deployable artifact: normalization constants
//!    plus network weights, usable both as a plain function
//!    ([`SurrogateModel::predict_eta`]) and inside an autodiff graph
//!    ([`SurrogateModel::predict_eta_graph`]) so that the pNN can learn the
//!    physical parameters ω by gradient descent.
//!
//! # Examples
//!
//! Build a miniature end-to-end surrogate (tiny sizes for doc-test speed):
//!
//! ```no_run
//! use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig};
//!
//! # fn main() -> Result<(), pnc_surrogate::SurrogateError> {
//! let data = build_dataset(&DatasetConfig::new(200, 41), None)?;
//! let (model, report) = train_surrogate(&data, &TrainConfig::default())?;
//! println!("validation MSE: {}", report.val_mse);
//! let eta = model.predict_eta(&data.entries[0].omega);
//! println!("predicted eta: {eta:?}");
//! # Ok(())
//! # }
//! ```
//!
//! # Observability
//!
//! Every dataset build, in memory or streamed, feeds one family of
//! `pnc-obs` metrics, `surrogate.dataset.*` (points, entries, per-stage
//! failures, fit RMSE, chunk duration, resume bookkeeping) — see
//! `docs/METRICS.md` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod design_space;
mod error;
mod mlp;
mod model;
mod store;
mod stream;

pub use dataset::{
    build_dataset, CircuitDataset, DatasetConfig, DatasetEntry, EtaBounds, EtaBoundsAccumulator,
    FailureRecord, FailureStage, FailureTally,
};
pub use design_space::{DesignSampler, DesignSpace, EXTENDED_DIM, OMEGA_DIM};
pub use error::SurrogateError;
pub use mlp::{Mlp, PAPER_LAYER_SIZES};
pub use model::{
    artifact_dir, default_surrogate, quick_surrogate, train_surrogate, EtaTrace, SurrogateModel,
    TrainConfig, TrainReport,
};
pub use store::{
    DatasetStore, ResumeReport, StoreError, StoreMeta, StoreRecord, CAUSE_CAP, FORMAT_VERSION,
    RECORD_BYTES,
};
pub use stream::{load_circuit_dataset, ChunkSummary, StreamBuilder, StreamConfig, StreamReport};
