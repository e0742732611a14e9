//! Reverse-mode automatic differentiation for printed neural networks.
//!
//! The paper's reference implementation trains its printed neural networks
//! (pNNs) with PyTorch. The Rust autodiff ecosystem being immature, this
//! crate implements the required subset from scratch as a small, fully
//! deterministic **tape** engine:
//!
//! * [`Graph`] — a define-by-run arena of tensor nodes. Every operation
//!   evaluates eagerly (values are [`Matrix`](pnc_linalg::Matrix)es) and
//!   records itself on the tape; [`Graph::backward`] then walks the tape in
//!   reverse to accumulate gradients.
//! * Elementwise binary ops broadcast scalars (`1×1`), row vectors (`1×n`)
//!   and column vectors (`m×1`) against full matrices, as the pNN forward
//!   pass requires (per-output conductance normalization, scalar η curve
//!   parameters).
//! * **Straight-through estimators** are first class: [`Graph::ste`] replaces
//!   a node's value by an arbitrary caller-computed projection while passing
//!   gradients through unchanged — exactly the trick the paper uses (Sec.
//!   II-C) to respect the printable-conductance constraint during training.
//! * Fused classification losses ([`Graph::cross_entropy_logits`],
//!   [`Graph::margin_loss`]) with hand-derived, numerically stable
//!   gradients; [`loss`] holds their arithmetic for callers that run a
//!   hand-derived training step without the tape.
//! * [`optim`] — the `Adam` optimizer over [`Parameter`]s that live
//!   outside the graph (the tape is rebuilt every step).
//! * [`gradcheck`] — a finite-difference gradient checker used extensively in
//!   the tests of this and downstream crates.
//!
//! # Examples
//!
//! Differentiate a tiny computation:
//!
//! ```
//! use pnc_autodiff::Graph;
//! use pnc_linalg::Matrix;
//!
//! # fn main() -> Result<(), pnc_autodiff::AutodiffError> {
//! let mut g = Graph::new();
//! let x = g.leaf(Matrix::row_vector(&[1.0, 2.0, 3.0]));
//! let y = g.tanh(x);
//! let loss = g.sum(y);
//! let grads = g.backward(loss)?;
//! let gx = grads.get(x).expect("leaf gradient");
//! // d tanh(x)/dx = 1 - tanh²(x)
//! assert!((gx[(0, 0)] - (1.0 - pnc_linalg::tanh(1.0).powi(2))).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod gradcheck;
mod graph;
pub mod loss;
pub mod optim;

pub use error::AutodiffError;
pub use graph::{GradStore, Graph, Var};
pub use optim::{Adam, Parameter};
