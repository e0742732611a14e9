//! Dense linear algebra substrate for the printed-neuromorphic stack.
//!
//! The paper's reference implementation leans on NumPy/PyTorch for its dense
//! linear algebra. This crate provides the small, allocation-friendly subset
//! that the rest of the workspace needs:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual arithmetic,
//!   used as the value type of the autodiff engine and the assembly target of
//!   the circuit simulator.
//! * [`Lu`] — LU decomposition with partial pivoting, the linear solver behind
//!   both the modified-nodal-analysis Newton steps in `pnc-spice` and the
//!   normal equations of the Levenberg–Marquardt fitter in `pnc-fit`.
//! * [`stats`] — scalar summary statistics (mean/std/min/max) used when
//!   reporting Monte-Carlo robustness results.
//! * [`ParallelConfig`] — the workspace-wide thread-count knob and its
//!   deterministic ordered parallel map, honoring the `PNC_NUM_THREADS`
//!   environment variable.
//! * [`Workspace`] — a reusable buffer pool so shape-stable hot loops
//!   (training epochs, Newton iterations) allocate nothing in steady state.
//! * [`kernels`] — the cache-blocked matmul kernels behind [`Matrix`]'s hot
//!   methods, tunable via the `PNC_MATMUL_BLOCK` environment variable; every
//!   variant is bit-identical to the naive reference at any block size and
//!   thread count.
//! * [`simd`] — autovectorization-friendly register-tiled `f64`
//!   microkernels shared by the blocked matmul and the compiled inference
//!   plan in `pnc-core`, all safe code, all honoring the same ascending-`k`
//!   accumulation order.
//! * [`sparse`] — compressed-sparse-column storage and Markowitz-ordered
//!   sparse LU with a cached symbolic analysis, the factorization behind
//!   the `sparse-lu` circuit-solver backend (docs/SOLVERS.md at the
//!   workspace root).
//!
//! # Examples
//!
//! Solve a small linear system:
//!
//! ```
//! use pnc_linalg::{Matrix, Lu};
//!
//! # fn main() -> Result<(), pnc_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod kernels;
mod lu;
mod matrix;
pub mod parallel;
pub mod simd;
pub mod sparse;
pub mod stats;
mod workspace;

pub use error::LinalgError;
pub use lu::{solve, Lu};
pub use matrix::Matrix;
pub use parallel::ParallelConfig;
pub use workspace::Workspace;
