//! Solver-backend selection: which linear solver sits inside the Newton
//! loop that computes DC operating points.
//!
//! Two backends share one [`DcSolver`](crate::DcSolver) API, one MNA stamp
//! pass and one acceptance contract (catalogue, selection guidance and
//! tolerances in `docs/SOLVERS.md` at the workspace root):
//!
//! * [`SolverBackend::DenseLu`] — damped Newton over a dense MNA matrix
//!   with dense LU. The oracle: the sparse backend is validated against
//!   it. O(dim³) per factorization.
//! * [`SolverBackend::SparseLu`] — the same Newton iteration over
//!   compressed-sparse-column assembly with Markowitz-ordered sparse LU;
//!   the symbolic analysis is cached and reused across same-pattern
//!   refactorizations (Newton iterations, sweep points).
//!
//! Selection is in code only, per solver, via
//! [`DcSolver::with_backend`](crate::DcSolver::with_backend).

use serde::{Deserialize, Serialize};

/// The linear solver a [`DcSolver`](crate::DcSolver) uses for
/// operating-point solves. See the module docs and `docs/SOLVERS.md` for
/// the contract.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum SolverBackend {
    /// Damped Newton over dense MNA assembly with dense LU — the oracle
    /// backend, and the default.
    #[default]
    DenseLu,
    /// Damped Newton over sparse MNA assembly with Markowitz-ordered sparse
    /// LU and cached symbolic analysis.
    SparseLu,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_oracle() {
        assert_eq!(SolverBackend::default(), SolverBackend::DenseLu);
    }
}
