//! Finite-difference gradient verification.
//!
//! Because every gradient in this workspace is hand-derived (the repro
//! constraint of the paper's Rust port), the test suites of this crate and
//! the downstream pNN crate lean heavily on central finite differences to
//! validate backpropagation end-to-end.
//!
//! # Examples
//!
//! ```
//! use pnc_autodiff::{gradcheck::check_gradients, Graph};
//! use pnc_linalg::Matrix;
//!
//! let inputs = [Matrix::row_vector(&[0.3, -0.8])];
//! let report = check_gradients(&inputs, 1e-6, |g, vars| {
//!     let t = g.tanh(vars[0]);
//!     g.sum(t)
//! });
//! assert!(report.max_abs_error < 1e-6, "{report:?}");
//! ```

use crate::{Graph, Var};
use pnc_linalg::Matrix;

/// Outcome of a finite-difference check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradcheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_error: f64,
    /// Where the largest error occurred: `(input index, row, col)`.
    pub worst: (usize, usize, usize),
    /// Total number of scalar entries checked.
    pub entries_checked: usize,
}

/// Compares analytic gradients of `build` against central finite differences.
///
/// `build` must construct the loss (a `1×1` node) from leaves registered for
/// each input matrix; it is invoked repeatedly with perturbed inputs, so it
/// must be deterministic.
///
/// `step` is the finite-difference step; `1e-6` is a good default for values
/// of order one.
///
/// # Panics
///
/// Panics if `build` produces a non-scalar loss or an internally inconsistent
/// graph — this is a test utility, so failures are loud.
pub fn check_gradients(
    inputs: &[Matrix],
    step: f64,
    mut build: impl FnMut(&mut Graph, &[Var]) -> Var,
) -> GradcheckReport {
    let eval = |mats: &[Matrix], build: &mut dyn FnMut(&mut Graph, &[Var]) -> Var| -> f64 {
        let mut g = Graph::new();
        let vars: Vec<Var> = mats.iter().map(|m| g.leaf(m)).collect();
        let loss = build(&mut g, &vars);
        g.value(loss)[(0, 0)]
    };

    // Analytic gradients.
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|m| g.leaf(m)).collect();
    let loss = build(&mut g, &vars);
    // pnc-lint: allow(no-panic-in-lib) — test utility; the documented contract is to fail loudly on a malformed build closure
    // pnc-lint: allow(panic-reachability) — same contract: check_gradients is a dev/test harness whose pub API promises a loud abort, not a Result
    let grads = g.backward(loss).expect("gradcheck loss must be scalar");

    let mut report = GradcheckReport {
        max_abs_error: 0.0,
        worst: (0, 0, 0),
        entries_checked: 0,
    };

    for (k, input) in inputs.iter().enumerate() {
        let (rows, cols) = input.shape();
        let zero;
        let analytic = match grads.get(vars[k]) {
            Some(m) => m,
            None => {
                zero = Matrix::zeros(rows, cols);
                &zero
            }
        };
        for i in 0..rows {
            for j in 0..cols {
                let mut plus = inputs.to_vec();
                plus[k][(i, j)] += step;
                let mut minus = inputs.to_vec();
                minus[k][(i, j)] -= step;
                let numeric = (eval(&plus, &mut build) - eval(&minus, &mut build)) / (2.0 * step);
                let err = (numeric - analytic[(i, j)]).abs();
                report.entries_checked += 1;
                if err > report.max_abs_error {
                    report.max_abs_error = err;
                    report.worst = (k, i, j);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_for_simple_composite() {
        let inputs = [
            Matrix::from_rows(&[&[0.5, -0.2], &[0.1, 0.9]]).unwrap(),
            Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap(),
        ];
        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            let prod = g.matmul(vars[0], vars[1]).unwrap();
            let act = g.sigmoid(prod);
            g.mean(act)
        });
        assert!(report.max_abs_error < 1e-7, "{report:?}");
        assert_eq!(report.entries_checked, 6);
    }

    #[test]
    fn passes_for_broadcast_division() {
        let inputs = [
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(),
            Matrix::row_vector(&[2.0, 5.0]),
        ];
        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            let q = g.div(vars[0], vars[1]).unwrap();
            g.sum(q)
        });
        assert!(report.max_abs_error < 1e-7, "{report:?}");
    }

    #[test]
    fn passes_for_losses() {
        let inputs = [Matrix::from_rows(&[&[0.3, 0.7, 0.1], &[0.9, 0.2, 0.4]]).unwrap()];
        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            g.cross_entropy_logits(vars[0], &[1, 0]).unwrap()
        });
        assert!(report.max_abs_error < 1e-7, "{report:?}");

        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            g.margin_loss(vars[0], &[1, 0], 0.3).unwrap()
        });
        assert!(report.max_abs_error < 1e-7, "{report:?}");
    }

    #[test]
    fn detects_wrong_gradient() {
        // Abuse STE to create a deliberately wrong gradient: forward is x²,
        // backward pretends identity.
        let inputs = [Matrix::row_vector(&[2.0])];
        let report = check_gradients(&inputs, 1e-6, |g, vars| {
            let squared = g.value(vars[0]).map(|x| x * x);
            let y = g.ste(vars[0], squared).unwrap();
            g.sum(y)
        });
        // Numeric gradient is 2x = 4, analytic (STE) is 1.
        assert!(report.max_abs_error > 2.9, "{report:?}");
    }
}
