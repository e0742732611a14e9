use crate::{LinalgError, Matrix};

/// LU decomposition with partial (row) pivoting.
///
/// Factors a square matrix `A` as `P·A = L·U` and reuses the factorization to
/// solve `A·x = b` for many right-hand sides. This is the linear-solver core
/// of both the Newton iteration in `pnc-spice` (modified nodal analysis) and
/// the damped normal equations in `pnc-fit` (Levenberg–Marquardt).
///
/// The factors are stored row-major; elimination and both substitutions run
/// over row slices. Hot loops keep one `Lu` and call [`Lu::refactor`], which
/// reuses its storage, instead of allocating a new factorization per solve.
///
/// # Examples
///
/// ```
/// use pnc_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), pnc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// // Verify A * x == b.
/// assert!((2.0 * x[0] + x[1] - 3.0).abs() < 1e-12);
/// assert!((x[0] + 3.0 * x[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) factors.
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    /// Empty after a failed [`Lu::refactor`], so the dimension reads 0.
    perm: Vec<usize>,
}

impl Lu {
    /// Pivots smaller than this (in absolute value) are treated as singular.
    const PIVOT_TOL: f64 = 1e-14;

    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` is not square and
    /// [`LinalgError::Singular`] if a pivot below the singularity tolerance is
    /// encountered.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let mut lu = Lu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factors `a` into this factorization's storage, allocating only when
    /// the dimension changes. Bit-identical to [`Lu::factor`].
    ///
    /// # Errors
    ///
    /// As for [`Lu::factor`]. After an error `self` holds no factorization:
    /// its [`Lu::dim`] is 0 and every [`Lu::solve_into`] with a non-empty
    /// right-hand side is rejected.
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        self.perm.clear();
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_factor",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        // Same shape: overwrite in place; otherwise reallocate.
        if self.factors.copy_from(a).is_err() {
            self.factors = a.clone();
        }
        self.perm.extend(0..n);
        let f = self.factors.as_mut_slice();

        for k in 0..n {
            // Partial pivoting: find the largest |entry| in column k at/below k.
            let mut pivot_row = k;
            let mut pivot_val = f[k * n + k].abs();
            for i in (k + 1)..n {
                let v = f[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < Self::PIVOT_TOL {
                self.perm.clear();
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                let (upper, lower) = f.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                self.perm.swap(k, pivot_row);
            }
            // Eliminate below the pivot: row_i -= (f_ik / f_kk) · row_k.
            let (upper, lower) = f.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..];
            let pivot = row_k[k];
            for row_i in lower.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                for (fij, fkj) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *fij -= factor * fkj;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a preallocated output slice, allocating nothing.
    ///
    /// Bit-identical to [`Lu::solve`]; hot loops (Newton iterations,
    /// Levenberg–Marquardt damping attempts) reuse one buffer across calls.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` or `x.len()`
    /// differs from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len().max(x.len()), 1),
            });
        }
        // Forward substitution with permuted b (L has unit diagonal).
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // `n` is 0 after a failed refactor, whatever the storage still holds.
        let rows = self.factors.as_slice()[..n * n].chunks_exact(n.max(1));
        for (i, row) in rows.clone().enumerate().skip(1) {
            let (solved, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (lij, xj) in row[..i].iter().zip(solved.iter()) {
                acc -= lij * xj;
            }
            rest[0] = acc;
        }
        // Backward substitution with U.
        for (i, row) in rows.enumerate().rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let mut acc = head[i];
            for (uij, xj) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= uij * xj;
            }
            head[i] = acc / row[i];
        }
        Ok(())
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// Returns the underlying factorization or substitution error.
///
/// # Examples
///
/// ```
/// use pnc_linalg::Matrix;
///
/// # fn main() -> Result<(), pnc_linalg::LinalgError> {
/// let a = Matrix::identity(2);
/// let x = pnc_linalg::solve(&a, &[7.0, 8.0])?;
/// assert_eq!(x, vec![7.0, 8.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[3.0, 4.0, 4.0], &[5.0, 6.0, 3.0]]).unwrap();
        let b = [3.0, 7.0, 8.0];
        let x = solve(&a, &b).unwrap();
        // Residual check.
        for i in 0..3 {
            let r: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum::<f64>() - b[i];
            assert!(r.abs() < 1e-10, "residual {r} at row {i}");
        }
    }

    #[test]
    fn requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_into_matches_solve_bitwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[3.0, 4.0, 4.0], &[5.0, 6.0, 3.0]]).unwrap();
        let b = [3.0, 7.0, 8.0];
        let lu = Lu::factor(&a).unwrap();
        let fresh = lu.solve(&b).unwrap();
        // A dirty preallocated buffer must not affect the result.
        let mut reused = vec![f64::NAN; 3];
        lu.solve_into(&b, &mut reused).unwrap();
        assert_eq!(fresh, reused);
        // Wrong output length is rejected.
        let mut short = vec![0.0; 2];
        assert!(lu.solve_into(&b, &mut short).is_err());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_factor_bitwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[3.0, 4.0, 4.0], &[5.0, 6.0, 3.0]]).unwrap();
        let b = [3.0, 7.0, 8.0];
        let fresh = Lu::factor(&a).unwrap().solve(&b).unwrap();
        // A held factorization of another size and contents is overwritten.
        let mut lu = Lu::factor(&Matrix::identity(2)).unwrap();
        lu.refactor(&a).unwrap();
        assert_eq!(lu.dim(), 3);
        assert_eq!(lu.solve(&b).unwrap(), fresh);
        // Same size: factored in place.
        lu.refactor(&Matrix::identity(3)).unwrap();
        lu.refactor(&a).unwrap();
        assert_eq!(lu.solve(&b).unwrap(), fresh);
    }

    #[test]
    fn failed_refactor_holds_no_factorization() {
        let mut lu = Lu::factor(&Matrix::identity(2)).unwrap();
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            lu.refactor(&singular),
            Err(LinalgError::Singular { pivot: 1 })
        ));
        assert_eq!(lu.dim(), 0);
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        assert_eq!(lu.solve(&[]).unwrap(), Vec::<f64>::new());
        assert!(lu.refactor(&Matrix::zeros(2, 3)).is_err());
        assert_eq!(lu.dim(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Generate diagonally dominant matrices: always invertible.
    fn arb_dd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
            let mut m = Matrix::from_vec(n, n, data).expect("sized");
            for i in 0..n {
                let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
                m[(i, i)] += row_sum + 1.0;
            }
            m
        })
    }

    proptest! {
        #[test]
        fn solve_produces_small_residual(
            (a, b) in (2usize..7).prop_flat_map(|n| {
                (arb_dd_matrix(n), proptest::collection::vec(-10.0..10.0f64, n))
            })
        ) {
            let x = solve(&a, &b).unwrap();
            let n = b.len();
            for i in 0..n {
                let r: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum::<f64>() - b[i];
                prop_assert!(r.abs() < 1e-8, "residual {} at row {}", r, i);
            }
        }
    }
}
