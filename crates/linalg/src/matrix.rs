use crate::{kernels, LinalgError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// `Matrix` is the workhorse value type of the workspace: the autodiff engine
/// stores tensor values as matrices, the circuit simulator assembles its
/// Jacobians into them, and the surrogate models hold their weights in them.
///
/// Shapes are checked at runtime; fallible operations return
/// [`LinalgError`](crate::LinalgError) rather than panicking, except for
/// indexing which panics on out-of-bounds like slices do.
///
/// # Examples
///
/// ```
/// use pnc_linalg::Matrix;
///
/// # fn main() -> Result<(), pnc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows`×`cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnc_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows`×`cols` matrix where every element is `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidShape {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally long rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the rows have unequal
    /// lengths, and [`LinalgError::InvalidShape`] if `rows` is empty or the
    /// first row is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if r == 0 || c == 0 {
            return Err(LinalgError::InvalidShape {
                rows: r,
                cols: c,
                len: 0,
            });
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (1, c),
                    rhs: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnc_linalg::Matrix;
    /// let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
    /// assert_eq!(m[(1, 0)], 10.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a 1×`n` row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Returns the shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the underlying row-major data as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * rhs`, computed with the cache-blocked kernel.
    ///
    /// The blocked kernel visits the contraction index in ascending order for
    /// every output element, so its results are bit-identical to the naive
    /// reference ([`Matrix::matmul_reference`]) for any block size.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Cache-blocked matrix product written into a preallocated `out`.
    ///
    /// `out` is fully overwritten (no accumulation with prior contents), so
    /// a reused buffer behaves exactly like a fresh matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()` or `out` is not
    /// `self.rows()`×`rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_into",
                lhs: (self.rows, rhs.cols),
                rhs: out.shape(),
            });
        }
        kernels::matmul_blocked_into(self, rhs, &mut out.data);
        Ok(())
    }

    /// Naive triple-loop matrix product: the bit-exactness oracle for the
    /// blocked and transpose kernels. Prefer [`Matrix::matmul`] everywhere
    /// else. Its output is pinned by `matmul_reference_output_is_pinned`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        kernels::matmul_reference_into(self, rhs, &mut out.data);
        Ok(out)
    }

    /// Product with a transposed right operand, `self · rhsᵀ`, written into
    /// a preallocated `out` (fully overwritten).
    ///
    /// Each output element is a dot product of two contiguous rows, so
    /// backward passes need not materialize an explicit transpose; the
    /// register-tiled [`gemm_nt_f64`](crate::simd::gemm_nt_f64) computes
    /// it. Bit-identical to `self.matmul(&rhs.transpose())`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.cols()` or `out` is not
    /// `self.rows()`×`rhs.rows()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.rows) {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_nt_into",
                lhs: (self.rows, rhs.rows),
                rhs: out.shape(),
            });
        }
        crate::simd::gemm_nt_f64(
            self.rows,
            self.cols,
            rhs.rows,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(())
    }

    /// Product with a transposed left operand, `selfᵀ · rhs`, written into
    /// a preallocated `out` (fully overwritten).
    ///
    /// The contraction index is the shared row index, so both operands
    /// stream row-major without materializing a transpose; the
    /// register-tiled [`gemm_tn_f64`](crate::simd::gemm_tn_f64) computes
    /// it. Bit-identical to `self.transpose().matmul(rhs)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.rows() != rhs.rows()` or `out` is not
    /// `self.cols()`×`rhs.cols()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.shape() != (self.cols, rhs.cols) {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_tn_into",
                lhs: (self.cols, rhs.cols),
                rhs: out.shape(),
            });
        }
        crate::simd::gemm_tn_f64(
            self.cols,
            self.rows,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(())
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Combines two equal-shaped matrices elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines `self` and `rhs` elementwise with `f` into a preallocated
    /// equal-shaped `out` (fully overwritten).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any shape differs.
    pub fn zip_with_into(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
        out: &mut Matrix,
    ) -> Result<(), LinalgError> {
        if self.shape() != rhs.shape() || self.shape() != out.shape() {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = f(a, b);
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `rhs` to `self` elementwise in place. Bit-identical to
    /// `self = self.add(rhs)` without the allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<(), LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        Ok(())
    }

    /// Overwrites `self` with the contents of an equal-shaped `src`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, src: &Matrix) -> Result<(), LinalgError> {
        if self.shape() != src.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "copy_from",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element, or `0.0` for an empty matrix.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns `true` if every element of `self` is within `tol` of the
    /// corresponding element of `other`. Shapes must match exactly.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_has_requested_shape_and_content() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            LinalgError::InvalidShape {
                rows: 2,
                cols: 2,
                len: 3
            }
        );
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn indexing_is_row_major() {
        let m = sample();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn row_and_col_accessors() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_swaps_shape_and_elements() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i = Matrix::identity(3);
        assert!(m.matmul(&i).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let sum = a.add(&a).unwrap();
        assert_eq!(sum[(1, 2)], 12.0);
        let diff = a.sub(&a).unwrap();
        assert_eq!(diff.norm(), 0.0);
    }

    #[test]
    fn scale_and_map() {
        let a = sample();
        assert_eq!(a.scale(2.0)[(0, 1)], 4.0);
        assert_eq!(a.map(|x| x - 1.0)[(0, 0)], 0.0);
    }

    #[test]
    fn norms_and_sum() {
        let v = Matrix::from_vec(2, 1, vec![3.0, -4.0]).unwrap();
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(v.sum(), -1.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", sample());
        assert!(s.contains("Matrix 2x3"));
    }

    #[test]
    fn serde_round_trip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn matmul_dense_and_sparse_inputs_agree_bitwise() {
        // The kernel must not branch on zero elements: a mostly-zero operand
        // takes exactly the same accumulation path as a dense one, so the
        // result is bit-identical to the naive always-accumulate reference.
        let sparse = Matrix::from_fn(7, 5, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                1.5 * i as f64 - 0.25 * j as f64
            }
        });
        let dense = Matrix::from_fn(7, 5, |i, j| 1.0 + 0.1 * (i * 5 + j) as f64);
        let rhs = Matrix::from_fn(5, 6, |i, j| 0.3 * i as f64 - 0.7 * j as f64 + 0.01);
        for lhs in [&sparse, &dense] {
            let blocked = lhs.matmul(&rhs).unwrap();
            let reference = lhs.matmul_reference(&rhs).unwrap();
            assert_eq!(blocked, reference);
        }
        // An all-zero row contributes exact zeros, same as the reference.
        let zero_row = Matrix::zeros(1, 5);
        assert_eq!(
            zero_row.matmul(&rhs).unwrap(),
            zero_row.matmul_reference(&rhs).unwrap()
        );
    }

    #[test]
    fn matmul_spanning_several_blocks_matches_reference() {
        // `arb_matmul_pair` keeps the inner dimension below one block, so
        // this case is the one that walks several `i`- and `k`-blocks,
        // including ragged last blocks on both.
        let (rows, inner, cols) = (2 * kernels::BLOCK + 7, 2 * kernels::BLOCK + 3, 9);
        let a = Matrix::from_fn(rows, inner, |i, j| {
            ((i * 31 + j * 17) % 23) as f64 * 0.37 - 4.1
        });
        let b = Matrix::from_fn(inner, cols, |i, j| {
            ((i * 13 + j * 7) % 19) as f64 * -0.29 + 2.3
        });
        assert_eq!(a.matmul(&b).unwrap(), a.matmul_reference(&b).unwrap());
    }

    /// Output pin of the reference oracle: an FNV-1a-64 digest, word by word
    /// over `f64::to_bits`, of what [`Matrix::matmul_reference`] returns on
    /// fixed odd-shaped operands, some of them crossing the 64-element
    /// blocking tiles of the kernels it checks. A change to its arithmetic
    /// or to its summation order moves the digest; the output shapes and
    /// the error for mismatched operands are pinned alongside.
    #[test]
    fn matmul_reference_output_is_pinned() {
        const DIGEST: u64 = 0x1157_5378_bd20_c4ff;
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (7, 9, 5),
            (67, 70, 5),
            (5, 130, 67),
            (65, 1, 66),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.37 - 4.1);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 7) % 19) as f64 * -0.29 + 2.3);
            let c = a.matmul_reference(&b).unwrap();
            assert_eq!(c.shape(), (m, n));
            for v in c.as_slice() {
                digest = (digest ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(digest, DIGEST, "digest {digest:#018x}");
        assert_eq!(
            Matrix::zeros(2, 3).matmul_reference(&Matrix::zeros(4, 5)),
            Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: (2, 3),
                rhs: (4, 5),
            })
        );
    }

    #[test]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut bad = Matrix::zeros(2, 3);
        assert!(a.matmul_into(&b, &mut bad).is_err());
        let mut good = Matrix::zeros(2, 4);
        assert!(a.matmul_into(&b, &mut good).is_ok());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 * 0.5 - 2.0);
        let b = Matrix::from_fn(5, 4, |i, j| (i as f64) - 0.3 * (j as f64));
        let mut fast = Matrix::zeros(3, 5);
        a.matmul_nt_into(&b, &mut fast).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
        assert!(a.matmul_nt_into(&Matrix::zeros(5, 3), &mut fast).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f64) - 0.3 * (j as f64));
        let mut fast = Matrix::zeros(3, 5);
        a.matmul_tn_into(&b, &mut fast).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
        assert!(a.matmul_tn_into(&Matrix::zeros(3, 5), &mut fast).is_err());
    }

    #[test]
    fn in_place_kernels_match_allocating_ops() {
        let a = sample();
        let b = a.map(|x| 0.5 * x - 1.0);

        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        assert_eq!(acc, a.add(&b).unwrap());

        let mut scaled = a.clone();
        scaled.scale_in_place(3.0);
        assert_eq!(scaled, a.scale(3.0));

        let mut out = Matrix::zeros(2, 3);
        a.zip_with_into(&b, "test", |x, y| x * y, &mut out).unwrap();
        assert_eq!(out, a.zip_with(&b, "test", |x, y| x * y).unwrap());

        let mut copy = Matrix::zeros(2, 3);
        copy.copy_from(&a).unwrap();
        assert_eq!(copy, a);
    }

    #[test]
    fn in_place_kernels_reject_shape_mismatch() {
        let a = sample();
        let wrong = Matrix::zeros(3, 2);
        assert!(a.clone().add_assign(&wrong).is_err());
        assert!(a.clone().copy_from(&wrong).is_err());
        let mut out = Matrix::zeros(3, 2);
        assert!(a.zip_with_into(&a, "test", |x, _| x, &mut out).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-100.0..100.0f64, r * c)
                .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
        })
    }

    proptest! {
        #[test]
        fn transpose_involution(m in arb_matrix(6)) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn transpose_of_product((a, b) in (1usize..5, 1usize..5, 1usize..5).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-10.0..10.0f64, m * k)
                .prop_map(move |d| Matrix::from_vec(m, k, d).expect("sized"));
            let b = proptest::collection::vec(-10.0..10.0f64, k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d).expect("sized"));
            (a, b)
        })) {
            let ab_t = a.matmul(&b).unwrap().transpose();
            let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!(ab_t.approx_eq(&bt_at, 1e-9));
        }

        #[test]
        fn add_commutes(m in arb_matrix(6)) {
            let n = m.map(|x| x * 0.5 + 1.0);
            prop_assert!(m.add(&n).unwrap().approx_eq(&n.add(&m).unwrap(), 1e-12));
        }

        #[test]
        fn scale_distributes_over_add(m in arb_matrix(5), s in -10.0..10.0f64) {
            let lhs = m.add(&m).unwrap().scale(s);
            let rhs = m.scale(s).add(&m.scale(s)).unwrap();
            prop_assert!(lhs.approx_eq(&rhs, 1e-9));
        }

        #[test]
        fn matmul_identity_left(m in arb_matrix(6)) {
            let i = Matrix::identity(m.rows());
            prop_assert!(i.matmul(&m).unwrap().approx_eq(&m, 1e-12));
        }
    }

    /// Random rectangular (lhs, rhs) pairs large enough to span two row
    /// blocks (the inner dimension stays inside one block; see
    /// `matmul_spanning_several_blocks_matches_reference`).
    fn arb_matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
        (1usize..80, 1usize..12, 1usize..12).prop_flat_map(|(m, k, n)| {
            let a = proptest::collection::vec(-10.0..10.0f64, m * k)
                .prop_map(move |d| Matrix::from_vec(m, k, d).expect("sized"));
            let b = proptest::collection::vec(-10.0..10.0f64, k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d).expect("sized"));
            (a, b)
        })
    }

    proptest! {
        // Fewer, larger cases: each exercises the full kernel stack.
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocked_matmul_is_bit_identical_to_reference((a, b) in arb_matmul_pair()) {
            let blocked = a.matmul(&b).unwrap();
            let reference = a.matmul_reference(&b).unwrap();
            prop_assert_eq!(blocked, reference);
        }

        #[test]
        fn transpose_matmul_variants_are_bit_identical((a, b) in arb_matmul_pair()) {
            // self · rhsᵀ against the materialized transpose.
            let mut nt = Matrix::zeros(a.rows(), b.cols());
            a.matmul_nt_into(&b.transpose(), &mut nt).unwrap();
            prop_assert_eq!(nt, a.matmul_reference(&b).unwrap());
            // selfᵀ · rhs against the materialized transpose.
            let mut tn = Matrix::zeros(a.rows(), b.cols());
            a.transpose().matmul_tn_into(&b, &mut tn).unwrap();
            prop_assert_eq!(tn, a.matmul_reference(&b).unwrap());
        }

        #[test]
        fn matmul_into_reuses_buffers_bit_identically((a, b) in arb_matmul_pair()) {
            // A dirty recycled buffer must not leak into the result.
            let mut out = Matrix::filled(a.rows(), b.cols(), f64::NAN);
            a.matmul_into(&b, &mut out).unwrap();
            prop_assert_eq!(&out, &a.matmul_reference(&b).unwrap());

            let mut nt = Matrix::filled(a.rows(), b.cols(), f64::NAN);
            a.matmul_nt_into(&b.transpose(), &mut nt).unwrap();
            prop_assert_eq!(&nt, &out);

            let mut tn = Matrix::filled(a.rows(), b.cols(), f64::NAN);
            a.transpose().matmul_tn_into(&b, &mut tn).unwrap();
            prop_assert_eq!(&tn, &out);
        }
    }
}
