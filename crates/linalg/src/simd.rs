//! Autovectorization-friendly dense `f64` microkernels.
//!
//! These are the register-tiled inner loops behind every dense product in
//! the workspace: the cache-blocked [`Matrix`](crate::Matrix) matmul and
//! its transpose variants (hence the autodiff tape's `matmul` backward and
//! the Levenberg–Marquardt fit's `JᵀJ`), and the compiled inference and
//! training plans in `pnc-core`. Everything is safe code: the kernels are
//! written so LLVM keeps the fixed-size accumulator arrays in registers
//! and vectorizes them where it can, without `unsafe`, intrinsics, or
//! feature detection. Only `f64` is provided: the plans must stay
//! bit-identical to the autodiff graph, and reduced-precision plans were
//! measured not to pay (DESIGN.md §12).
//!
//! The one non-negotiable rule carries over from [`crate::kernels`]: **for
//! every output element the contraction index `k` ascends from `0.0` in
//! exactly the order the naive triple loop uses**. Register tiling unrolls
//! across output *columns* (independent accumulators per output element)
//! and output *rows*, never across `k` — so every kernel here is
//! bit-identical to [`Matrix::matmul_reference`](crate::Matrix::matmul_reference)
//! on the same (explicitly transposed) operands.
//!
//! * [`gemm_f64`] / [`gemm_f64_acc_strided`]: `out = A·B`. The strided
//!   entry point accumulates into `out` instead of overwriting it, which is
//!   what lets the blocked driver sweep `k` in cache-sized panels: storing
//!   a partial sum to memory and reloading it is exact in IEEE arithmetic,
//!   so panel boundaries never change results.
//! * [`gemm_tn_f64`]: `out = Aᵀ·B`, the weight gradient `∂W = Xᵀ·G`.
//! * [`gemm_nt_f64`]: `out = A·Bᵀ`, the input gradient `∂X = G·Wᵀ`.
//!
//! All three kernels keep an up-to-4×4 output tile in registers across
//! the whole contraction and write it once; the row and column remainders
//! are const-generic tiles of the same code, so a 3-wide product (every
//! pNN crossbar) sums three outputs of four rows per loaded row of `B`.
//! [`gemm_f64_acc_strided`]'s tiles start from the values already in
//! `out`, the transpose kernels' from `0.0`.

/// Rows per register tile: four independent output rows share each loaded
/// slice of `B`, quadrupling the arithmetic intensity of the inner loop.
const MR: usize = 4;

/// Accumulator width: four `f64`, two SSE2 registers at baseline x86-64.
const NR: usize = 4;

/// Accumulates `out[0..m, 0..n] += A[0..m, 0..kk] · B[0..kk, 0..n]` over
/// strided row-major panels (`lda`/`ldb`/`ldo` elements between row
/// starts); the final argument is the `(m, kk, n)` shape triple. Per
/// output element the contraction index `k` ascends from the incoming
/// `out` value, so the result is bit-identical to the naive triple loop
/// for any tiling.
///
/// Panics (via slice indexing) if a panel reaches past its backing
/// slice; shapes are the caller's responsibility.
pub fn gemm_f64_acc_strided(
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ldo: usize,
    (m, kk, n): (usize, usize, usize),
) {
    let t = Nn {
        a,
        lda,
        b,
        ldb,
        kk,
        ldo,
    };
    sweep_tiles(&t, m, n, out);
}

/// `out = A · B` for contiguous row-major `f64` slices (`A` is `m×kk`, `B`
/// is `kk×n`, `out` is `m×n`, fully overwritten). Bit-identical to
/// [`Matrix::matmul`](crate::Matrix::matmul) on the same data.
pub fn gemm_f64(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    gemm_f64_acc_strided(a, kk, b, n, out, n, (m, kk, n));
}

/// One register tile of a product: the `R × W` block of the output whose
/// top-left element is `(i, j)`, summed in registers with `k` ascending
/// (from `0.0`, or from the block's incoming value for [`Nn`]) and stored
/// once.
trait Tile {
    fn tile<const R: usize, const W: usize>(&self, i: usize, j: usize, out: &mut [f64]);
}

/// Covers the `m × n` output with `MR × NR` tiles of `t`; the row and
/// column remainders (1–3 each) are smaller const-generic tiles.
fn sweep_tiles<T: Tile>(t: &T, m: usize, n: usize, out: &mut [f64]) {
    let mut i = 0;
    while i + MR <= m {
        row_of_tiles::<T, MR>(t, i, n, out);
        i += MR;
    }
    match m - i {
        1 => row_of_tiles::<T, 1>(t, i, n, out),
        2 => row_of_tiles::<T, 2>(t, i, n, out),
        3 => row_of_tiles::<T, 3>(t, i, n, out),
        _ => {}
    }
}

/// One band of `R` output rows starting at row `i`.
#[inline(always)]
fn row_of_tiles<T: Tile, const R: usize>(t: &T, i: usize, n: usize, out: &mut [f64]) {
    let mut j = 0;
    while j + NR <= n {
        t.tile::<R, NR>(i, j, out);
        j += NR;
    }
    match n - j {
        1 => t.tile::<R, 1>(i, j, out),
        2 => t.tile::<R, 2>(i, j, out),
        3 => t.tile::<R, 3>(i, j, out),
        _ => {}
    }
}

/// Stores a finished `R × W` tile at `(i, j)` of a row-major output whose
/// rows start `n` elements apart.
#[inline(always)]
fn store_tile<const R: usize, const W: usize>(
    c: &[[f64; W]; R],
    (i, j, n): (usize, usize, usize),
    out: &mut [f64],
) {
    for (r, c_row) in c.iter().enumerate() {
        out[(i + r) * n + j..][..W].copy_from_slice(c_row);
    }
}

/// `A·B` accumulated into a strided output: a tile starts from the `R × W`
/// block already in `out`, and each step reads `R` values down column `k`
/// of `A` and `W` contiguous values of `B`'s row `k`.
struct Nn<'a> {
    a: &'a [f64],
    lda: usize,
    b: &'a [f64],
    ldb: usize,
    kk: usize,
    ldo: usize,
}

impl Tile for Nn<'_> {
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&self, i: usize, j: usize, out: &mut [f64]) {
        let (kk, ldo) = (self.kk, self.ldo);
        let a_rows: [&[f64]; R] = std::array::from_fn(|r| &self.a[(i + r) * self.lda..][..kk]);
        let mut c = [[0.0; W]; R];
        for (r, c_row) in c.iter_mut().enumerate() {
            c_row.copy_from_slice(&out[(i + r) * ldo + j..][..W]);
        }
        for k in 0..kk {
            let b_at = k * self.ldb + j;
            // A full-width tile reads B's row as one slice; a narrower one
            // reads it element by element, which measured faster for 1–3.
            if W == NR {
                let b_row = &self.b[b_at..b_at + W];
                for (c_row, a_row) in c.iter_mut().zip(&a_rows) {
                    let x = a_row[k];
                    for (acc, &y) in c_row.iter_mut().zip(b_row) {
                        *acc += x * y;
                    }
                }
            } else {
                for (c_row, a_row) in c.iter_mut().zip(&a_rows) {
                    let x = a_row[k];
                    for (l, acc) in c_row.iter_mut().enumerate() {
                        *acc += x * self.b[b_at + l];
                    }
                }
            }
        }
        store_tile(&c, (i, j, ldo), out);
    }
}

/// `Aᵀ·B` with `A` `kk × m` and `B` `kk × n`: row `k` of both operands
/// feeds every tile, so a tile reads `R` contiguous values of `A`'s row and
/// `W` of `B`'s per step.
struct Tn<'a> {
    a: &'a [f64],
    b: &'a [f64],
    m: usize,
    n: usize,
}

impl Tile for Tn<'_> {
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&self, i: usize, j: usize, out: &mut [f64]) {
        let mut c = [[0.0; W]; R];
        for (a_row, b_row) in self.a.chunks_exact(self.m).zip(self.b.chunks_exact(self.n)) {
            let x = &a_row[i..i + R];
            let y = &b_row[j..j + W];
            for (c_row, &xr) in c.iter_mut().zip(x) {
                for (acc, &yl) in c_row.iter_mut().zip(y) {
                    *acc += xr * yl;
                }
            }
        }
        store_tile(&c, (i, j, self.n), out);
    }
}

/// `A·Bᵀ` with `A` `m × kk` and `B` `n × kk`: output `(i, j)` is the dot
/// product of row `i` of `A` and row `j` of `B`, so a tile walks `R` rows
/// of `A` and `W` rows of `B` side by side.
struct Nt<'a> {
    a: &'a [f64],
    b: &'a [f64],
    kk: usize,
    n: usize,
}

impl Tile for Nt<'_> {
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&self, i: usize, j: usize, out: &mut [f64]) {
        let kk = self.kk;
        let a_rows: [&[f64]; R] = std::array::from_fn(|r| &self.a[(i + r) * kk..][..kk]);
        let b_rows: [&[f64]; W] = std::array::from_fn(|l| &self.b[(j + l) * kk..][..kk]);
        let mut c = [[0.0; W]; R];
        for k in 0..kk {
            for (c_row, a_row) in c.iter_mut().zip(&a_rows) {
                let x = a_row[k];
                for (acc, b_row) in c_row.iter_mut().zip(&b_rows) {
                    *acc += x * b_row[k];
                }
            }
        }
        store_tile(&c, (i, j, self.n), out);
    }
}

/// `out = Aᵀ · B` for contiguous row-major `f64` slices: `A` is `kk×m`,
/// `B` is `kk×n`, `out` is `m×n` and fully overwritten. Bit-identical to
/// `A.transpose().matmul(&B)` on the same data, without forming the
/// transpose.
pub fn gemm_tn_f64(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), kk * m);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(out.len(), m * n);
    sweep_tiles(&Tn { a, b, m, n }, m, n, out);
}

/// `out = A · Bᵀ` for contiguous row-major `f64` slices: `A` is `m×kk`,
/// `B` is `n×kk`, `out` is `m×n` and fully overwritten. Bit-identical to
/// `A.matmul(&B.transpose())` on the same data, without forming the
/// transpose.
pub fn gemm_nt_f64(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), n * kk);
    debug_assert_eq!(out.len(), m * n);
    sweep_tiles(&Nt { a, b, kk, n }, m, n, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_f64(m: usize, kk: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for k in 0..kk {
                let aik = a[i * kk + k];
                for j in 0..n {
                    out[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn gemm_f64_is_bit_identical_to_naive_across_shapes() {
        // Exercise every remainder path: m % 4 and n % 4 in all phases.
        for &(m, kk, n) in &[
            (1, 1, 1),
            (4, 4, 4),
            (5, 3, 7),
            (7, 9, 5),
            (8, 2, 9),
            (13, 17, 11),
            (3, 8, 4),
        ] {
            let a: Vec<f64> = (0..m * kk)
                .map(|v| ((v * 37 + 11) % 23) as f64 / 7.0 - 1.3)
                .collect();
            let b: Vec<f64> = (0..kk * n)
                .map(|v| ((v * 29 + 5) % 19) as f64 / 6.0 - 1.1)
                .collect();
            let mut out = vec![1.0; m * n]; // must be fully overwritten
            gemm_f64(m, kk, n, &a, &b, &mut out);
            let expect = naive_f64(m, kk, n, &a, &b);
            assert_eq!(out, expect, "shape {m}x{kk}x{n}");
        }
    }

    #[test]
    fn strided_accumulation_matches_single_pass() {
        // Splitting k into panels and accumulating must give the same bits
        // as one pass, because partial sums round-trip memory exactly.
        let (m, kk, n) = (6, 10, 9);
        let a: Vec<f64> = (0..m * kk).map(|v| (v as f64).sin()).collect();
        let b: Vec<f64> = (0..kk * n).map(|v| (v as f64).cos()).collect();
        let mut once = vec![0.0; m * n];
        gemm_f64(m, kk, n, &a, &b, &mut once);
        let mut split = vec![0.0; m * n];
        for (k0, k1) in [(0usize, 3usize), (3, 7), (7, 10)] {
            let a_panel: Vec<f64> = (0..m)
                .flat_map(|i| a[i * kk + k0..i * kk + k1].to_vec())
                .collect();
            gemm_f64_acc_strided(
                &a_panel,
                k1 - k0,
                &b[k0 * n..],
                n,
                &mut split,
                n,
                (m, k1 - k0, n),
            );
        }
        assert_eq!(once, split);
    }

    #[test]
    fn transpose_kernels_overwrite_and_start_from_positive_zero() {
        // Every product is -0.0, so an accumulator that started anywhere but
        // +0.0 (or a stale output value) would show in the sign of a zero.
        let (m, kk, n) = (5, 3, 6);
        let a = vec![-0.0; kk * m];
        let b = vec![1.0; kk * n];
        let mut out = vec![f64::NAN; m * n];
        gemm_tn_f64(m, kk, n, &a, &b, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        let mut out = vec![f64::NAN; m * n];
        gemm_nt_f64(m, 0, n, &[], &[], &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::Matrix;
    use proptest::prelude::*;

    /// Mostly finite values, with signed zeros and NaNs mixed in.
    fn value() -> impl Strategy<Value = f64> {
        (0usize..11, -10.0..10.0f64).prop_map(|(pick, v)| match pick {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            _ => v,
        })
    }

    /// A `rows × cols` matrix of [`value`]s.
    fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(value(), rows * cols)
            .prop_map(move |d| Matrix::from_vec(rows, cols, d).expect("sized"))
    }

    /// Equal bit for bit, except that a NaN only has to meet a NaN: the
    /// payload a NaN operand propagates is the hardware's choice.
    fn same_bits(got: &[f64], want: &Matrix) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want.as_slice())
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    /// `n` [`value`]s.
    fn values(n: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(value(), n)
    }

    /// Equal bit for bit, a NaN meeting any NaN (see [`same_bits`]).
    fn same_slice_bits(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    proptest! {
        // Every tile remainder: 0–9 rows, p and q (the output's two sides).
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The accumulating product over strided panels is the naive triple
        /// loop from the incoming `out`: `m`, `kk` and `n` over 0–9, row
        /// strides up to two wider than each panel, and padding that must
        /// come back untouched.
        #[test]
        fn gemm_acc_strided_is_the_naive_loop(
            (shape, pads, a, b, out) in (0usize..10, 0usize..10, 0usize..10, 0usize..3, 0usize..3, 0usize..3)
                .prop_flat_map(|(m, kk, n, pa, pb, po)| {
                    let (lda, ldb, ldo) = (kk + pa, n + pb, n + po);
                    (values(m * lda), values(kk * ldb), values(m * ldo))
                        .prop_map(move |(a, b, out)| ((m, kk, n), (lda, ldb, ldo), a, b, out))
                })
        ) {
            let ((m, kk, n), (lda, ldb, ldo)) = (shape, pads);
            let mut want = out.clone();
            for i in 0..m {
                for k in 0..kk {
                    for j in 0..n {
                        want[i * ldo + j] += a[i * lda + k] * b[k * ldb + j];
                    }
                }
            }
            let mut got = out;
            gemm_f64_acc_strided(&a, lda, &b, ldb, &mut got, ldo, (m, kk, n));
            prop_assert!(same_slice_bits(&got, &want), "{got:?} vs {want:?}");
        }

        #[test]
        fn gemm_tn_is_the_reference_on_the_explicit_transpose(
            (a, g) in (0usize..10, 0usize..10, 0usize..10)
                .prop_flat_map(|(rows, p, q)| (matrix(rows, p), matrix(rows, q)))
        ) {
            let (rows, p, q) = (a.rows(), a.cols(), g.cols());
            let mut out = vec![f64::NAN; p * q];
            gemm_tn_f64(p, rows, q, a.as_slice(), g.as_slice(), &mut out);
            let want = a.transpose().matmul_reference(&g).unwrap();
            prop_assert!(same_bits(&out, &want), "{out:?} vs {want:?}");
        }

        #[test]
        fn gemm_nt_is_the_reference_on_the_explicit_transpose(
            (g, w) in (0usize..10, 0usize..10, 0usize..10)
                .prop_flat_map(|(rows, p, q)| (matrix(rows, q), matrix(p, q)))
        ) {
            let (rows, q, p) = (g.rows(), g.cols(), w.rows());
            let mut out = vec![f64::NAN; rows * p];
            gemm_nt_f64(rows, q, p, g.as_slice(), w.as_slice(), &mut out);
            let want = g.matmul_reference(&w.transpose()).unwrap();
            prop_assert!(same_bits(&out, &want), "{out:?} vs {want:?}");
        }
    }
}
