//! Autovectorization-friendly dense `f64` microkernels.
//!
//! These are the register-tiled inner loops behind both the cache-blocked
//! [`Matrix`](crate::Matrix) matmul and the compiled inference plan in
//! `pnc-core`. Everything is safe code: the kernels are written so LLVM's
//! autovectorizer turns the fixed-width accumulator arrays into 4-wide
//! SIMD registers, without `unsafe`, intrinsics, or feature detection.
//! Only `f64` is provided: the inference plan must stay bit-identical to
//! the autodiff graph, and reduced-precision plans were measured not to
//! pay (DESIGN.md §12).
//!
//! The one non-negotiable rule carries over from [`crate::kernels`]: **for
//! every output element the contraction index `k` ascends in exactly the
//! order the naive triple loop uses**. Register tiling unrolls across output
//! *columns* (independent accumulators per output element) and output
//! *rows*, never across `k` — so every kernel here is bit-identical to
//! [`Matrix::matmul_reference`](crate::Matrix::matmul_reference) and the
//! naive loop.
//!
//! The strided entry point [`gemm_f64_acc_strided`] accumulates into `out`
//! instead of overwriting it, which is what lets the blocked driver sweep
//! `k` in cache-sized panels: storing a partial sum to memory and reloading
//! it is exact in IEEE arithmetic, so panel boundaries never change results.

/// Rows per register tile: four independent output rows share each loaded
/// slice of `B`, quadrupling the arithmetic intensity of the inner loop.
const MR: usize = 4;

/// Accumulator width: one AVX2 register of `f64`.
const NR: usize = 4;

/// Accumulates `out[0..m, 0..n] += A[0..m, 0..kk] · B[0..kk, 0..n]` over
/// strided row-major panels (`lda`/`ldb`/`ldo` elements between row
/// starts); the final argument is the `(m, kk, n)` shape triple. Per
/// output element the contraction index `k` ascends, so the result is
/// bit-identical to the naive triple loop for any tiling.
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
    let mut i = 0;
    // Four-row register tile: every loaded B slice feeds 4 rows.
    while i + MR <= m {
        let a0 = &a[i * lda..i * lda + kk];
        let a1 = &a[(i + 1) * lda..(i + 1) * lda + kk];
        let a2 = &a[(i + 2) * lda..(i + 2) * lda + kk];
        let a3 = &a[(i + 3) * lda..(i + 3) * lda + kk];
        let mut j = 0;
        while j + NR <= n {
            let mut c0 = [0.0; NR];
            let mut c1 = [0.0; NR];
            let mut c2 = [0.0; NR];
            let mut c3 = [0.0; NR];
            c0.copy_from_slice(&out[i * ldo + j..i * ldo + j + NR]);
            c1.copy_from_slice(&out[(i + 1) * ldo + j..(i + 1) * ldo + j + NR]);
            c2.copy_from_slice(&out[(i + 2) * ldo + j..(i + 2) * ldo + j + NR]);
            c3.copy_from_slice(&out[(i + 3) * ldo + j..(i + 3) * ldo + j + NR]);
            for k in 0..kk {
                let bv = &b[k * ldb + j..k * ldb + j + NR];
                let (x0, x1, x2, x3) = (a0[k], a1[k], a2[k], a3[k]);
                for l in 0..NR {
                    c0[l] += x0 * bv[l];
                }
                for l in 0..NR {
                    c1[l] += x1 * bv[l];
                }
                for l in 0..NR {
                    c2[l] += x2 * bv[l];
                }
                for l in 0..NR {
                    c3[l] += x3 * bv[l];
                }
            }
            out[i * ldo + j..i * ldo + j + NR].copy_from_slice(&c0);
            out[(i + 1) * ldo + j..(i + 1) * ldo + j + NR].copy_from_slice(&c1);
            out[(i + 2) * ldo + j..(i + 2) * ldo + j + NR].copy_from_slice(&c2);
            out[(i + 3) * ldo + j..(i + 3) * ldo + j + NR].copy_from_slice(&c3);
            j += NR;
        }
        // Column remainder: scalar accumulators, same k order.
        while j < n {
            let mut c0 = out[i * ldo + j];
            let mut c1 = out[(i + 1) * ldo + j];
            let mut c2 = out[(i + 2) * ldo + j];
            let mut c3 = out[(i + 3) * ldo + j];
            for k in 0..kk {
                let bv = b[k * ldb + j];
                c0 += a0[k] * bv;
                c1 += a1[k] * bv;
                c2 += a2[k] * bv;
                c3 += a3[k] * bv;
            }
            out[i * ldo + j] = c0;
            out[(i + 1) * ldo + j] = c1;
            out[(i + 2) * ldo + j] = c2;
            out[(i + 3) * ldo + j] = c3;
            j += 1;
        }
        i += MR;
    }
    // Row remainder: single-row tile, NR-wide then scalar columns.
    while i < m {
        let ar = &a[i * lda..i * lda + kk];
        let mut j = 0;
        while j + NR <= n {
            let mut c = [0.0; NR];
            c.copy_from_slice(&out[i * ldo + j..i * ldo + j + NR]);
            for k in 0..kk {
                let bv = &b[k * ldb + j..k * ldb + j + NR];
                let x = ar[k];
                for l in 0..NR {
                    c[l] += x * bv[l];
                }
            }
            out[i * ldo + j..i * ldo + j + NR].copy_from_slice(&c);
            j += NR;
        }
        while j < n {
            let mut c = out[i * ldo + j];
            for k in 0..kk {
                c += ar[k] * b[k * ldb + j];
            }
            out[i * ldo + j] = c;
            j += 1;
        }
        i += 1;
    }
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
}
