//! Cache-blocked dense kernels behind [`Matrix`]'s hot methods.
//!
//! The blocked driver here and the register-tiled microkernels of
//! [`crate::simd`] are the workspace's floating-point hot path: every
//! autodiff forward/backward pass, every Levenberg–Marquardt normal-equation
//! build, and every assembled-Jacobian product funnels into them. `matmul`
//! runs [`matmul_blocked_into`]; the transpose variants `matmul_nt_into` and
//! `matmul_tn_into` call [`gemm_nt_f64`](crate::simd::gemm_nt_f64) and
//! [`gemm_tn_f64`](crate::simd::gemm_tn_f64) directly, since their operands
//! in this workspace (backward passes over a few hundred rows, the fit's
//! `JᵀJ`) never outgrow the cache. Three rules govern the implementations:
//!
//! 1. **Bit-identical accumulation order.** For every output element
//!    `out[i][j]` the contraction index `k` is visited in ascending order, no
//!    matter how the loops are blocked or which variant (`matmul`,
//!    `matmul_nt_into`, `matmul_tn_into`) produced it. This is what lets the
//!    property tests compare every variant against the naive reference with
//!    exact equality.
//! 2. **No data-dependent branches.** The old kernel skipped `a == 0.0`
//!    multiplicands, which made timing vary with weight sparsity and would
//!    defeat blocking. All kernels here are branch-free in the inner loop.
//! 3. **No allocation in `_into` variants.** A caller that owns the output
//!    buffer decides when to allocate it.
//!
//! The block edge is the fixed [`BLOCK`]; any blocking yields the same
//! bits, so it is purely a performance constant.

use crate::Matrix;

/// Cache block (in elements) for the `i`/`k`/`j` loops: 64×64 `f64` tiles
/// are 32 KiB — an A-tile plus a B-tile stay resident in a typical
/// 64 KiB–1 MiB private cache with room for the output rows.
pub const BLOCK: usize = 64;

/// Blocked `out = a · b` into `out_data`, which must hold
/// `a.rows() * b.cols()` elements; it is zeroed first. Shapes are the
/// caller's responsibility.
///
/// The per-tile work is the register-tiled microkernel
/// [`gemm_f64_acc_strided`](crate::simd::gemm_f64_acc_strided). Tiles are
/// visited `i`-block then `k`-block, and the microkernel keeps `k`
/// ascending per output element, so the accumulation order — and therefore
/// every output bit — is identical to the naive `i`/`k`/`j` kernel for any
/// block size. Products that fit a single cache block (`rows ≤ BLOCK` and
/// `inner ≤ BLOCK`) dispatch straight to one microkernel call with no blocking
/// loop — see the crossover note in DESIGN.md §11.
pub(crate) fn matmul_blocked_into(a: &Matrix, b: &Matrix, out_data: &mut [f64]) {
    let inner = a.cols();
    let n = b.cols();
    out_data.fill(0.0);
    let rows = a.rows();
    if rows == 0 || inner == 0 || n == 0 {
        return;
    }
    let a_data = a.as_slice();
    if rows <= BLOCK && inner <= BLOCK {
        // Unblocked fast path: the whole product is one tile, so the blocking
        // loop would only add overhead (the size-64 regression of PR 5).
        crate::simd::gemm_f64_acc_strided(
            a_data,
            inner,
            b.as_slice(),
            n,
            out_data,
            n,
            (rows, inner, n),
        );
        return;
    }
    let mut ib = 0;
    while ib < rows {
        let i_end = (ib + BLOCK).min(rows);
        let mut kb = 0;
        while kb < inner {
            let k_end = (kb + BLOCK).min(inner);
            crate::simd::gemm_f64_acc_strided(
                &a_data[ib * inner + kb..],
                inner,
                &b.as_slice()[kb * n..],
                n,
                &mut out_data[ib * n..],
                n,
                (i_end - ib, k_end - kb, n),
            );
            kb = k_end;
        }
        ib = i_end;
    }
}

/// Naive `i`/`k`/`j` reference matmul into `out_data` (zeroed first). Kept
/// branch-free and block-free as the bit-exactness oracle for the blocked
/// kernels.
pub(crate) fn matmul_reference_into(a: &Matrix, b: &Matrix, out_data: &mut [f64]) {
    let n = b.cols();
    out_data.fill(0.0);
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = &mut out_data[i * n..(i + 1) * n];
        for (k, &aik) in a_row.iter().enumerate() {
            let b_row = b.row(k);
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}
