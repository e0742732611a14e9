//! The arithmetic stages of one printed crossbar layer over flat row-major
//! buffers: Eq. 1's normalized sign-split weights, the `[x, 1, 0]`
//! extended input, Eq. 3's inverter, the dual crossbar GEMM and Eq. 2's
//! ptanh — each with its hand-derived backward pass.
//!
//! [`crate::InferencePlan`] runs the forward stages and the trainer's
//! compiled step (`crate::train_plan`) runs them forward and backward, so
//! the arithmetic exists once. Every forward stage performs the IEEE
//! operations of the autodiff ops [`crate::Pnn::forward`] records, in the
//! same order, and every backward stage forms and sums its terms in the
//! order `Graph::backward_into` does. The curves call
//! [`pnc_linalg::tanh`], the function `Graph::tanh` records, in three flat
//! passes over a layer (the tanh argument, `tanh`, the output map) that
//! LLVM vectorizes where a per-element curve call would not, and the
//! crossbar's gradient products `∂W = Xᵀ·∂Z` and `∂X = ∂Z·Wᵀ` are not
//! stages of their own: the trainer calls
//! [`gemm_tn_f64`](pnc_linalg::simd::gemm_tn_f64) and
//! [`gemm_nt_f64`](pnc_linalg::simd::gemm_nt_f64), the kernels behind the
//! tape's `matmul` backward. Both plans are therefore bit for bit equal to
//! the tape.

use pnc_linalg::simd::gemm_f64;
use pnc_linalg::tanh;

/// Eq. 1's weights from effective conductances `theta` (`rows × out`,
/// row-major): the column totals `Σ_r |θ|` (rows ascending), then
/// `|θ| / total` times a 1.0/0.0 sign mask for each path — `W⁺` where
/// θ ≥ 0, `W⁻` where θ < 0 — exactly the tape's `abs`, `sum_rows`, `div`
/// and mask `mul`.
pub(crate) fn normalize(
    theta: &[f64],
    out: usize,
    total: &mut [f64],
    w_pos: &mut [f64],
    w_neg: &mut [f64],
) {
    total.fill(0.0);
    for row in theta.chunks_exact(out) {
        for (t, &p) in total.iter_mut().zip(row) {
            *t += p.abs();
        }
    }
    for (k, &p) in theta.iter().enumerate() {
        let weight = p.abs() / total[k % out];
        w_pos[k] = weight * if p >= 0.0 { 1.0 } else { 0.0 };
        w_neg[k] = weight * if p < 0.0 { 1.0 } else { 0.0 };
    }
}

/// The extended input `[x, 1, 0]` of Eq. 1: each `in_dim`-wide row of `x`,
/// then the 1 V bias input and the grounded `g_d` leg.
pub(crate) fn extend(x: &[f64], in_dim: usize, x_ext: &mut [f64]) {
    for (dst, src) in x_ext
        .chunks_exact_mut(in_dim + 2)
        .zip(x.chunks_exact(in_dim))
    {
        dst[..in_dim].copy_from_slice(src);
        dst[in_dim] = 1.0;
        dst[in_dim + 1] = 0.0;
    }
}

/// Eq. 3's inverter curve `η₁ − η₂·tanh((v − η₃)·η₄)` at `v`, as
/// `(tanh value, output)`: the operation sequence of [`crate::apply_inv`].
#[inline]
pub(crate) fn inv_curve(e: &[f64; 4], v: f64) -> (f64, f64) {
    let t = tanh((v - e[2]) * e[3]);
    (t, e[0] - t * e[1])
}

/// Applies `f(η, v)` to every element of the `out`-wide rows of `src`,
/// writing `dst`: `etas` holds one circuit for every column, or one per
/// column. The one-circuit case is a flat loop LLVM vectorizes.
#[inline(always)]
fn map_curve(
    etas: &[[f64; 4]],
    out: usize,
    src: &[f64],
    dst: &mut [f64],
    f: impl Fn(&[f64; 4], f64) -> f64,
) {
    if let [eta] = etas {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = f(eta, v);
        }
    } else {
        for (d_row, s_row) in dst.chunks_exact_mut(out).zip(src.chunks_exact(out)) {
            for ((d, &v), eta) in d_row.iter_mut().zip(s_row).zip(etas) {
                *d = f(eta, v);
            }
        }
    }
}

/// [`tanh`] in place over a flat slice: the middle pass of both curves.
fn tanh_in_place(values: &mut [f64]) {
    for v in values {
        *v = tanh(*v);
    }
}

/// The negative-path input `[inv(x), inv(1), 0]` of Eq. 3 from the
/// extended input `x_ext`, given `inv_one = inv(1 V)`; the tanh of every
/// input element goes to `t` (`rows × in_dim`) for the backward pass.
///
/// Three passes, each a flat loop: the tanh argument `(v − η₃)·η₄` into
/// `t`, [`tanh`] over `t` in place, then `η₁ − t·η₂` into `x_neg`. Every
/// element sees the operations of [`inv_curve`] in its order.
pub(crate) fn invert(
    eta: &[f64; 4],
    inv_one: f64,
    x_ext: &[f64],
    in_dim: usize,
    t: &mut [f64],
    x_neg: &mut [f64],
) {
    let ext = in_dim + 2;
    for (t_row, src) in t.chunks_exact_mut(in_dim).zip(x_ext.chunks_exact(ext)) {
        for (a, &v) in t_row.iter_mut().zip(&src[..in_dim]) {
            *a = (v - eta[2]) * eta[3];
        }
    }
    tanh_in_place(t);
    for (dst, t_row) in x_neg.chunks_exact_mut(ext).zip(t.chunks_exact(in_dim)) {
        for (d, &tk) in dst.iter_mut().zip(t_row) {
            *d = eta[0] - tk * eta[1];
        }
        dst[in_dim] = inv_one;
        dst[in_dim + 1] = 0.0;
    }
}

/// The crossbar of one circuit pair: `z = x_ext·W⁺ + x_neg·W⁻`, two
/// GEMMs with the contraction index ascending, then the elementwise sum.
// Audited: the nine slices are the operands and outputs of Eq. 1 + Eq. 3
// one-to-one; a struct would bundle borrows the two plans hold in
// different owners.
#[allow(clippy::too_many_arguments)]
pub(crate) fn crossbar(
    ext: usize,
    out: usize,
    x_ext: &[f64],
    x_neg: &[f64],
    w_pos: &[f64],
    w_neg: &[f64],
    z_pos: &mut [f64],
    z_neg: &mut [f64],
    z: &mut [f64],
) {
    let rows = z.len() / out;
    gemm_f64(rows, ext, out, x_ext, w_pos, z_pos);
    gemm_f64(rows, ext, out, x_neg, w_neg, z_neg);
    for ((z, &p), &n) in z.iter_mut().zip(z_pos.iter()).zip(z_neg.iter()) {
        *z = p + n;
    }
}

/// Column `j` of a per-neuron layer, whose negative path `x_neg` went
/// through column `j`'s own inverter: `z[i][j] = x_ext[i]·W⁺[:, j] +
/// x_neg[i]·W⁻[:, j]`, each dot product with `k` ascending from 0.
pub(crate) fn crossbar_column(
    j: usize,
    out: usize,
    x_ext: &[f64],
    x_neg: &[f64],
    w_pos: &[f64],
    w_neg: &[f64],
    z: &mut [f64],
) {
    let ext = w_pos.len() / out;
    for ((pos_row, neg_row), z_row) in x_ext
        .chunks_exact(ext)
        .zip(x_neg.chunks_exact(ext))
        .zip(z.chunks_exact_mut(out))
    {
        let mut z_pos = 0.0;
        for (k, &x) in pos_row.iter().enumerate() {
            z_pos += x * w_pos[k * out + j];
        }
        let mut z_neg = 0.0;
        for (k, &x) in neg_row.iter().enumerate() {
            z_neg += x * w_neg[k * out + j];
        }
        z_row[j] = z_pos + z_neg;
    }
}

/// Eq. 2's ptanh `η₁ + η₂·tanh((v − η₃)·η₄)` over the `out`-wide rows of
/// `z` into `h`, saving each tanh in `t`. `etas` holds one circuit for the
/// layer, or one per output neuron.
///
/// Three passes, as [`invert`]: the argument `(v − η₃)·η₄` into `t`,
/// [`tanh`] over `t`, then `t·η₂ + η₁` into `h` — per element the
/// operations `Graph::tanh` and its neighbours record, in their order.
pub(crate) fn activate(etas: &[[f64; 4]], out: usize, z: &[f64], t: &mut [f64], h: &mut [f64]) {
    map_curve(etas, out, z, t, |e, v| (v - e[2]) * e[3]);
    tanh_in_place(t);
    map_curve(etas, out, t, h, |e, tk| tk * e[1] + e[0]);
}

/// Which transfer curve a backward pass runs through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Curve {
    /// Eq. 2's rising ptanh, recorded as `add(η₂·t, η₁)`.
    Ptanh,
    /// Eq. 3's falling inverter, recorded as `sub(η₁, η₂·t)`.
    Inverter,
}

/// Backward of one circuit's curve over a `rows × width` block of
/// elements, visited row-major as the tape's matrix is. `elem(i, k)` gives
/// the element's upstream gradient, its saved tanh value and the curve's
/// input; `input_grad(i, k, g)` receives the gradient of the curve input.
/// Returns `∂L/∂η_k` for `k = 1..4`, each summed from 0 in element order as
/// the tape reduces its broadcast `1×1` slices.
pub(crate) fn curve_backward(
    eta: &[f64; 4],
    curve: Curve,
    (rows, width): (usize, usize),
    elem: impl Fn(usize, usize) -> (f64, f64, f64),
    mut input_grad: impl FnMut(usize, usize, f64),
) -> [f64; 4] {
    let mut sums = [0.0; 4];
    for i in 0..rows {
        for k in 0..width {
            let (g, t, v) = elem(i, k);
            sums[0] += g;
            // The tape scales by −1.0 where a `sub` passes a gradient to its
            // right operand; negation gives the same bits.
            let amp_g = match curve {
                Curve::Ptanh => g,
                Curve::Inverter => -g,
            };
            sums[1] += amp_g * t;
            let scaled_g = (amp_g * eta[1]) * (1.0 - t * t);
            sums[3] += scaled_g * (v - eta[2]);
            let shifted_g = scaled_g * eta[3];
            sums[2] += -shifted_g;
            input_grad(i, k, shifted_g);
        }
    }
    sums
}

/// Adds one curve's `∂L/∂η` into its circuit's accumulator the way the
/// tape does: the four `slice_cols` nodes (η₄ first, as the tape visits
/// them) each contribute a zero-padded `1×4` gradient, which sets an empty
/// slot and is added elementwise to an occupied one.
pub(crate) fn accumulate_eta(slot: &mut Option<[f64; 4]>, sums: [f64; 4]) {
    for k in (0..4).rev() {
        let mut padded = [0.0; 4];
        padded[k] = sums[k];
        match slot {
            None => *slot = Some(padded),
            Some(acc) => {
                for (a, p) in acc.iter_mut().zip(padded) {
                    *a += p;
                }
            }
        }
    }
}

/// Sums per-column gradients `cols` (`rows × out`) into `acc` the way the
/// tape sums the `slice_cols` gradients of a per-neuron layer: column
/// `out − 1` arrives first, zero-padded to the full width, and every
/// later column adds its own zero-padded matrix.
pub(crate) fn accumulate_padded_columns(cols: &[f64], out: usize, acc: &mut [f64]) {
    for (idx, a) in acc.iter_mut().enumerate() {
        let c = idx % out;
        let pad = |j: usize| if j == c { cols[idx] } else { 0.0 };
        let mut v = pad(out - 1);
        for j in (0..out - 1).rev() {
            v += pad(j);
        }
        *a = v;
    }
}

/// The subgradient `sign(x)` of `abs`, 0 at 0, as the tape's.
fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Backward of [`normalize`] and of the variation multiply before it:
/// `∂L/∂θ` into `grad` (`rows × out`) from the weight gradients. `theta`
/// is the effective (varied) conductance [`normalize`] saw, `factors` the
/// variation factors that produced it from the printable θ, and
/// `total_g` (`out` long) is scratch. The tape sums `W⁻`'s term first, then
/// `W⁺`'s; divides; reduces the total's gradient down the rows; adds it
/// back per row; and multiplies by `sign(θ)` and the factors.
// Audited: the arguments are the saved forward values, the two incoming
// gradients, one scratch row and the output of one backward stage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn normalize_backward(
    theta: &[f64],
    factors: Option<&[f64]>,
    total: &[f64],
    gw_pos: &[f64],
    gw_neg: &[f64],
    total_g: &mut [f64],
    grad: &mut [f64],
) {
    let out = total.len();
    // ∂L/∂weights: the W⁻ mask product, then W⁺'s added.
    for (k, g) in grad.iter_mut().enumerate() {
        let p = theta[k];
        *g = gw_neg[k] * if p < 0.0 { 1.0 } else { 0.0 }
            + gw_pos[k] * if p >= 0.0 { 1.0 } else { 0.0 };
    }
    total_g.fill(0.0);
    for (k, &g) in grad.iter().enumerate() {
        let y = total[k % out];
        total_g[k % out] += g * (-theta[k].abs() / (y * y));
    }
    for (k, g) in grad.iter_mut().enumerate() {
        let j = k % out;
        let magnitude_g = *g / total[j] + total_g[j];
        let eps_g = magnitude_g * sign(theta[k]);
        *g = match factors {
            Some(f) => eps_g * f[k],
            None => eps_g,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_columns_turn_negative_zero_positive_like_the_tape() {
        // -0.0 + 0.0 = +0.0: the tape's padding additions are visible in
        // the sign of a zero, so the accumulation must replay them.
        let cols = [-0.0, 2.0, -0.0, 3.0];
        let mut acc = [9.0; 4];
        accumulate_padded_columns(&cols, 2, &mut acc);
        assert_eq!(
            acc.map(f64::to_bits),
            [0.0, 2.0, 0.0, 3.0].map(f64::to_bits)
        );
        let mut slot = None;
        accumulate_eta(&mut slot, [-0.0, 1.0, 2.0, 3.0]);
        assert_eq!(
            slot.map(|s| s.map(f64::to_bits)),
            Some([0.0, 1.0, 2.0, 3.0].map(f64::to_bits))
        );
    }
}
