use crate::SurrogateError;
use pnc_autodiff::{Graph, Var};
use pnc_qmc::Sobol;
use serde::{Deserialize, Serialize};

/// Number of physical design parameters: `[R1, R2, R3, R4, R5, W, L]`.
pub const OMEGA_DIM: usize = 7;

/// Number of network input features after the ratio extension of Sec. III-A:
/// the 7 physical parameters plus `k₁ = R2/R1`, `k₂ = R4/R3`, `k₃ = W/L`.
pub const EXTENDED_DIM: usize = 10;

/// The feasible design space of the nonlinear circuit (Tab. I of the paper).
///
/// Bounds are in SI units (Ω and m); the inequality constraints `R1 > R2` and
/// `R3 > R4` come from the voltage-divider argument of Sec. III-A.
///
/// # Examples
///
/// ```
/// use pnc_surrogate::DesignSpace;
///
/// let space = DesignSpace::paper();
/// let omega = [200.0, 100.0, 2e5, 1e5, 2e5, 500e-6, 40e-6];
/// assert!(space.contains(&omega));
/// let ext = space.extend(&omega);
/// assert!((ext[7] - 0.5).abs() < 1e-12); // k1 = R2/R1
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// Lower bounds of the 7 physical parameters.
    pub lo: [f64; OMEGA_DIM],
    /// Upper bounds of the 7 physical parameters.
    pub hi: [f64; OMEGA_DIM],
}

impl DesignSpace {
    /// The exact box of Tab. I: R1 ∈ \[10, 500\] Ω, R2 ∈ \[5, 250\] Ω,
    /// R3 ∈ \[10, 500\] kΩ, R4 ∈ \[8, 400\] kΩ, R5 ∈ \[10, 500\] kΩ,
    /// W ∈ \[200, 800\] µm, L ∈ \[10, 70\] µm.
    pub fn paper() -> Self {
        DesignSpace {
            lo: [10.0, 5.0, 10e3, 8e3, 10e3, 200e-6, 10e-6],
            hi: [500.0, 250.0, 500e3, 400e3, 500e3, 800e-6, 70e-6],
        }
    }

    /// Returns `true` if `omega` is inside the box *and* satisfies the
    /// divider inequalities.
    pub fn contains(&self, omega: &[f64; OMEGA_DIM]) -> bool {
        omega
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&x, (&lo, &hi))| (lo..=hi).contains(&x))
            && omega[1] < omega[0]
            && omega[3] < omega[2]
    }

    /// Draws `n` quasi Monte-Carlo points from the feasible region.
    ///
    /// Sobol' points in the 7-dim box are filtered by the inequality
    /// constraints (rejection keeps the sequence's space-filling character
    /// over the feasible region). Deterministic: the same `n` always returns
    /// the same points.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::Qmc`] only if the Sobol' generator cannot be
    /// constructed (never, for 7 dimensions).
    pub fn sample(&self, n: usize) -> Result<Vec<[f64; OMEGA_DIM]>, SurrogateError> {
        DesignSampler::new(self)?.next_batch(n)
    }

    /// Extends ω with the three ratio features of Sec. III-A:
    /// `[ω…, R2/R1, R4/R3, W/L]`.
    pub fn extend(&self, omega: &[f64; OMEGA_DIM]) -> [f64; EXTENDED_DIM] {
        [
            omega[0],
            omega[1],
            omega[2],
            omega[3],
            omega[4],
            omega[5],
            omega[6],
            omega[1] / omega[0],
            omega[3] / omega[2],
            omega[5] / omega[6],
        ]
    }

    /// Lower bounds of the 10 extended features (used for min–max input
    /// normalization). Ratio bounds follow from the box: `k₁, k₂ ∈ (0, 1)`
    /// by the inequality constraints, `k₃ ∈ [Wmin/Lmax, Wmax/Lmin]`.
    pub fn extended_lo(&self) -> [f64; EXTENDED_DIM] {
        [
            self.lo[0],
            self.lo[1],
            self.lo[2],
            self.lo[3],
            self.lo[4],
            self.lo[5],
            self.lo[6],
            0.0,
            0.0,
            self.lo[5] / self.hi[6],
        ]
    }

    /// Upper bounds of the 10 extended features.
    pub fn extended_hi(&self) -> [f64; EXTENDED_DIM] {
        [
            self.hi[0],
            self.hi[1],
            self.hi[2],
            self.hi[3],
            self.hi[4],
            self.hi[5],
            self.hi[6],
            1.0,
            1.0,
            self.hi[5] / self.lo[6],
        ]
    }

    /// Min–max normalizes the extended feature vector to `[0, 1]^10`.
    pub fn normalize_extended(&self, ext: &[f64; EXTENDED_DIM]) -> [f64; EXTENDED_DIM] {
        let lo = self.extended_lo();
        let hi = self.extended_hi();
        let mut out = [0.0; EXTENDED_DIM];
        for k in 0..EXTENDED_DIM {
            out[k] = (ext[k] - lo[k]) / (hi[k] - lo[k]);
        }
        out
    }

    /// Convenience: extend then normalize a physical ω.
    pub fn normalize_omega(&self, omega: &[f64; OMEGA_DIM]) -> [f64; EXTENDED_DIM] {
        self.normalize_extended(&self.extend(omega))
    }

    /// Graph version of [`DesignSpace::normalize_omega`]: takes a `1×7` node
    /// of physical values and returns the `1×10` normalized feature node,
    /// keeping every step differentiable so the pNN can learn ω.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::Autodiff`] if `omega` is not `1×7`.
    pub fn normalize_omega_graph(&self, g: &mut Graph, omega: Var) -> Result<Var, SurrogateError> {
        if g.shape(omega) != (1, OMEGA_DIM) {
            return Err(SurrogateError::Autodiff(
                pnc_autodiff::AutodiffError::ShapeMismatch {
                    op: "normalize_omega_graph",
                    lhs: g.shape(omega),
                    rhs: (1, OMEGA_DIM),
                },
            ));
        }
        let r1 = g.slice_cols(omega, 0, 1)?;
        let r2 = g.slice_cols(omega, 1, 1)?;
        let r3 = g.slice_cols(omega, 2, 1)?;
        let r4 = g.slice_cols(omega, 3, 1)?;
        let w = g.slice_cols(omega, 5, 1)?;
        let l = g.slice_cols(omega, 6, 1)?;
        let k1 = g.div(r2, r1)?;
        let k2 = g.div(r4, r3)?;
        let k3 = g.div(w, l)?;
        let ext = g.concat_cols(&[omega, k1, k2, k3])?;

        let lo = self.extended_lo();
        let hi = self.extended_hi();
        let lo_node = g.constant(pnc_linalg::Matrix::row_vector(&lo));
        let range: Vec<f64> = lo.iter().zip(&hi).map(|(&l, &h)| h - l).collect();
        let range_node = g.constant(pnc_linalg::Matrix::row_vector(&range));
        let shifted = g.sub(ext, lo_node)?;
        Ok(g.div(shifted, range_node)?)
    }
}

/// Incremental form of [`DesignSpace::sample`]: carries the Sobol' state
/// across calls, so the concatenation of any sequence of
/// [`next_batch`](DesignSampler::next_batch) calls is **exactly** the prefix
/// a single batch [`DesignSpace::sample`] of the same total would return.
/// This is what lets both dataset builders chunk the work arbitrarily and
/// still produce the same dataset.
///
/// # Examples
///
/// ```
/// use pnc_surrogate::{DesignSampler, DesignSpace};
///
/// # fn main() -> Result<(), pnc_surrogate::SurrogateError> {
/// let space = DesignSpace::paper();
/// let batch = space.sample(30)?;
/// let mut sampler = DesignSampler::new(&space)?;
/// let mut chunked = sampler.next_batch(11)?;
/// chunked.extend(sampler.next_batch(19)?);
/// assert_eq!(batch, chunked);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesignSampler {
    space: DesignSpace,
    sobol: Sobol,
    drawn: usize,
}

impl DesignSampler {
    /// Starts the deterministic feasible-point sequence of `space`.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::Qmc`] only if the Sobol' generator cannot
    /// be constructed (never, for 7 dimensions).
    pub fn new(space: &DesignSpace) -> Result<Self, SurrogateError> {
        Ok(DesignSampler {
            space: space.clone(),
            sobol: Sobol::new(OMEGA_DIM)?,
            drawn: 0,
        })
    }

    /// Feasible points drawn so far across all batches.
    pub fn drawn(&self) -> usize {
        self.drawn
    }

    /// Draws the next `n` feasible points of the sequence.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] if the rejection loop cannot
    /// find `n` feasible points within a generous attempt cap (only possible
    /// after pathological edits to the bounds).
    pub fn next_batch(&mut self, n: usize) -> Result<Vec<[f64; OMEGA_DIM]>, SurrogateError> {
        let mut out = Vec::with_capacity(n);
        // The acceptance rate of the two inequality constraints is ≈ 0.5, so
        // this loop terminates quickly; the hard cap guards against
        // pathological edits to the bounds.
        let mut attempts = 0usize;
        let max_attempts = 100 * n.max(64);
        while out.len() < n && attempts < max_attempts {
            attempts += 1;
            let unit = self.sobol.next_point();
            let mut omega = [0.0; OMEGA_DIM];
            for (k, u) in unit.iter().enumerate() {
                omega[k] = self.space.lo[k] + u * (self.space.hi[k] - self.space.lo[k]);
            }
            if omega[1] < omega[0] && omega[3] < omega[2] {
                out.push(omega);
            }
        }
        if out.len() < n {
            return Err(SurrogateError::BadDataset {
                detail: format!(
                    "could only draw {} of {} feasible design points",
                    out.len(),
                    n
                ),
            });
        }
        self.drawn += n;
        Ok(out)
    }

    /// Advances the sequence past `n` points without returning them — how a
    /// resumed streaming build fast-forwards to the first uncommitted point.
    /// Drawing is orders of magnitude cheaper than characterizing, so a
    /// resume replays the sequence instead of persisting generator state.
    ///
    /// # Errors
    ///
    /// Same contract as [`DesignSampler::next_batch`].
    pub fn skip(&mut self, n: usize) -> Result<(), SurrogateError> {
        self.next_batch(n).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_linalg::Matrix;

    #[test]
    fn paper_bounds_match_table_one() {
        let s = DesignSpace::paper();
        assert_eq!(s.lo[0], 10.0);
        assert_eq!(s.hi[1], 250.0);
        assert_eq!(s.lo[3], 8e3);
        assert_eq!(s.hi[4], 500e3);
        assert_eq!(s.lo[5], 200e-6);
        assert_eq!(s.hi[6], 70e-6);
    }

    #[test]
    fn contains_enforces_inequalities() {
        let s = DesignSpace::paper();
        let mut omega = [200.0, 100.0, 2e5, 1e5, 2e5, 500e-6, 40e-6];
        assert!(s.contains(&omega));
        omega[1] = 250.0;
        omega[0] = 240.0;
        assert!(!s.contains(&omega), "r2 >= r1 must be infeasible");
    }

    #[test]
    fn samples_are_feasible_and_deterministic() {
        let s = DesignSpace::paper();
        let a = s.sample(100).unwrap();
        let b = s.sample(100).unwrap();
        assert_eq!(a, b);
        for omega in &a {
            assert!(s.contains(omega), "infeasible sample {omega:?}");
        }
    }

    #[test]
    fn samples_cover_the_box() {
        let s = DesignSpace::paper();
        let pts = s.sample(500).unwrap();
        // Every coordinate should span most of its range.
        for k in 0..OMEGA_DIM {
            let min = pts.iter().map(|p| p[k]).fold(f64::INFINITY, f64::min);
            let max = pts.iter().map(|p| p[k]).fold(f64::NEG_INFINITY, f64::max);
            let span = (max - min) / (s.hi[k] - s.lo[k]);
            assert!(span > 0.8, "coordinate {k} spans only {span}");
        }
    }

    #[test]
    fn extension_computes_ratios() {
        let s = DesignSpace::paper();
        let omega = [100.0, 50.0, 1e5, 2.5e4, 3e5, 600e-6, 30e-6];
        let ext = s.extend(&omega);
        assert!((ext[7] - 0.5).abs() < 1e-12);
        assert!((ext[8] - 0.25).abs() < 1e-12);
        assert!((ext[9] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_lands_in_unit_box() {
        let s = DesignSpace::paper();
        for omega in s.sample(200).unwrap() {
            let norm = s.normalize_omega(&omega);
            for (k, v) in norm.iter().enumerate() {
                assert!(
                    (-1e-9..=1.0 + 1e-9).contains(v),
                    "feature {k} out of unit box: {v}"
                );
            }
        }
    }

    #[test]
    fn graph_normalization_matches_plain() {
        let s = DesignSpace::paper();
        let omega = [150.0, 60.0, 2e5, 5e4, 4e5, 700e-6, 25e-6];
        let plain = s.normalize_omega(&omega);

        let mut g = Graph::new();
        let node = g.leaf(Matrix::row_vector(&omega));
        let out = s.normalize_omega_graph(&mut g, node).unwrap();
        let got = g.value(out);
        for k in 0..EXTENDED_DIM {
            assert!(
                (got[(0, k)] - plain[k]).abs() < 1e-12,
                "feature {k}: {} vs {}",
                got[(0, k)],
                plain[k]
            );
        }
    }

    #[test]
    fn graph_normalization_rejects_bad_shape() {
        let s = DesignSpace::paper();
        let mut g = Graph::new();
        let node = g.leaf(Matrix::zeros(1, 3));
        assert!(s.normalize_omega_graph(&mut g, node).is_err());
    }

    #[test]
    fn graph_normalization_is_differentiable() {
        // ω components span 9 orders of magnitude, so check the gradient
        // through relative multipliers: ω = m ⊙ ω₀ with m ≈ 1.
        let s = DesignSpace::paper();
        let omega0 = [150.0, 60.0, 2e5, 5e4, 4e5, 700e-6, 25e-6];
        let report = pnc_autodiff::gradcheck::check_gradients(
            &[Matrix::filled(1, OMEGA_DIM, 1.0)],
            1e-7,
            |g, vars| {
                let base = g.constant(Matrix::row_vector(&omega0));
                let omega = g.mul(vars[0], base).unwrap();
                let n = s.normalize_omega_graph(g, omega).unwrap();
                g.sum(n)
            },
        );
        assert!(report.max_abs_error < 1e-5, "{report:?}");
    }
}
