//! The printed crossbar layer (Eq. 1) with straight-through conductance
//! projection.

use crate::nonlinearity::{apply_inv, apply_ptanh};
use crate::PnnError;
use pnc_autodiff::{Graph, Parameter, Var};
use pnc_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Projects a surrogate-conductance value onto the printable set
/// `[−G_max, −G_min] ∪ {0} ∪ [G_min, G_max]` (Sec. II-C):
///
/// * magnitudes below `G_min/2` round to "not printed" (zero),
/// * magnitudes in `[G_min/2, G_min)` snap up to the minimum printable
///   conductance,
/// * magnitudes above `G_max` clip to the maximum.
///
/// Training passes gradients straight through this projection.
///
/// # Examples
///
/// ```
/// use pnc_core::project_printable;
///
/// assert_eq!(project_printable(0.004, 0.01, 1.0), 0.0);
/// assert_eq!(project_printable(0.007, 0.01, 1.0), 0.01);
/// assert_eq!(project_printable(-3.0, 0.01, 1.0), -1.0);
/// assert_eq!(project_printable(0.5, 0.01, 1.0), 0.5);
/// ```
pub fn project_printable(theta: f64, g_min: f64, g_max: f64) -> f64 {
    let magnitude = theta.abs();
    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
    if magnitude < 0.5 * g_min {
        0.0
    } else if magnitude < g_min {
        sign * g_min
    } else if magnitude > g_max {
        sign * g_max
    } else {
        theta
    }
}

/// One printed crossbar layer.
///
/// The learnable parameter θ has shape `(in + 2) × out`: one row per input
/// voltage, one row for the 1 V bias leg, and one row for the grounded
/// `g_d` leg of Eq. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PLayer {
    /// Surrogate conductances θ.
    pub theta: Parameter,
    in_dim: usize,
    out_dim: usize,
}

impl PLayer {
    /// Creates a layer with conductances drawn uniformly from the printable
    /// magnitude range with random signs.
    pub fn new(in_dim: usize, out_dim: usize, g_min: f64, g_max: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let theta = Matrix::from_fn(in_dim + 2, out_dim, |_, _| {
            let magnitude = rng.gen_range(g_min..g_max.min(10.0 * g_min));
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * magnitude
        });
        PLayer {
            theta: Parameter::new(theta),
            in_dim,
            out_dim,
        }
    }

    /// Input dimension (excluding the bias and `g_d` rows).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Shape of the θ parameter.
    pub fn theta_shape(&self) -> (usize, usize) {
        (self.in_dim + 2, self.out_dim)
    }

    /// The printable conductance matrix (projected θ values).
    pub fn printable_conductances(&self, g_min: f64, g_max: f64) -> Matrix {
        self.theta
            .value()
            .map(|t| project_printable(t, g_min, g_max))
    }

    /// Builds the crossbar forward pass on the graph.
    ///
    /// Implements Eq. 1 with negative weights (Eq. 3): each projected (and
    /// optionally variation-scaled) conductance contributes its input
    /// voltage — routed through the negative-weight circuit when θ < 0 —
    /// normalized by the total conductance including bias and `g_d` legs.
    ///
    /// Arguments:
    /// * `theta_var` — the leaf registered for this layer's θ,
    /// * `x` — input voltages, `B × in`,
    /// * `etas` — `(activation, negative-weight)` curve-parameter node pairs
    ///   (`1×4` each): one pair shared by the whole layer, or one pair per
    ///   output neuron (the per-neuron bespoke granularity),
    /// * `theta_factors` — optional printing-variation factors, multiplying
    ///   the *projected* conductances (Sec. III-C),
    /// * `apply_activation` — whether the ptanh circuit follows the crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError`] on shape mismatches or if `etas` has neither 1
    /// nor `out_dim` entries.
    // Audited: the eight arguments mirror Eq. 1's inputs one-to-one (tape,
    // conductances, input voltages, circuit curves, the g_min/g_max printing
    // window, variation factors, activation switch). Bundling them into a
    // struct would add a builder used at exactly two call sites and hide the
    // correspondence with the paper, so the lint is waived instead.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        theta_var: Var,
        x: Var,
        etas: &[(Var, Var)],
        g_min: f64,
        g_max: f64,
        theta_factors: Option<&Matrix>,
        apply_activation: bool,
    ) -> Result<Var, PnnError> {
        if etas.len() != 1 && etas.len() != self.out_dim {
            return Err(PnnError::Config {
                detail: format!(
                    "layer with {} outputs got {} circuit pairs (need 1 or {})",
                    self.out_dim,
                    etas.len(),
                    self.out_dim
                ),
            });
        }
        let batch = g.shape(x).0;
        if g.shape(x).1 != self.in_dim {
            return Err(PnnError::Data {
                detail: format!("layer expects {} inputs, got {}", self.in_dim, g.shape(x).1),
            });
        }

        // Straight-through projection onto the printable set.
        let projected = g
            .value(theta_var)
            .map(|t| project_printable(t, g_min, g_max));
        let theta_p = g.ste(theta_var, projected)?;

        // Printing variation multiplies printable values.
        let theta_eps = match theta_factors {
            Some(f) => {
                let fc = g.constant(f);
                g.mul(theta_p, fc)?
            }
            None => theta_p,
        };

        // Normalized conductance weights W = |θ| / Σ_col |θ| (Eq. 1).
        let magnitude = g.abs(theta_eps);
        let total = g.sum_rows(magnitude);
        let weights = g.div(magnitude, total)?;

        // Sign masks are data-dependent constants of this forward pass.
        let theta_now = g.value(theta_eps).clone();
        let mask_pos = theta_now.map(|t| if t >= 0.0 { 1.0 } else { 0.0 });
        let mask_neg = theta_now.map(|t| if t < 0.0 { 1.0 } else { 0.0 });
        let mask_pos = g.constant(mask_pos);
        let mask_neg = g.constant(mask_neg);
        let w_pos = g.mul(weights, mask_pos)?;
        let w_neg = g.mul(weights, mask_neg)?;

        // Extended inputs: [x, 1 (bias), 0 (g_d)], and the negative-weight
        // path [inv(x), inv(1), 0]. The g_d leg is grounded, so its voltage
        // is 0 on both paths regardless of the θ sign.
        let ones = g.constant(Matrix::filled(batch, 1, 1.0));
        let zeros = g.constant(Matrix::filled(batch, 1, 0.0));
        let x_pos = g.concat_cols(&[x, ones, zeros])?;

        if etas.len() == 1 {
            // One circuit pair for the whole layer: single matmul path.
            let (_, eta_inv) = etas[0];
            let x_inv = apply_inv(g, eta_inv, x)?;
            let ones_inv = apply_inv(g, eta_inv, ones)?;
            let x_neg = g.concat_cols(&[x_inv, ones_inv, zeros])?;
            let z_pos = g.matmul(x_pos, w_pos)?;
            let z_neg = g.matmul(x_neg, w_neg)?;
            let z = g.add(z_pos, z_neg)?;
            return if apply_activation {
                apply_ptanh(g, etas[0].0, z)
            } else {
                Ok(z)
            };
        }

        // Per-neuron bespoke circuits: every output column j routes its
        // negative-weight inputs through *its own* inverter design and (if
        // enabled) its own activation circuit.
        let mut columns = Vec::with_capacity(self.out_dim);
        for (j, &(eta_act, eta_inv)) in etas.iter().enumerate() {
            let w_pos_j = g.slice_cols(w_pos, j, 1)?;
            let w_neg_j = g.slice_cols(w_neg, j, 1)?;
            let x_inv = apply_inv(g, eta_inv, x)?;
            let ones_inv = apply_inv(g, eta_inv, ones)?;
            let x_neg = g.concat_cols(&[x_inv, ones_inv, zeros])?;
            let z_pos = g.matmul(x_pos, w_pos_j)?;
            let z_neg = g.matmul(x_neg, w_neg_j)?;
            let z = g.add(z_pos, z_neg)?;
            columns.push(if apply_activation {
                apply_ptanh(g, eta_act, z)?
            } else {
                z
            });
        }
        Ok(g.concat_cols(&columns)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_cases() {
        let (g_min, g_max) = (0.01, 1.0);
        assert_eq!(project_printable(0.0, g_min, g_max), 0.0);
        assert_eq!(project_printable(0.0049, g_min, g_max), 0.0);
        assert_eq!(project_printable(-0.0049, g_min, g_max), 0.0);
        assert_eq!(project_printable(0.0051, g_min, g_max), 0.01);
        assert_eq!(project_printable(-0.0051, g_min, g_max), -0.01);
        assert_eq!(project_printable(0.02, g_min, g_max), 0.02);
        assert_eq!(project_printable(1.7, g_min, g_max), 1.0);
        assert_eq!(project_printable(-1.7, g_min, g_max), -1.0);
    }

    #[test]
    fn projected_values_are_always_printable() {
        let (g_min, g_max) = (0.01, 1.0);
        for i in -2000..2000 {
            let theta = i as f64 * 1e-3;
            let p = project_printable(theta, g_min, g_max);
            let m = p.abs();
            assert!(
                m == 0.0 || (g_min..=g_max).contains(&m),
                "unprintable projection {p} from {theta}"
            );
            // Sign is preserved for nonzero projections.
            if p != 0.0 {
                assert_eq!(p.signum(), theta.signum());
            }
        }
    }

    fn toy_etas(g: &mut Graph) -> (Var, Var) {
        let act = g.constant(Matrix::row_vector(&[0.5, 0.4, 0.5, 4.0]));
        let inv = g.constant(Matrix::row_vector(&[0.45, 0.4, 0.5, 5.0]));
        (act, inv)
    }

    #[test]
    fn forward_shapes_and_range() {
        let layer = PLayer::new(3, 2, 0.01, 1.0, 7);
        let mut g = Graph::new();
        let theta = layer.theta.leaf(&mut g);
        let x = g.constant(Matrix::from_fn(5, 3, |i, j| ((i + j) % 3) as f64 / 2.0));
        let (act, inv) = toy_etas(&mut g);
        let out = layer
            .forward(&mut g, theta, x, &[(act, inv)], 0.01, 1.0, None, true)
            .unwrap();
        assert_eq!(g.shape(out), (5, 2));
        // ptanh output stays within η₁ ± η₂.
        for &v in g.value(out).as_slice() {
            assert!((0.1 - 1e-9..=0.9 + 1e-9).contains(&v), "activation {v}");
        }
    }

    #[test]
    fn all_positive_theta_uses_plain_inputs() {
        // With positive θ and no activation, the output is the Eq. 1
        // weighted mean of inputs, bias 1 V, and the grounded g_d leg.
        let mut layer = PLayer::new(2, 1, 0.01, 1.0, 1);
        *layer.theta.value_mut() = Matrix::from_rows(&[&[0.2], &[0.3], &[0.4], &[0.1]]).unwrap();
        let mut g = Graph::new();
        let theta = layer.theta.leaf(&mut g);
        let x = g.constant(Matrix::row_vector(&[0.8, 0.4]));
        let (act, inv) = toy_etas(&mut g);
        let out = layer
            .forward(&mut g, theta, x, &[(act, inv)], 0.01, 1.0, None, false)
            .unwrap();
        let expected = (0.2 * 0.8 + 0.3 * 0.4 + 0.4 * 1.0) / (0.2 + 0.3 + 0.4 + 0.1);
        assert!((g.value(out)[(0, 0)] - expected).abs() < 1e-12);
    }

    #[test]
    fn negative_theta_routes_through_inverter() {
        let mut layer = PLayer::new(1, 1, 0.01, 1.0, 1);
        *layer.theta.value_mut() = Matrix::from_rows(&[&[-0.5], &[0.3], &[0.2]]).unwrap();
        let mut g = Graph::new();
        let theta = layer.theta.leaf(&mut g);
        let x = g.constant(Matrix::row_vector(&[0.9]));
        let (act, inv_eta) = toy_etas(&mut g);
        let out = layer
            .forward(&mut g, theta, x, &[(act, inv_eta)], 0.01, 1.0, None, false)
            .unwrap();
        // inv(0.9) with η = [0.45, 0.4, 0.5, 5.0]: the falling inverter curve.
        let inv_val = 0.45 - 0.4 * pnc_linalg::tanh((0.9f64 - 0.5) * 5.0);
        let expected = (0.5 * inv_val + 0.3 * 1.0) / (0.5 + 0.3 + 0.2);
        assert!(
            (g.value(out)[(0, 0)] - expected).abs() < 1e-12,
            "{} vs {expected}",
            g.value(out)[(0, 0)]
        );
    }

    #[test]
    fn variation_factors_change_the_output() {
        let layer = PLayer::new(3, 2, 0.01, 1.0, 3);
        let x_data = Matrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f64 / 4.0);

        let run = |factors: Option<&Matrix>| -> Matrix {
            let mut g = Graph::new();
            let theta = layer.theta.leaf(&mut g);
            let x = g.constant(&x_data);
            let (act, inv) = toy_etas(&mut g);
            let out = layer
                .forward(&mut g, theta, x, &[(act, inv)], 0.01, 1.0, factors, true)
                .unwrap();
            g.value(out).clone()
        };

        let nominal = run(None);
        let factors = Matrix::from_fn(5, 2, |i, j| 1.0 + 0.08 * ((i + 2 * j) % 3) as f64 - 0.08);
        let varied = run(Some(&factors));
        assert_ne!(nominal, varied);
    }

    #[test]
    fn gradient_flows_to_theta_through_projection() {
        let layer = PLayer::new(2, 2, 0.01, 1.0, 11);
        let mut g = Graph::new();
        let theta = layer.theta.leaf(&mut g);
        let x = g.constant(Matrix::from_fn(3, 2, |i, j| (i + j) as f64 / 4.0));
        let (act, inv) = toy_etas(&mut g);
        let out = layer
            .forward(&mut g, theta, x, &[(act, inv)], 0.01, 1.0, None, true)
            .unwrap();
        let loss = g.mean(out);
        let grads = g.backward(loss).unwrap();
        let gt = grads.get(theta).expect("theta gradient");
        assert!(gt.norm() > 0.0);
        assert_eq!(gt.shape(), layer.theta_shape());
    }

    #[test]
    fn rejects_wrong_input_width() {
        let layer = PLayer::new(3, 2, 0.01, 1.0, 7);
        let mut g = Graph::new();
        let theta = layer.theta.leaf(&mut g);
        let x = g.constant(Matrix::zeros(2, 5));
        let (act, inv) = toy_etas(&mut g);
        assert!(matches!(
            layer.forward(&mut g, theta, x, &[(act, inv)], 0.01, 1.0, None, true),
            Err(PnnError::Data { .. })
        ));
    }
}
