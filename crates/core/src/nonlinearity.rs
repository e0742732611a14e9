//! The nonlinear subcircuits of the pNN: fixed or learnable (Fig. 5).

use crate::PnnError;
use pnc_autodiff::{Graph, Parameter, Var};
use pnc_linalg::Matrix;
use pnc_spice::circuits::NonlinearCircuitParams;
use pnc_surrogate::{DesignSpace, EtaTrace, SurrogateModel};

/// One nonlinear subcircuit (activation or negative-weight) of a pNN.
///
/// * `Fixed` — the prior-work setting: one pre-designed physical
///   parameterization ω shared by all tasks. Still subject to printing
///   variation at test time.
/// * `Learnable` — the paper's contribution: the constrained parameter
///   𝔴 = \[R̃1, R̃3, R̃5, W̃, L̃, k₁, k₂\] (stored pre-sigmoid) is trained by
///   gradient descent through the surrogate model.
///
/// # Examples
///
/// ```
/// use pnc_core::NonlinearCircuit;
/// use pnc_spice::circuits::NonlinearCircuitParams;
///
/// let fixed = NonlinearCircuit::fixed(NonlinearCircuitParams::nominal());
/// let learnable = NonlinearCircuit::learnable_from(NonlinearCircuitParams::nominal());
/// // Both start from the same printable component values.
/// let a = fixed.printable_omega();
/// let b = learnable.printable_omega();
/// for (x, y) in a.iter().zip(&b) {
///     assert!((x - y).abs() < 0.05 * x.abs());
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum NonlinearCircuit {
    /// Pre-designed, non-learnable circuit.
    Fixed {
        /// Physical parameters `[R1, R2, R3, R4, R5, W, L]` in SI units.
        omega: [f64; 7],
    },
    /// Learnable circuit parameterized by 𝔴 (pre-sigmoid).
    Learnable {
        /// The raw learnable parameter, shape `1×7`.
        w: Parameter,
    },
}

impl NonlinearCircuit {
    /// Creates a fixed circuit from physical parameters.
    pub fn fixed(params: NonlinearCircuitParams) -> Self {
        NonlinearCircuit::Fixed {
            omega: params.to_array(),
        }
    }

    /// Creates a learnable circuit initialized so that its printable values
    /// start at `params` (by inverting the sigmoid/normalization chain).
    pub fn learnable_from(params: NonlinearCircuitParams) -> Self {
        let space = DesignSpace::paper();
        let omega = params.to_array();
        // Normalized positions of [r1, r3, r5, w, l] in their boxes.
        let norm = |k: usize| (omega[k] - space.lo[k]) / (space.hi[k] - space.lo[k]);
        let k1 = omega[1] / omega[0];
        let k2 = omega[3] / omega[2];
        let targets = [norm(0), norm(2), norm(4), norm(5), norm(6), k1, k2];
        let logit = |p: f64| {
            let p = p.clamp(0.02, 0.98);
            (p / (1.0 - p)).ln()
        };
        let w = Matrix::row_vector(&targets.map(logit));
        NonlinearCircuit::Learnable {
            w: Parameter::new(w),
        }
    }

    /// Registers the learnable parameter on the graph, if any.
    pub fn register(&self, g: &mut Graph) -> Option<Var> {
        match self {
            NonlinearCircuit::Fixed { .. } => None,
            NonlinearCircuit::Learnable { w } => Some(w.leaf(g)),
        }
    }

    /// Mutable access to the learnable parameter, if any.
    pub fn parameter_mut(&mut self) -> Option<&mut Parameter> {
        match self {
            NonlinearCircuit::Fixed { .. } => None,
            NonlinearCircuit::Learnable { w } => Some(w),
        }
    }

    /// The printable component values ω as plain numbers (the values sent to
    /// the printer; for learnable circuits, computed by the Fig. 5 chain
    /// from the current 𝔴).
    pub fn printable_omega(&self) -> [f64; 7] {
        match self {
            NonlinearCircuit::Fixed { omega } => *omega,
            NonlinearCircuit::Learnable { w } => fig5(w.value().as_slice()).1,
        }
    }

    /// Builds the graph node of printable ω (`1×7`), implementing the
    /// processing chain of Fig. 5 for learnable circuits: sigmoid →
    /// denormalize → reassemble `R2 = k1·R1`, `R4 = k2·R3` → clip to the
    /// feasible box (straight-through).
    ///
    /// `w_var` must be the leaf returned by [`NonlinearCircuit::register`]
    /// on the same graph (`None` for fixed circuits).
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Autodiff`] on internal shape errors and
    /// [`PnnError::Config`] if a learnable circuit is used without its
    /// registered leaf.
    pub fn printable_omega_graph(
        &self,
        g: &mut Graph,
        w_var: Option<Var>,
    ) -> Result<Var, PnnError> {
        match self {
            NonlinearCircuit::Fixed { omega } => Ok(g.constant(Matrix::row_vector(omega))),
            NonlinearCircuit::Learnable { .. } => {
                let w_var = w_var.ok_or_else(|| PnnError::Config {
                    detail: "learnable circuit used without a registered leaf".into(),
                })?;
                let space = DesignSpace::paper();
                let s = g.sigmoid(w_var); // 1×7 in (0,1)

                // Split into the five box parameters and the two ratios.
                let s_r1 = g.slice_cols(s, 0, 1)?;
                let s_r3 = g.slice_cols(s, 1, 1)?;
                let s_r5 = g.slice_cols(s, 2, 1)?;
                let s_w = g.slice_cols(s, 3, 1)?;
                let s_l = g.slice_cols(s, 4, 1)?;
                let k1 = g.slice_cols(s, 5, 1)?;
                let k2 = g.slice_cols(s, 6, 1)?;

                let denorm = |g: &mut Graph, s: Var, k_box: usize| -> Result<Var, PnnError> {
                    let scaled = g.scale(s, space.hi[k_box] - space.lo[k_box]);
                    Ok(g.add_scalar(scaled, space.lo[k_box]))
                };
                let r1 = denorm(g, s_r1, 0)?;
                let r3 = denorm(g, s_r3, 2)?;
                let r5 = denorm(g, s_r5, 4)?;
                let w_ = denorm(g, s_w, 5)?;
                let l = denorm(g, s_l, 6)?;

                // Reassemble the divider shunt resistors and clip them to
                // their own feasible range (straight-through, as Fig. 5).
                let r2 = g.mul(r1, k1)?;
                let r2 = g.clamp_ste(r2, space.lo[1], space.hi[1]);
                let r4 = g.mul(r3, k2)?;
                let r4 = g.clamp_ste(r4, space.lo[3], space.hi[3]);

                Ok(g.concat_cols(&[r1, r2, r3, r4, r5, w_, l])?)
            }
        }
    }

    /// Builds the curve-parameter node η (`1×4`) for this circuit under an
    /// optional printing-variation factor applied to the *printable* values
    /// (as Sec. III-C prescribes — the noise multiplies component values,
    /// not the raw learnable parameter).
    ///
    /// # Errors
    ///
    /// Propagates graph and surrogate failures.
    pub fn eta_graph(
        &self,
        g: &mut Graph,
        w_var: Option<Var>,
        surrogate: &SurrogateModel,
        variation: Option<&[f64; 7]>,
    ) -> Result<Var, PnnError> {
        let omega = self.printable_omega_graph(g, w_var)?;
        let omega = match variation {
            Some(factors) => {
                let f = g.constant(Matrix::row_vector(factors));
                g.mul(omega, f)?
            }
            None => omega,
        };
        Ok(surrogate.predict_eta_graph(g, omega)?)
    }

    /// Plain-number version of [`NonlinearCircuit::eta_graph`] for
    /// evaluation paths that need no gradients. It returns the same bits:
    /// both paths run the same operations in the same order.
    pub fn eta(&self, surrogate: &SurrogateModel, variation: Option<&[f64; 7]>) -> [f64; 4] {
        let mut omega = self.printable_omega();
        if let Some(f) = variation {
            for (o, &fk) in omega.iter_mut().zip(f) {
                *o *= fk;
            }
        }
        surrogate.predict_eta(&omega)
    }
}

/// The logistic sigmoid as the tape's `sigmoid` computes it.
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Fig. 5's chain from a learnable circuit's 𝔴 (`raw`, 7 values) to its
/// printable ω: sigmoid, denormalize the five box parameters, reassemble
/// `R₂ = k₁·R₁` and `R₄ = k₂·R₃` and clip them to their boxes. Returns the
/// sigmoid outputs with ω, in the operations
/// [`NonlinearCircuit::printable_omega_graph`] records.
fn fig5(raw: &[f64]) -> ([f64; 7], [f64; 7]) {
    let space = DesignSpace::paper();
    let s: [f64; 7] = std::array::from_fn(|k| sigmoid(raw[k]));
    let denorm = |k_box: usize, s: f64| space.lo[k_box] + s * (space.hi[k_box] - space.lo[k_box]);
    let r1 = denorm(0, s[0]);
    let r3 = denorm(2, s[1]);
    let r5 = denorm(4, s[2]);
    let w = denorm(5, s[3]);
    let l = denorm(6, s[4]);
    let r2 = (r1 * s[5]).clamp(space.lo[1], space.hi[1]);
    let r4 = (r3 * s[6]).clamp(space.lo[3], space.hi[3]);
    (s, [r1, r2, r3, r4, r5, w, l])
}

/// One learnable circuit's ω→η chain, run forward and backward by hand
/// for the training plan: Fig. 5's chain from 𝔴, the draw's ω factors,
/// then the surrogate ([`SurrogateModel::predict_eta_traced`]).
///
/// [`EtaChain::w_grad`] is the backward pass `Graph::backward_seeded` runs
/// over [`NonlinearCircuit::eta_graph`], in the tape's order and with its
/// formulas, so `∂L/∂𝔴` has the tape's bits. The buffers are reused from
/// draw to draw.
#[derive(Debug, Default)]
pub(crate) struct EtaChain {
    /// The sigmoid outputs of the last forward pass.
    s: [f64; 7],
    /// Its printable ω, before the ω factors.
    omega: [f64; 7],
    factors: Option<[f64; 7]>,
    trace: EtaTrace,
}

impl EtaChain {
    /// η from 𝔴 (`raw`, 7 values) under the optional ω factors, with the
    /// bits of [`NonlinearCircuit::eta`]; keeps what the backward needs.
    pub(crate) fn forward(
        &mut self,
        raw: &[f64],
        surrogate: &SurrogateModel,
        variation: Option<&[f64; 7]>,
    ) -> [f64; 4] {
        (self.s, self.omega) = fig5(raw);
        self.factors = variation.copied();
        let mut omega = self.omega;
        if let Some(f) = variation {
            for (o, &fk) in omega.iter_mut().zip(f) {
                *o *= fk;
            }
        }
        surrogate.predict_eta_traced(&omega, &mut self.trace)
    }

    /// `∂L/∂𝔴` of the last [`EtaChain::forward`] from `eta_grad` =
    /// `∂L/∂η`. After the surrogate's `∂L/∂ω`, the tape's nodes in reverse:
    /// the factor `mul`; the `concat_cols` of ω handing each component its
    /// gradient; `R₄ = R₃·k₂` then `R₂ = R₁·k₁` (each `clamp_ste` passes its
    /// gradient straight through, each `mul` adds `g·k` to `R` and gives
    /// `g·R` to `k`); each box's `scale` by `hi − lo`; the seven
    /// `slice_cols` of the sigmoid, last first, as zero-padded `1×7`
    /// gradients; and the sigmoid's `g·s·(1 − s)`.
    pub(crate) fn w_grad(&mut self, surrogate: &SurrogateModel, eta_grad: &[f64; 4]) -> [f64; 7] {
        let mut g = surrogate.omega_grad(&mut self.trace, eta_grad);
        if let Some(f) = &self.factors {
            for (gk, &fk) in g.iter_mut().zip(f) {
                *gk *= fk;
            }
        }
        let (s, omega) = (&self.s, &self.omega);
        let [mut g_r1, g_r2, mut g_r3, g_r4, g_r5, g_w, g_l] = g;
        g_r3 += g_r4 * s[6];
        let g_k2 = g_r4 * omega[2];
        g_r1 += g_r2 * s[5];
        let g_k1 = g_r2 * omega[0];
        let space = DesignSpace::paper();
        let range = |k_box: usize| space.hi[k_box] - space.lo[k_box];
        let slice_g = [
            g_r1 * range(0),
            g_r3 * range(2),
            g_r5 * range(4),
            g_w * range(5),
            g_l * range(6),
            g_k1,
            g_k2,
        ];
        let mut s_g = [0.0; 7];
        s_g[6] = slice_g[6];
        for col in (0..6).rev() {
            for (k, acc) in s_g.iter_mut().enumerate() {
                *acc += if k == col { slice_g[col] } else { 0.0 };
            }
        }
        std::array::from_fn(|k| s_g[k] * s[k] * (1.0 - s[k]))
    }
}

/// Applies the ptanh activation of Eq. 2, `η₁ + η₂·tanh((x − η₃)·η₄)`, with
/// η given as a `1×4` node (broadcast over the `B×n` input).
///
/// # Errors
///
/// Returns an error on shape mismatches.
pub fn apply_ptanh(g: &mut Graph, eta: Var, x: Var) -> Result<Var, PnnError> {
    let e1 = g.slice_cols(eta, 0, 1)?;
    let e2 = g.slice_cols(eta, 1, 1)?;
    let e3 = g.slice_cols(eta, 2, 1)?;
    let e4 = g.slice_cols(eta, 3, 1)?;
    let shifted = g.sub(x, e3)?;
    let scaled = g.mul(shifted, e4)?;
    let t = g.tanh(scaled);
    let amp = g.mul(t, e2)?;
    Ok(g.add(amp, e1)?)
}

/// Applies the negative-weight circuit's transfer curve:
/// `η₁ − η₂·tanh((x − η₃)·η₄)` — the inverter's *physical* (positive,
/// falling) output voltage.
///
/// Eq. 3 of the paper writes the negative-weight model with an outer minus
/// sign, `−(η₁ + η₂·tanh(·))`, pulling the "negativity" into the voltage
/// itself. We keep the voltage physical instead: the inverted input stays in
/// the supply range (so the succeeding crossbar and activation circuit keep
/// operating around their design point), and the negative-weight semantics
/// arise from the falling slope — linearizing gives
/// `inv(x) ≈ a − b·x`, i.e. a negative effective weight plus a bias shift
/// that training absorbs. Both conventions span the same function class.
///
/// # Errors
///
/// Returns an error on shape mismatches.
pub fn apply_inv(g: &mut Graph, eta: Var, x: Var) -> Result<Var, PnnError> {
    let e1 = g.slice_cols(eta, 0, 1)?;
    let e2 = g.slice_cols(eta, 1, 1)?;
    let e3 = g.slice_cols(eta, 2, 1)?;
    let e4 = g.slice_cols(eta, 3, 1)?;
    let shifted = g.sub(x, e3)?;
    let scaled = g.mul(shifted, e4)?;
    let t = g.tanh(scaled);
    let amp = g.mul(t, e2)?;
    Ok(g.sub(e1, amp)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig};

    fn quick_surrogate() -> SurrogateModel {
        let data = build_dataset(&DatasetConfig::new(120, 31), None).unwrap();
        train_surrogate(
            &data,
            &TrainConfig {
                layer_sizes: vec![10, 8, 4],
                max_epochs: 300,
                patience: 100,
                ..TrainConfig::default()
            },
        )
        .unwrap()
        .0
    }

    #[test]
    fn learnable_initialization_recovers_nominal() {
        let nominal = NonlinearCircuitParams::nominal();
        let c = NonlinearCircuit::learnable_from(nominal);
        let omega = c.printable_omega();
        let expected = nominal.to_array();
        for (k, (a, b)) in omega.iter().zip(&expected).enumerate() {
            // The logit clamp at 0.98 allows a small deviation at the box
            // edges (W sits at its maximum in the nominal design).
            assert!((a - b).abs() < 0.05 * b.abs(), "component {k}: {a} vs {b}");
        }
    }

    #[test]
    fn printable_omega_graph_matches_plain() {
        let c = NonlinearCircuit::learnable_from(NonlinearCircuitParams::nominal());
        let plain = c.printable_omega();
        let mut g = Graph::new();
        let w = c.register(&mut g);
        let node = c.printable_omega_graph(&mut g, w).unwrap();
        for (k, &p) in plain.iter().enumerate() {
            assert!(
                (g.value(node)[(0, k)] - p).abs() < 1e-9 * p.abs().max(1.0),
                "component {k}"
            );
        }
    }

    #[test]
    fn fixed_circuit_needs_no_leaf() {
        let c = NonlinearCircuit::fixed(NonlinearCircuitParams::nominal());
        let mut g = Graph::new();
        assert!(c.register(&mut g).is_none());
        let node = c.printable_omega_graph(&mut g, None).unwrap();
        assert_eq!(g.shape(node), (1, 7));
    }

    #[test]
    fn learnable_without_leaf_is_a_config_error() {
        let c = NonlinearCircuit::learnable_from(NonlinearCircuitParams::nominal());
        let mut g = Graph::new();
        assert!(matches!(
            c.printable_omega_graph(&mut g, None),
            Err(PnnError::Config { .. })
        ));
    }

    #[test]
    fn printable_values_satisfy_feasibility() {
        // Even for extreme 𝔴 the chain must emit feasible components.
        let mut c = NonlinearCircuit::learnable_from(NonlinearCircuitParams::nominal());
        if let NonlinearCircuit::Learnable { w } = &mut c {
            for v in w.value_mut().as_mut_slice() {
                *v = 37.0; // saturate every sigmoid high
            }
        }
        let omega = c.printable_omega();
        let space = DesignSpace::paper();
        let params = NonlinearCircuitParams::from_array(omega);
        params.validate().expect("feasible");
        for (k, &o) in omega.iter().enumerate() {
            assert!(o <= space.hi[k] + 1e-9);
            assert!(o >= space.lo[k] - 1e-9);
        }
    }

    #[test]
    fn variation_scales_printable_values() {
        let surrogate = quick_surrogate();
        let c = NonlinearCircuit::fixed(NonlinearCircuitParams::nominal());
        let nominal_eta = c.eta(&surrogate, None);
        let varied_eta = c.eta(&surrogate, Some(&[1.1, 0.9, 1.05, 0.95, 1.1, 0.9, 1.1]));
        assert_ne!(nominal_eta, varied_eta);
    }

    /// `eta` and `eta_graph` agree bit for bit: the printable-ω chain, the
    /// variation multiply and the surrogate forward run the same IEEE
    /// operations in the same order on both paths — in particular the plain
    /// MLP sums `h·w` from `0.0` with the input index ascending, as the
    /// matmul kernel does, and adds the bias afterwards.
    #[test]
    fn eta_graph_matches_plain_eta() {
        use rand::{Rng, SeedableRng};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
        let factors = [1.1, 0.9, 1.05, 0.95, 1.1, 0.9, 1.1];
        let nominal = NonlinearCircuitParams::nominal();
        let mut circuits = vec![NonlinearCircuit::fixed(nominal)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let mut c = NonlinearCircuit::learnable_from(nominal);
            if let Some(w) = c.parameter_mut() {
                for v in w.value_mut().as_mut_slice() {
                    *v += rng.gen_range(-2.0..2.0);
                }
            }
            circuits.push(c);
        }
        let mut g = Graph::new();
        for name in ["surrogate-default.json", "surrogate-quick.json"] {
            let surrogate = SurrogateModel::load(&dir.join(name)).unwrap();
            for (k, c) in circuits.iter().enumerate() {
                for variation in [None, Some(&factors)] {
                    let plain = c.eta(&surrogate, variation);
                    g.reset();
                    let w = c.register(&mut g);
                    let eta = c.eta_graph(&mut g, w, &surrogate, variation).unwrap();
                    assert_eq!(
                        plain.map(f64::to_bits).as_slice(),
                        g.value(eta)
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        "{name}, circuit {k}, variation {variation:?}"
                    );
                }
            }
        }
    }

    /// The hand-derived chain equals the tape: for random `∂L/∂η`, its η
    /// is [`NonlinearCircuit::eta_graph`]'s value and its `∂L/∂𝔴` is
    /// `Graph::backward_seeded` from η, bit for bit, on both committed
    /// surrogates, with and without ω factors, over 𝔴 that include
    /// saturated sigmoids and `R₂`/`R₄` that `clamp_ste` clips.
    #[test]
    fn chain_backward_matches_backward_seeded() {
        use pnc_autodiff::GradStore;
        use rand::{Rng, SeedableRng};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
        let space = DesignSpace::paper();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let nominal = NonlinearCircuitParams::nominal();
        let mut raws: Vec<[f64; 7]> = vec![[37.0; 7], [-37.0; 7]];
        for _ in 0..96 {
            raws.push(std::array::from_fn(|_| match rng.gen_range(0usize..6) {
                0 => rng.gen_range(-40.0..-15.0),
                1 => rng.gen_range(15.0..40.0),
                _ => rng.gen_range(-5.0..5.0),
            }));
        }
        let (mut clipped, mut saturated) = (0, 0);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut g = Graph::new();
        let mut store = GradStore::new();
        let mut chain = EtaChain::default();
        for name in ["surrogate-default.json", "surrogate-quick.json"] {
            let surrogate = SurrogateModel::load(&dir.join(name)).unwrap();
            for (k, raw) in raws.iter().enumerate() {
                let mut c = NonlinearCircuit::learnable_from(nominal);
                if let Some(w) = c.parameter_mut() {
                    w.value_mut().as_mut_slice().copy_from_slice(raw);
                }
                let (s, omega) = fig5(raw);
                saturated += usize::from(s.iter().any(|&v| v == 1.0 || v < 1e-6));
                let (r2, r4) = (omega[0] * s[5], omega[2] * s[6]);
                clipped += usize::from(
                    r2 != r2.clamp(space.lo[1], space.hi[1])
                        || r4 != r4.clamp(space.lo[3], space.hi[3]),
                );
                let factors: [f64; 7] = std::array::from_fn(|_| rng.gen_range(0.9..1.1));
                for variation in [None, Some(&factors)] {
                    let eta_grad: [f64; 4] = std::array::from_fn(|_| rng.gen_range(-2.0..2.0));
                    let eta = chain.forward(raw, &surrogate, variation);
                    let w_grad = chain.w_grad(&surrogate, &eta_grad);
                    g.reset();
                    let w = c.register(&mut g);
                    let node = c.eta_graph(&mut g, w, &surrogate, variation).unwrap();
                    assert_eq!(
                        bits(&eta),
                        bits(g.value(node).as_slice()),
                        "{name}, η of 𝔴 {k}"
                    );
                    g.backward_seeded(node, Matrix::row_vector(&eta_grad), &mut store)
                        .unwrap();
                    let want = store.get(w.unwrap()).unwrap();
                    assert_eq!(
                        bits(&w_grad),
                        bits(want.as_slice()),
                        "{name}, ∂L/∂𝔴 of 𝔴 {k}, variation {variation:?}"
                    );
                }
            }
        }
        assert!(
            clipped > 0 && saturated > 0,
            "{clipped} clipped, {saturated} saturated"
        );
    }

    #[test]
    fn gradients_reach_the_learnable_parameter() {
        let surrogate = quick_surrogate();
        let c = NonlinearCircuit::learnable_from(NonlinearCircuitParams::nominal());
        let mut g = Graph::new();
        let w = c.register(&mut g).unwrap();
        let eta = c.eta_graph(&mut g, Some(w), &surrogate, None).unwrap();
        let x = g.constant(Matrix::row_vector(&[0.2, 0.5, 0.8]));
        let a = apply_ptanh(&mut g, eta, x).unwrap();
        let loss = g.sum(a);
        let grads = g.backward(loss).unwrap();
        let gw = grads.get(w).expect("gradient flows to 𝔴");
        assert!(gw.norm() > 0.0, "gradient must be nonzero");
    }

    #[test]
    fn apply_ptanh_matches_formula() {
        let mut g = Graph::new();
        let eta = g.constant(Matrix::row_vector(&[0.5, 0.4, 0.55, 6.0]));
        let x = g.constant(Matrix::row_vector(&[0.0, 0.55, 1.0]));
        let a = apply_ptanh(&mut g, eta, x).unwrap();
        let f = |v: f64| 0.5 + 0.4 * pnc_linalg::tanh((v - 0.55) * 6.0);
        for (k, v) in [0.0, 0.55, 1.0].iter().enumerate() {
            assert!((g.value(a)[(0, k)] - f(*v)).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_inv_is_the_falling_mirror_of_ptanh() {
        let mut g = Graph::new();
        let eta = g.constant(Matrix::row_vector(&[0.5, 0.4, 0.55, 6.0]));
        let x = g.constant(Matrix::row_vector(&[0.3, 0.55, 0.9]));
        let p = apply_ptanh(&mut g, eta, x).unwrap();
        let i = apply_inv(&mut g, eta, x).unwrap();
        for k in 0..3 {
            // ptanh + inv = 2·η₁ (mirror around the midpoint voltage).
            assert!((g.value(p)[(0, k)] + g.value(i)[(0, k)] - 1.0).abs() < 1e-12);
        }
        // Falling and positive over the supply range.
        assert!(g.value(i)[(0, 0)] > g.value(i)[(0, 2)]);
        assert!(g.value(i)[(0, 2)] > 0.0);
    }
}
