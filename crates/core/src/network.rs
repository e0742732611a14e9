//! The printed neural network: layers, circuits and the forward pass.

use crate::layer::PLayer;
use crate::nonlinearity::NonlinearCircuit;
use crate::variation::NoiseSample;
use crate::PnnError;
use pnc_autodiff::{Graph, Var};
use pnc_linalg::Matrix;
use pnc_spice::circuits::NonlinearCircuitParams;
use pnc_surrogate::SurrogateModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The classification loss the pNN trains with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossKind {
    /// The pNN margin loss used throughout the printed-neuromorphic line of
    /// work: hinge on the voltage gap between the true class and the
    /// runner-up.
    Margin {
        /// Required voltage gap (the original implementations use 0.3 V).
        margin: f64,
    },
    /// Softmax cross-entropy over output voltages scaled by `1/temperature`.
    CrossEntropy {
        /// Softmax temperature (output voltages span ≲1 V, so temperatures
        /// around 0.1 sharpen the distribution usefully).
        temperature: f64,
    },
}

impl Default for LossKind {
    fn default() -> Self {
        LossKind::Margin { margin: 0.3 }
    }
}

/// How many independent nonlinear circuits the network prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NonlinearityGranularity {
    /// One activation + one negative-weight circuit design shared by all
    /// layers (a single bespoke design is replicated at print time).
    Shared,
    /// Each layer gets its own pair of circuit designs (the default; more
    /// bespoke flexibility at no training cost).
    PerLayer,
    /// Every output neuron gets its own pair of circuit designs — the most
    /// bespoke configuration additive manufacturing allows. Costs more
    /// learnable parameters and a per-column forward pass.
    PerNeuron,
}

/// Configuration of a [`Pnn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PnnConfig {
    /// Layer widths, e.g. `[4, 3, 3]` for the paper's `#input-3-#output`
    /// topology on Iris.
    pub layer_sizes: Vec<usize>,
    /// Minimum printable conductance magnitude.
    pub g_min: f64,
    /// Maximum printable conductance magnitude.
    pub g_max: f64,
    /// Whether the nonlinear circuits are learnable (the paper's
    /// contribution) or fixed (prior work).
    pub learnable_nonlinearity: bool,
    /// Circuit sharing across layers.
    pub granularity: NonlinearityGranularity,
    /// Whether the final layer output passes through the activation circuit.
    pub activation_on_output: bool,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl PnnConfig {
    /// The paper's topology for a dataset: `#input-3-#output`, learnable
    /// nonlinearity on, margin-loss-friendly defaults.
    pub fn for_dataset(num_features: usize, num_classes: usize) -> Self {
        PnnConfig {
            layer_sizes: vec![num_features, 3, num_classes],
            g_min: 0.01,
            g_max: 1.0,
            learnable_nonlinearity: true,
            granularity: NonlinearityGranularity::PerLayer,
            activation_on_output: true,
            seed: 0,
        }
    }

    /// Returns a copy with the nonlinearity fixed (the `α_ω = 0` ablation).
    pub fn with_fixed_nonlinearity(mut self) -> Self {
        self.learnable_nonlinearity = false;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), PnnError> {
        if self.layer_sizes.len() < 2 {
            return Err(PnnError::Config {
                detail: "need at least input and output sizes".into(),
            });
        }
        if self.layer_sizes.contains(&0) {
            return Err(PnnError::Config {
                detail: "layer sizes must be positive".into(),
            });
        }
        if !(self.g_min > 0.0 && self.g_max > self.g_min) {
            return Err(PnnError::Config {
                detail: format!(
                    "need 0 < g_min < g_max, got {} and {}",
                    self.g_min, self.g_max
                ),
            });
        }
        Ok(())
    }
}

/// Leaf variables of one forward pass, used to route gradients back into
/// parameters.
#[derive(Debug, Clone)]
pub struct PnnVars {
    /// One θ leaf per layer.
    pub thetas: Vec<Var>,
    /// One 𝔴 leaf per learnable circuit (activation and negative-weight
    /// interleaved per circuit slot), empty when fixed.
    pub circuit_ws: Vec<Var>,
}

/// A printed neural network.
///
/// Circuits are stored as (activation, negative-weight) pairs: one pair
/// total under [`NonlinearityGranularity::Shared`], one per layer under
/// [`NonlinearityGranularity::PerLayer`].
///
/// # Examples
///
/// See the crate-level example; unit construction:
///
/// ```no_run
/// # use pnc_core::{Pnn, PnnConfig};
/// # use std::sync::Arc;
/// # fn with_model(surrogate: Arc<pnc_surrogate::SurrogateModel>) -> Result<(), pnc_core::PnnError> {
/// let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), surrogate)?;
/// assert_eq!(pnn.num_layers(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pnn {
    config: PnnConfig,
    layers: Vec<PLayer>,
    /// `(activation, negative-weight)` circuit pairs.
    circuits: Vec<(NonlinearCircuit, NonlinearCircuit)>,
    surrogate: Arc<SurrogateModel>,
}

/// Serializable snapshot of a network (used by [`Pnn::save`]/[`Pnn::load`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PnnState {
    config: PnnConfig,
    layers: Vec<PLayer>,
    circuits: Vec<(NonlinearCircuit, NonlinearCircuit)>,
    surrogate: SurrogateModel,
}

impl Pnn {
    /// Builds a network from a configuration and a trained surrogate model.
    ///
    /// Both learnable and fixed circuits start from the same mid-range
    /// nominal design ([`NonlinearCircuitParams::nominal`]), so ablation
    /// arms differ only in trainability.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Config`] for invalid configurations.
    pub fn new(config: PnnConfig, surrogate: Arc<SurrogateModel>) -> Result<Self, PnnError> {
        config.validate()?;
        let mut layers = Vec::with_capacity(config.layer_sizes.len() - 1);
        for (i, w) in config.layer_sizes.windows(2).enumerate() {
            layers.push(PLayer::new(
                w[0],
                w[1],
                config.g_min,
                config.g_max,
                config
                    .seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15),
            ));
        }
        let pairs = match config.granularity {
            NonlinearityGranularity::Shared => 1,
            NonlinearityGranularity::PerLayer => layers.len(),
            NonlinearityGranularity::PerNeuron => layers.iter().map(|l| l.out_dim()).sum::<usize>(),
        };
        let nominal = NonlinearCircuitParams::nominal();
        let make = || {
            if config.learnable_nonlinearity {
                NonlinearCircuit::learnable_from(nominal)
            } else {
                NonlinearCircuit::fixed(nominal)
            }
        };
        let circuits = (0..pairs).map(|_| (make(), make())).collect();
        Ok(Pnn {
            config,
            layers,
            circuits,
            surrogate,
        })
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &PnnConfig {
        &self.config
    }

    /// Number of crossbar layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The crossbar layers.
    pub fn layers(&self) -> &[PLayer] {
        &self.layers
    }

    /// Mutable access to the crossbar layers (used by the trainer).
    pub fn layers_mut(&mut self) -> &mut [PLayer] {
        &mut self.layers
    }

    /// The `(activation, negative-weight)` circuit pairs.
    pub fn circuits(&self) -> &[(NonlinearCircuit, NonlinearCircuit)] {
        &self.circuits
    }

    /// Mutable access to the circuit pairs (used by the trainer).
    pub fn circuits_mut(&mut self) -> &mut [(NonlinearCircuit, NonlinearCircuit)] {
        &mut self.circuits
    }

    /// The surrogate model used for circuit behavior.
    pub fn surrogate(&self) -> &SurrogateModel {
        &self.surrogate
    }

    /// θ shapes per layer, for sampling variation.
    pub fn theta_shapes(&self) -> Vec<(usize, usize)> {
        self.layers.iter().map(|l| l.theta_shape()).collect()
    }

    /// Total number of nonlinear circuits (pairs × 2), for sampling
    /// variation.
    pub fn num_circuits(&self) -> usize {
        self.circuits.len() * 2
    }

    /// The range of circuit-pair indices layer `i` uses: one shared pair,
    /// the layer's own pair, or one pair per output neuron. Shared with the
    /// plan compiler in [`crate::infer`], which must slice η pairs exactly
    /// as the graph forward does.
    pub(crate) fn pair_range(&self, layer: usize) -> std::ops::Range<usize> {
        match self.config.granularity {
            NonlinearityGranularity::Shared => 0..1,
            NonlinearityGranularity::PerLayer => layer..layer + 1,
            NonlinearityGranularity::PerNeuron => {
                let offset: usize = self.layers[..layer].iter().map(|l| l.out_dim()).sum();
                offset..offset + self.layers[layer].out_dim()
            }
        }
    }

    /// Builds the forward pass on `g` for a batch of input voltages,
    /// returning the output-voltage node and the registered leaves.
    ///
    /// `noise` carries one Monte-Carlo draw of printing variation
    /// (see [`NoiseSample`]); `None` means nominal printing. Circuit ω
    /// factors are consumed in pair order: activation then negative-weight
    /// for pair 0, then pair 1, …
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if `x` does not match the input width.
    pub fn forward(
        &self,
        g: &mut Graph,
        x: &Matrix,
        noise: Option<&NoiseSample>,
    ) -> Result<(Var, PnnVars), PnnError> {
        if x.cols() != self.config.layer_sizes[0] {
            return Err(PnnError::Data {
                detail: format!(
                    "expected {} input features, got {}",
                    self.config.layer_sizes[0],
                    x.cols()
                ),
            });
        }
        if let Some(n) = noise {
            if n.theta_factors.len() != self.layers.len()
                || n.omega_factors.len() != self.num_circuits()
            {
                return Err(PnnError::Data {
                    detail: "noise sample does not match the network shape".into(),
                });
            }
        }

        // Register circuit leaves and build η nodes once per circuit pair.
        let mut circuit_ws = Vec::new();
        let mut etas = Vec::with_capacity(self.circuits.len());
        for (pair_idx, (act, inv)) in self.circuits.iter().enumerate() {
            let act_w = act.register(g);
            let inv_w = inv.register(g);
            if let Some(v) = act_w {
                circuit_ws.push(v);
            }
            if let Some(v) = inv_w {
                circuit_ws.push(v);
            }
            let act_noise = noise.map(|n| &n.omega_factors[2 * pair_idx]);
            let inv_noise = noise.map(|n| &n.omega_factors[2 * pair_idx + 1]);
            let eta_act = act.eta_graph(g, act_w, &self.surrogate, act_noise)?;
            let eta_inv = inv.eta_graph(g, inv_w, &self.surrogate, inv_noise)?;
            etas.push((eta_act, eta_inv));
        }

        let mut thetas = Vec::with_capacity(self.layers.len());
        let mut h = g.constant(x);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let theta_var = layer.theta.leaf(g);
            thetas.push(theta_var);
            let layer_etas = &etas[self.pair_range(i)];
            let apply_act = i < last || self.config.activation_on_output;
            h = layer.forward(
                g,
                theta_var,
                h,
                layer_etas,
                self.config.g_min,
                self.config.g_max,
                noise.map(|n| &n.theta_factors[i]),
                apply_act,
            )?;
        }
        Ok((h, PnnVars { thetas, circuit_ws }))
    }

    /// Builds the configured classification loss over `scores`.
    ///
    /// # Errors
    ///
    /// Propagates target-validation errors.
    pub fn loss(
        &self,
        g: &mut Graph,
        scores: Var,
        targets: &[usize],
        kind: LossKind,
    ) -> Result<Var, PnnError> {
        match kind {
            LossKind::Margin { margin } => Ok(g.margin_loss(scores, targets, margin)?),
            LossKind::CrossEntropy { temperature } => {
                let scaled = g.scale(scores, 1.0 / temperature);
                Ok(g.cross_entropy_logits(scaled, targets)?)
            }
        }
    }

    /// Saves the trained network (configuration, crossbars, circuits, and
    /// the embedded surrogate model) as JSON — a self-contained artifact a
    /// fabrication flow can archive next to the printed device.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] on serialization or I/O failures.
    pub fn save(&self, path: &std::path::Path) -> Result<(), PnnError> {
        let state = PnnState {
            config: self.config.clone(),
            layers: self.layers.clone(),
            circuits: self.circuits.clone(),
            surrogate: (*self.surrogate).clone(),
        };
        let json = serde_json::to_string(&state).map_err(|e| PnnError::Data {
            detail: format!("serialize failed: {e}"),
        })?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| PnnError::Data {
                detail: format!("create dir failed: {e}"),
            })?;
        }
        std::fs::write(path, json).map_err(|e| PnnError::Data {
            detail: format!("write failed: {e}"),
        })
    }

    /// Loads a network saved by [`Pnn::save`].
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] on I/O or deserialization failures.
    pub fn load(path: &std::path::Path) -> Result<Self, PnnError> {
        let json = std::fs::read_to_string(path).map_err(|e| PnnError::Data {
            detail: format!("read failed: {e}"),
        })?;
        let state: PnnState = serde_json::from_str(&json).map_err(|e| PnnError::Data {
            detail: format!("deserialize failed: {e}"),
        })?;
        Ok(Pnn {
            config: state.config,
            layers: state.layers,
            circuits: state.circuits,
            surrogate: Arc::new(state.surrogate),
        })
    }

    /// Convenience inference: output voltages for a batch, nominal or under
    /// one noise draw.
    ///
    /// # Errors
    ///
    /// As for [`Pnn::forward`].
    pub fn infer(&self, x: &Matrix, noise: Option<&NoiseSample>) -> Result<Matrix, PnnError> {
        let mut g = Graph::new();
        let (scores, _) = self.forward(&mut g, x, noise)?;
        Ok(g.value(scores).clone())
    }

    /// Argmax class predictions for a batch.
    ///
    /// # Errors
    ///
    /// As for [`Pnn::forward`].
    pub fn predict(&self, x: &Matrix, noise: Option<&NoiseSample>) -> Result<Vec<usize>, PnnError> {
        let scores = self.infer(x, noise)?;
        Ok((0..scores.rows())
            .map(|i| argmax_row(scores.row(i)))
            .collect())
    }
}

/// Index of the largest score in `row` under IEEE total order; the last
/// maximum wins on exact ties, and an empty row maps to class 0. The one
/// argmax behind [`Pnn::predict`], [`crate::InferencePlan::predict`] and
/// the served `class` field, so all three agree bit for bit.
pub fn argmax_row(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(j, _)| j)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig};

    #[test]
    fn argmax_matches_plan_tie_breaking() {
        // Last maximum wins on exact ties, and positive NaN sorts above
        // every number under IEEE total order — the plan's exact semantics
        // (NaN can't occur in served scores, but the tie-breaking must
        // match bit-for-bit regardless).
        assert_eq!(argmax_row(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax_row(&[2.0, 2.0, 1.0]), 1);
        assert_eq!(argmax_row(&[f64::NAN, 0.0]), 0);
        assert_eq!(argmax_row(&[0.0, -0.0]), 0, "+0 beats -0 in total order");
        assert_eq!(argmax_row(&[]), 0);
    }

    fn quick_surrogate() -> Arc<SurrogateModel> {
        let data = build_dataset(&DatasetConfig {
            samples: 120,
            sweep_points: 31,
        })
        .unwrap();
        Arc::new(
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
            .0,
        )
    }

    fn toy_input(batch: usize, dim: usize) -> Matrix {
        Matrix::from_fn(batch, dim, |i, j| ((i * dim + j) % 7) as f64 / 6.0)
    }

    #[test]
    fn config_validation() {
        let s = quick_surrogate();
        let mut c = PnnConfig::for_dataset(4, 3);
        c.layer_sizes = vec![4];
        assert!(Pnn::new(c, s.clone()).is_err());
        let mut c = PnnConfig::for_dataset(4, 3);
        c.g_min = 0.0;
        assert!(Pnn::new(c, s.clone()).is_err());
        let mut c = PnnConfig::for_dataset(4, 3);
        c.layer_sizes = vec![4, 0, 3];
        assert!(Pnn::new(c, s).is_err());
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s).unwrap();
        let x = toy_input(6, 4);
        let a = pnn.infer(&x, None).unwrap();
        let b = pnn.infer(&x, None).unwrap();
        assert_eq!(a.shape(), (6, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn learnable_network_exposes_circuit_leaves() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s.clone()).unwrap();
        let mut g = Graph::new();
        let (_, vars) = pnn.forward(&mut g, &toy_input(2, 4), None).unwrap();
        // PerLayer granularity with 2 layers: 2 pairs × 2 circuits.
        assert_eq!(vars.circuit_ws.len(), 4);
        assert_eq!(vars.thetas.len(), 2);

        let fixed = Pnn::new(PnnConfig::for_dataset(4, 3).with_fixed_nonlinearity(), s).unwrap();
        let mut g = Graph::new();
        let (_, vars) = fixed.forward(&mut g, &toy_input(2, 4), None).unwrap();
        assert!(vars.circuit_ws.is_empty());
    }

    #[test]
    fn shared_granularity_uses_one_pair() {
        let s = quick_surrogate();
        let mut config = PnnConfig::for_dataset(4, 3);
        config.granularity = NonlinearityGranularity::Shared;
        let pnn = Pnn::new(config, s).unwrap();
        assert_eq!(pnn.circuits().len(), 1);
        assert_eq!(pnn.num_circuits(), 2);
        let mut g = Graph::new();
        let (_, vars) = pnn.forward(&mut g, &toy_input(2, 4), None).unwrap();
        assert_eq!(vars.circuit_ws.len(), 2);
    }

    #[test]
    fn per_neuron_granularity_counts_and_runs() {
        let s = quick_surrogate();
        let mut config = PnnConfig::for_dataset(4, 3); // layers 4->3->3
        config.granularity = NonlinearityGranularity::PerNeuron;
        let pnn = Pnn::new(config, s).unwrap();
        // 3 + 3 output neurons -> 6 pairs, 12 circuits.
        assert_eq!(pnn.circuits().len(), 6);
        assert_eq!(pnn.num_circuits(), 12);
        let mut g = Graph::new();
        let (out, vars) = pnn.forward(&mut g, &toy_input(4, 4), None).unwrap();
        assert_eq!(g.shape(out), (4, 3));
        assert_eq!(vars.circuit_ws.len(), 12);
    }

    #[test]
    fn per_neuron_equals_per_layer_at_identical_initialization() {
        // All circuits start from the same nominal design, so the per-column
        // forward path must produce the same outputs as the shared matmul
        // path - a strong check on the per-neuron implementation.
        let s = quick_surrogate();
        let per_layer = Pnn::new(PnnConfig::for_dataset(4, 3), s.clone()).unwrap();
        let mut config = PnnConfig::for_dataset(4, 3);
        config.granularity = NonlinearityGranularity::PerNeuron;
        let per_neuron = Pnn::new(config, s).unwrap();

        let x = toy_input(5, 4);
        let a = per_layer.infer(&x, None).unwrap();
        let b = per_neuron.infer(&x, None).unwrap();
        assert!(a.approx_eq(&b, 1e-12), "forward paths disagree");
    }

    #[test]
    fn per_neuron_gradients_reach_circuits() {
        let s = quick_surrogate();
        let mut config = PnnConfig::for_dataset(4, 2);
        config.granularity = NonlinearityGranularity::PerNeuron;
        let pnn = Pnn::new(config, s).unwrap();
        let mut g = Graph::new();
        let (scores, vars) = pnn.forward(&mut g, &toy_input(6, 4), None).unwrap();
        let loss = pnn
            .loss(&mut g, scores, &[0, 1, 0, 1, 0, 1], LossKind::default())
            .unwrap();
        let grads = g.backward(loss).unwrap();
        let with_grad = vars
            .circuit_ws
            .iter()
            .filter(|w| grads.get(**w).map(|m| m.norm() > 0.0).unwrap_or(false))
            .count();
        // At least the first layer's activation circuits must receive
        // gradient (output-layer inverters may be unused if no theta < 0).
        assert!(with_grad >= 2, "only {with_grad} circuit grads nonzero");
    }

    #[test]
    fn noise_changes_outputs() {
        use rand::SeedableRng;
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s).unwrap();
        let x = toy_input(4, 4);
        let nominal = pnn.infer(&x, None).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let noise = NoiseSample::draw(
            &crate::VariationModel::Uniform { epsilon: 0.1 },
            &mut rng,
            &pnn.theta_shapes(),
            pnn.num_circuits(),
        );
        let varied = pnn.infer(&x, Some(&noise)).unwrap();
        assert_ne!(nominal, varied);
        let max_shift = nominal.sub(&varied).unwrap().norm_inf();
        assert!(
            max_shift < 0.5,
            "10% component noise should not rail outputs: {max_shift}"
        );
    }

    #[test]
    fn mismatched_noise_is_rejected() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s).unwrap();
        let bad = NoiseSample::identity(&[(6, 3)], 1); // wrong shape count
        assert!(matches!(
            pnn.infer(&toy_input(2, 4), Some(&bad)),
            Err(PnnError::Data { .. })
        ));
    }

    #[test]
    fn wrong_input_width_is_rejected() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s).unwrap();
        assert!(matches!(
            pnn.infer(&toy_input(2, 5), None),
            Err(PnnError::Data { .. })
        ));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s).unwrap();
        let mut g = Graph::new();
        let (scores, vars) = pnn.forward(&mut g, &toy_input(5, 4), None).unwrap();
        let loss = pnn
            .loss(&mut g, scores, &[0, 1, 2, 0, 1], LossKind::default())
            .unwrap();
        let grads = g.backward(loss).unwrap();
        for (k, theta) in vars.thetas.iter().enumerate() {
            let gt = grads
                .get(*theta)
                .unwrap_or_else(|| panic!("theta {k} missing grad"));
            assert!(gt.norm() > 0.0, "theta {k} has zero gradient");
        }
        let mut any_circuit_grad = false;
        for w in &vars.circuit_ws {
            if let Some(gw) = grads.get(*w) {
                any_circuit_grad |= gw.norm() > 0.0;
            }
        }
        assert!(any_circuit_grad, "no circuit parameter received gradient");
    }

    #[test]
    fn both_loss_kinds_build() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 2), s).unwrap();
        let mut g = Graph::new();
        let (scores, _) = pnn.forward(&mut g, &toy_input(3, 4), None).unwrap();
        let m = pnn
            .loss(&mut g, scores, &[0, 1, 0], LossKind::Margin { margin: 0.3 })
            .unwrap();
        let ce = pnn
            .loss(
                &mut g,
                scores,
                &[0, 1, 0],
                LossKind::CrossEntropy { temperature: 0.1 },
            )
            .unwrap();
        assert!(g.value(m)[(0, 0)] >= 0.0);
        assert!(g.value(ce)[(0, 0)] >= 0.0);
    }

    #[test]
    fn save_load_round_trip_preserves_inference() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s).unwrap();
        let path = std::env::temp_dir().join("pnc_core_save_test.json");
        pnn.save(&path).unwrap();
        let back = Pnn::load(&path).unwrap();
        let x = toy_input(4, 4);
        let a = pnn.infer(&x, None).unwrap();
        let b = back.infer(&x, None).unwrap();
        // JSON floats round-trip to within 1 ULP in this environment.
        assert!(a.approx_eq(&b, 1e-9));
        assert_eq!(back.config(), pnn.config());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_missing_file() {
        let err = Pnn::load(std::path::Path::new("/nonexistent/pnc.json"));
        assert!(matches!(err, Err(PnnError::Data { .. })));
    }

    #[test]
    fn predict_returns_valid_classes() {
        let s = quick_surrogate();
        let pnn = Pnn::new(PnnConfig::for_dataset(4, 3), s).unwrap();
        let preds = pnn.predict(&toy_input(8, 4), None).unwrap();
        assert_eq!(preds.len(), 8);
        assert!(preds.iter().all(|&p| p < 3));
    }
}
