use pnc_autodiff::{Graph, Parameter, Var};
use pnc_linalg::simd::{gemm_f64, gemm_nt_f64};
use pnc_linalg::{tanh, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The paper's surrogate architecture: 13 weight layers with neuron counts
/// 10-9-9-8-8-7-7-6-6-6-5-5-5-4 (Sec. III-A).
pub const PAPER_LAYER_SIZES: [usize; 14] = [10, 9, 9, 8, 8, 7, 7, 6, 6, 6, 5, 5, 5, 4];

/// A fully connected regression network with tanh hidden activations and a
/// linear output layer. Every hidden `tanh`, taped or not, is
/// [`pnc_linalg::tanh`].
///
/// The network is deliberately minimal: it exists to approximate the smooth
/// mapping ω̃ ↦ η̃ from normalized circuit parameters to normalized curve
/// parameters. It can run in three modes:
///
/// * [`Mlp::predict`] — plain `f64` forward pass (no tape), for evaluation,
///   compiled inference and test-time Monte-Carlo robustness sweeps; it is
///   the one-row case of the batched forward that scores surrogate
///   training, and bit-identical to `forward_const` (same operations, same
///   order);
/// * [`Mlp::forward_train`] — weights as trainable leaves, for surrogate
///   training;
/// * [`Mlp::forward_const`] — weights as constants inside a larger graph, so
///   gradients flow *through* the network to its input (how the pNN learns
///   ω, Fig. 5).
///
/// # Examples
///
/// ```
/// use pnc_surrogate::Mlp;
///
/// let mlp = Mlp::new(&[3, 4, 2], 1);
/// let y = mlp.predict(&[0.1, 0.5, 0.9]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    sizes: Vec<usize>,
    weights: Vec<Parameter>,
    biases: Vec<Parameter>,
}

impl Mlp {
    /// Creates a network with Xavier-uniform initial weights.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layer sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(sizes.len() - 1);
        let mut biases = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
            let weight = Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-limit..limit));
            weights.push(Parameter::new(weight));
            biases.push(Parameter::new(Matrix::zeros(1, fan_out)));
        }
        Mlp {
            sizes: sizes.to_vec(),
            weights,
            biases,
        }
    }

    /// Layer sizes including input and output.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        // The constructor rejects fewer than two sizes, so `sizes` is
        // non-empty; 0 is a safe degenerate answer rather than a panic.
        self.sizes.last().copied().unwrap_or(0)
    }

    /// Checks that the network maps `input` features to `output` values:
    /// the layer sizes chain from one to the other through non-empty
    /// layers, every weight is `fan_in × fan_out`, every bias `1 × fan_out`,
    /// and every parameter is finite. Deserialization accepts any shapes,
    /// so a loaded network is checked here before a forward pass can panic.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub(crate) fn check(&self, input: usize, output: usize) -> Result<(), String> {
        let sizes = &self.sizes;
        if sizes.len() < 2
            || sizes[0] != input
            || sizes[sizes.len() - 1] != output
            || sizes.contains(&0)
        {
            return Err(format!(
                "layer sizes {sizes:?} do not run from {input} to {output} through non-empty layers"
            ));
        }
        let layers = sizes.len() - 1;
        if self.weights.len() != layers || self.biases.len() != layers {
            return Err(format!(
                "{} weights and {} biases for {layers} layers",
                self.weights.len(),
                self.biases.len()
            ));
        }
        for (k, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let (fan_in, fan_out) = (sizes[k], sizes[k + 1]);
            let (w, b) = (w.value(), b.value());
            if w.shape() != (fan_in, fan_out)
                || w.as_slice().len() != fan_in * fan_out
                || b.shape() != (1, fan_out)
                || b.as_slice().len() != fan_out
            {
                return Err(format!(
                    "layer {k}: weight {:?} and bias {:?} with {} and {} values, \
                     expected ({fan_in}, {fan_out}) and (1, {fan_out})",
                    w.shape(),
                    b.shape(),
                    w.as_slice().len(),
                    b.as_slice().len()
                ));
            }
            if !w
                .as_slice()
                .iter()
                .chain(b.as_slice())
                .all(|v| v.is_finite())
            {
                return Err(format!("layer {k} has a non-finite parameter"));
            }
        }
        Ok(())
    }

    /// Number of scalar parameters (weights + biases).
    pub fn num_parameters(&self) -> usize {
        self.weights.iter().map(|w| w.value().len()).sum::<usize>()
            + self.biases.iter().map(|b| b.value().len()).sum::<usize>()
    }

    /// Plain forward pass on a single input row: the one-row case of the
    /// batched forward, so it is bit-identical to [`Mlp::forward_const`]
    /// on a `1×n` row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        self.predict_rows(x)
    }

    /// Plain forward pass over a batch: `x` holds whole input rows
    /// (`input_dim()` values each, row-major; its length is a multiple of
    /// the input width) and the result holds their outputs the same way.
    ///
    /// Each layer runs the graph's `matmul` → `add` → `tanh` sequence on
    /// the whole batch, operation for operation: the product through
    /// [`gemm_f64`], the microkernel behind `Matrix::matmul_into` (each
    /// unit summed from `0.0` with the input index ascending), then the bias,
    /// then [`tanh`] on every hidden layer. Row `i` of the result is
    /// therefore bit for bit [`Mlp::predict`] on row `i` and
    /// [`Mlp::forward_const`] on the batch.
    pub(crate) fn predict_rows(&self, x: &[f64]) -> Vec<f64> {
        let rows = x.len() / self.input_dim();
        let mut h = Vec::new();
        let mut next = Vec::new();
        let last = self.weights.len() - 1;
        for (layer, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let (fan_in, fan_out) = w.value().shape();
            let input = if layer == 0 { x } else { &h };
            next.clear();
            next.resize(rows * fan_out, 0.0);
            gemm_f64(
                rows,
                fan_in,
                fan_out,
                input,
                w.value().as_slice(),
                &mut next,
            );
            let bias = b.value().as_slice();
            for row in next.chunks_exact_mut(fan_out) {
                for (v, &bj) in row.iter_mut().zip(bias) {
                    let lin = *v + bj;
                    *v = if layer < last { tanh(lin) } else { lin };
                }
            }
            std::mem::swap(&mut h, &mut next);
        }
        h
    }

    /// [`Mlp::predict`] on one row that keeps every layer's output in
    /// `acts`, layer after layer (the hidden ones after their `tanh`), for
    /// [`Mlp::input_grad`]. The output row is the tail of `acts`; it has
    /// the bits of `predict`, which runs the same operations.
    pub(crate) fn forward_keep(&self, x: &[f64], acts: &mut Vec<f64>) {
        acts.clear();
        let last = self.weights.len() - 1;
        for (layer, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let (fan_in, fan_out) = w.value().shape();
            let begin = acts.len();
            acts.resize(begin + fan_out, 0.0);
            let (prev, next) = acts.split_at_mut(begin);
            let input = if layer == 0 {
                x
            } else {
                &prev[begin - fan_in..]
            };
            gemm_f64(1, fan_in, fan_out, input, w.value().as_slice(), next);
            for (v, &bj) in next.iter_mut().zip(b.value().as_slice()) {
                let lin = *v + bj;
                *v = if layer < last { tanh(lin) } else { lin };
            }
        }
    }

    /// `∂L/∂x` of the row [`Mlp::forward_keep`] left in `acts`, from `g`
    /// holding `∂L/∂y`; `g` ends holding `∂L/∂x` and `scratch` is spare
    /// room. This is the tape's backward of [`Mlp::forward_const`], layer
    /// by layer from the last: `g·(1 − t²)` through each hidden `tanh`, the
    /// bias `add` passing `g` on, and `g·Wᵀ` through [`gemm_nt_f64`], the
    /// kernel behind the tape's `matmul` backward — so the bits are the
    /// tape's.
    pub(crate) fn input_grad(&self, acts: &[f64], g: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        let last = self.weights.len() - 1;
        let mut end = acts.len();
        for (layer, w) in self.weights.iter().enumerate().rev() {
            let (fan_in, fan_out) = w.value().shape();
            let t = &acts[end - fan_out..end];
            end -= fan_out;
            if layer < last {
                for (gj, &tj) in g.iter_mut().zip(t) {
                    *gj *= 1.0 - tj * tj;
                }
            }
            scratch.clear();
            scratch.resize(fan_in, 0.0);
            gemm_nt_f64(1, fan_out, fan_in, g, w.value().as_slice(), scratch);
            std::mem::swap(g, scratch);
        }
    }

    /// Forward pass with weights registered as trainable leaves.
    ///
    /// Returns the output node plus the parallel `(parameters, leaf vars)`
    /// bookkeeping needed to apply optimizer updates: weights first, then
    /// biases, layer by layer.
    ///
    /// # Errors
    ///
    /// Returns an autodiff error if `x` has the wrong number of columns.
    pub fn forward_train(
        &self,
        g: &mut Graph,
        x: Var,
    ) -> Result<(Var, Vec<Var>), pnc_autodiff::AutodiffError> {
        let mut param_vars = Vec::with_capacity(2 * self.weights.len());
        let mut h = x;
        let last = self.weights.len() - 1;
        for (layer, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let wv = w.leaf(g);
            let bv = b.leaf(g);
            param_vars.push(wv);
            param_vars.push(bv);
            let lin = g.matmul(h, wv)?;
            let lin = g.add(lin, bv)?;
            h = if layer < last { g.tanh(lin) } else { lin };
        }
        Ok((h, param_vars))
    }

    /// Forward pass with weights registered as constants, letting gradients
    /// flow to the *input* only.
    ///
    /// # Errors
    ///
    /// Returns an autodiff error if `x` has the wrong number of columns.
    pub fn forward_const(&self, g: &mut Graph, x: Var) -> Result<Var, pnc_autodiff::AutodiffError> {
        let mut h = x;
        let last = self.weights.len() - 1;
        for (layer, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let wv = g.constant(w.value());
            let bv = g.constant(b.value());
            let lin = g.matmul(h, wv)?;
            let lin = g.add(lin, bv)?;
            h = if layer < last { g.tanh(lin) } else { lin };
        }
        Ok(h)
    }

    /// Mutable access to all parameters (weights then biases, layer by
    /// layer), in the same order as the vars returned by
    /// [`Mlp::forward_train`].
    pub fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut out: Vec<&mut Parameter> = Vec::with_capacity(2 * self.weights.len());
        // Interleave to match forward_train's var order.
        for (w, b) in self.weights.iter_mut().zip(self.biases.iter_mut()) {
            out.push(w);
            out.push(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_autodiff::Adam;

    #[test]
    fn paper_sizes_are_thirteen_layers() {
        assert_eq!(PAPER_LAYER_SIZES.len(), 14);
        let mlp = Mlp::new(&PAPER_LAYER_SIZES, 0);
        assert_eq!(mlp.sizes().len(), 14);
        assert_eq!(mlp.input_dim(), 10);
        assert_eq!(mlp.output_dim(), 4);
        assert!(mlp.num_parameters() > 500);
    }

    #[test]
    fn predict_matches_graph_forward() {
        // Bitwise: `predict` runs the graph's matmul → add → tanh sequence.
        let mlp = Mlp::new(&[4, 5, 3], 42);
        let x = [0.1, -0.3, 0.7, 0.2];
        let plain = Matrix::row_vector(&mlp.predict(&x));

        let mut g = Graph::new();
        let node = g.constant(Matrix::row_vector(&x));
        let out = mlp.forward_const(&mut g, node).unwrap();
        assert_eq!(g.value(out), &plain);

        let mut g = Graph::new();
        let node = g.constant(Matrix::row_vector(&x));
        let (out, _) = mlp.forward_train(&mut g, node).unwrap();
        assert_eq!(g.value(out), &plain);

        // The batched forward: per-row `predict` and `forward_const` on the
        // whole batch, bit for bit, on 0, 1 and many rows. At 70 rows the
        // graph's matmul splits its rows into 64-row cache blocks while
        // `predict_rows` runs one microkernel call; the paper's layer widths
        // cover every column remainder.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mlp in [mlp, Mlp::new(&PAPER_LAYER_SIZES, 3)] {
            let width = mlp.input_dim();
            for rows in [0, 1, 70] {
                let xs = Matrix::from_fn(rows, width, |i, j| {
                    ((i * width + j) as f64 * 0.37).sin() * 1.5
                });
                let batched = mlp.predict_rows(xs.as_slice());
                let per_row: Vec<f64> = (0..rows).flat_map(|i| mlp.predict(xs.row(i))).collect();
                assert_eq!(bits(&batched), bits(&per_row), "{rows} rows");
                assert_eq!(batched.len(), rows * mlp.output_dim());
                let mut g = Graph::new();
                let node = g.constant(&xs);
                let out = mlp.forward_const(&mut g, node).unwrap();
                assert_eq!(bits(&batched), bits(g.value(out).as_slice()), "{rows} rows");
            }
        }
    }

    #[test]
    fn initialization_is_seeded() {
        let a = Mlp::new(&[3, 3, 2], 7);
        let b = Mlp::new(&[3, 3, 2], 7);
        let c = Mlp::new(&[3, 3, 2], 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gradients_flow_through_const_network_to_input() {
        let mlp = Mlp::new(&[3, 4, 2], 3);
        let report = pnc_autodiff::gradcheck::check_gradients(
            &[Matrix::row_vector(&[0.2, 0.5, -0.4])],
            1e-6,
            |g, vars| {
                let y = mlp.forward_const(g, vars[0]).unwrap();
                g.sum(y)
            },
        );
        assert!(report.max_abs_error < 1e-6, "{report:?}");
    }

    #[test]
    fn can_learn_a_linear_map() {
        // Small regression sanity check: y = [x0 + x1, x0 − x1].
        let mut mlp = Mlp::new(&[2, 6, 2], 5);
        let xs = Matrix::from_fn(64, 2, |i, j| {
            let t = i as f64 / 63.0 * 2.0 - 1.0;
            if j == 0 {
                t
            } else {
                (t * 7.0).sin() * 0.5
            }
        });
        let ys = Matrix::from_fn(64, 2, |i, j| {
            let a = xs[(i, 0)];
            let b = xs[(i, 1)];
            if j == 0 {
                a + b
            } else {
                a - b
            }
        });

        let mut opt = Adam::new(0.02);
        let mut final_loss = f64::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new();
            let x = g.constant(&xs);
            let t = g.constant(&ys);
            let (pred, vars) = mlp.forward_train(&mut g, x).unwrap();
            let diff = g.sub(pred, t).unwrap();
            let sq = g.powi(diff, 2);
            let loss = g.mean(sq);
            final_loss = g.value(loss)[(0, 0)];
            let grads = g.backward(loss).unwrap();
            let mut params = mlp.parameters_mut();
            opt.step(&mut params, &vars, &grads);
        }
        assert!(final_loss < 1e-3, "final loss {final_loss}");
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let mlp = Mlp::new(&[4, 5, 3], 11);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.3, 0.1, -0.2, 0.9];
        // JSON float writing is shortest-repr (±1 ULP here), so compare with
        // a tight tolerance rather than bitwise.
        for (a, b) in mlp.predict(&x).iter().zip(back.predict(&x)) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn predict_checks_input_dim() {
        Mlp::new(&[3, 2], 0).predict(&[1.0]);
    }
}
