//! Compiled allocation-free inference plan for trained pNNs.
//!
//! [`Pnn::infer`] walks the full autodiff graph on every call: it re-runs
//! the 13-layer surrogate MLP per circuit pair, re-projects θ, and rebuilds
//! every node of the forward tape — all of which is input-independent for a
//! trained network. [`InferencePlan::compile`] hoists that work to
//! construction time: the printable weights `W⁺`/`W⁻` of Eq. 1 and the η
//! curve parameters of Eqs. 2–3 are extracted **once**, with no graph — η
//! comes from [`crate::NonlinearCircuit::eta`], whose plain surrogate
//! forward is the tape's operation sequence, so the plan is bit-identical
//! to [`Pnn::infer`] — and the per-call work collapses to a fixed sequence
//! of microkernel GEMMs and tanh curve evaluations over preallocated
//! buffers — zero allocations and zero graph-walking per forward, for
//! single samples and micro-batches alike. That sequence is the forward
//! half of the stages the trainer's compiled step runs
//! (`crates/core/src/stages.rs`), so the arithmetic exists once.
//!
//! The plan is f64 only: it reproduces the printed circuit's nominal
//! forward pass bit for bit at every batch size and chunking. See
//! DESIGN.md §12 for the full contract and for the measurement that retired
//! the f32 and Q1.14 plans.
//!
//! Plans capture the *nominal* network: printing variation is a training
//! concern and a robustness-evaluation one, and both apply it per draw in
//! the trainer's compiled step (`mc_evaluate` runs that step's forward).
//!
//! # Examples
//!
//! ```no_run
//! # use pnc_core::{InferencePlan, Pnn, PnnConfig};
//! # use pnc_linalg::Matrix;
//! # use std::sync::Arc;
//! # fn demo(pnn: &Pnn, x: &Matrix) -> Result<(), pnc_core::PnnError> {
//! let mut plan = InferencePlan::compile(pnn)?;
//! let scores = plan.infer(x)?; // bit-identical to pnn.infer(x, None)
//! # let _ = scores;
//! # Ok(())
//! # }
//! ```

use crate::export::ArtifactLayer;
use crate::network::Pnn;
use crate::stages;
use crate::PnnError;
use pnc_linalg::Matrix;
use pnc_obs::Counter;

// Observability: compiled-inference traffic. Catalogued in docs/METRICS.md.
static OBS_PLANS_COMPILED: Counter = Counter::new("infer.plans_compiled");
static OBS_SAMPLES: Counter = Counter::new("infer.samples");
static OBS_BATCHES: Counter = Counter::new("infer.batches");

fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_PLANS_COMPILED.register();
        OBS_SAMPLES.register();
        OBS_BATCHES.register();
    });
}

/// Default micro-batch capacity of a compiled plan: forward buffers are
/// sized for this many rows; larger batches stream through in chunks.
pub const DEFAULT_CAPACITY: usize = 64;

impl ArtifactLayer {
    /// Width of the extended input `[x, 1, 0]` of Eq. 1.
    fn ext_dim(&self) -> usize {
        self.in_dim + 2
    }
}

/// Extracts the flattened layers of a trained network: the layer payload
/// of a [`crate::PnnArtifact`] and what an [`InferencePlan`] executes.
///
/// η comes from the plain [`crate::NonlinearCircuit::eta`], which is
/// bit-identical to the [`crate::NonlinearCircuit::eta_graph`] chain the
/// training forward builds (the surrogate's plain forward runs the tape's
/// `matmul` → `add` → `tanh` sequence), and the weights come from the
/// shared [`stages::normalize`] over the projected θ — both are required
/// for the plan's bit-identity contract. `eta_act.len()` is 1 for the
/// single-GEMM path (shared or per-layer circuit granularity) and `out_dim`
/// for the per-neuron bespoke path — exactly the dispatch
/// [`crate::PLayer::forward`] uses.
pub(crate) fn extract_layers(pnn: &Pnn) -> Vec<ArtifactLayer> {
    let surrogate = pnn.surrogate();
    let pair_etas: Vec<([f64; 4], [f64; 4])> = pnn
        .circuits()
        .iter()
        .map(|(act, inv)| (act.eta(surrogate, None), inv.eta(surrogate, None)))
        .collect();

    let config = pnn.config();
    let last = pnn.num_layers() - 1;
    let mut layers = Vec::with_capacity(pnn.num_layers());
    for (i, layer) in pnn.layers().iter().enumerate() {
        let (rows, out_dim) = layer.theta_shape();
        let projected = layer.printable_conductances(config.g_min, config.g_max);
        let mut total = vec![0.0_f64; out_dim];
        let mut w_pos = vec![0.0_f64; rows * out_dim];
        let mut w_neg = vec![0.0_f64; rows * out_dim];
        stages::normalize(
            projected.as_slice(),
            out_dim,
            &mut total,
            &mut w_pos,
            &mut w_neg,
        );

        let (eta_act, eta_inv): (Vec<[f64; 4]>, Vec<[f64; 4]>) =
            pair_etas[pnn.pair_range(i)].iter().copied().unzip();
        let inv_ones = eta_inv
            .iter()
            .map(|inv| stages::inv_curve(inv, 1.0).1)
            .collect();
        layers.push(ArtifactLayer {
            in_dim: layer.in_dim(),
            out_dim,
            w_pos,
            w_neg,
            eta_act,
            eta_inv,
            inv_ones,
            apply_act: i < last || config.activation_on_output,
        });
    }
    layers
}

/// Preallocated forward buffers of a plan, sized at compile time for
/// `capacity` rows. `h` ping-pongs activations between layers; `x_ext` and
/// `x_inv` hold the `[x, 1, 0]` / `[inv(x), inv(1), 0]` extended inputs of
/// Eq. 1; `z_pos`/`z_neg`/`z` hold the crossbar GEMMs and their sum; `t`
/// and `t_act` take the inverter's and the activation's tanh values.
#[derive(Debug, Clone)]
struct Scratch {
    h: Vec<f64>,
    x_ext: Vec<f64>,
    x_inv: Vec<f64>,
    t: Vec<f64>,
    z_pos: Vec<f64>,
    z_neg: Vec<f64>,
    z: Vec<f64>,
    t_act: Vec<f64>,
}

impl Scratch {
    fn new(layers: &[ArtifactLayer], capacity: usize) -> Scratch {
        let max_ext = layers.iter().map(ArtifactLayer::ext_dim).max().unwrap_or(2);
        let max_in = layers.iter().map(|l| l.in_dim).max().unwrap_or(1);
        let max_out = layers.iter().map(|l| l.out_dim).max().unwrap_or(1);
        let out = vec![0.0; capacity * max_out];
        Scratch {
            h: vec![0.0; capacity * max_in.max(max_out)],
            x_ext: vec![0.0; capacity * max_ext],
            x_inv: vec![0.0; capacity * max_ext],
            t: vec![0.0; capacity * max_in],
            z_pos: out.clone(),
            z_neg: out.clone(),
            z: out.clone(),
            t_act: out,
        }
    }
}

/// Runs all layers over the `b` rows currently in `s.h` (row-major,
/// `layers[0].in_dim` wide); leaves the `b × out` output in `s.h`.
fn run_layers_f64(layers: &[ArtifactLayer], s: &mut Scratch, b: usize) {
    for layer in layers {
        let (input, ext, out) = (layer.in_dim, layer.ext_dim(), layer.out_dim);
        // Extended inputs [x, 1, 0] (and the copy frees `h` for the output).
        stages::extend(&s.h[..b * input], input, &mut s.x_ext[..b * ext]);
        let (x_ext, x_inv, t) = (
            &s.x_ext[..b * ext],
            &mut s.x_inv[..b * ext],
            &mut s.t[..b * input],
        );
        let z = &mut s.z[..b * out];
        if layer.eta_act.len() == 1 {
            // Single circuit pair: the dual-GEMM path of Eq. 1 + Eq. 3.
            stages::invert(&layer.eta_inv[0], layer.inv_ones[0], x_ext, input, t, x_inv);
            stages::crossbar(
                ext,
                out,
                x_ext,
                x_inv,
                &layer.w_pos,
                &layer.w_neg,
                &mut s.z_pos[..b * out],
                &mut s.z_neg[..b * out],
                z,
            );
        } else {
            // Per-neuron bespoke circuits: column j routes through its own
            // inverter design.
            for (j, eta_inv) in layer.eta_inv.iter().enumerate() {
                stages::invert(eta_inv, layer.inv_ones[j], x_ext, input, t, x_inv);
                stages::crossbar_column(j, out, x_ext, x_inv, &layer.w_pos, &layer.w_neg, z);
            }
        }
        let h = &mut s.h[..b * out];
        if layer.apply_act {
            stages::activate(&layer.eta_act, out, z, &mut s.t_act[..b * out], h);
        } else {
            h.copy_from_slice(z);
        }
    }
}

fn check_input(x: &Matrix, in_dim: usize) -> Result<(), PnnError> {
    if x.cols() != in_dim {
        return Err(PnnError::Data {
            detail: format!("plan expects {} input features, got {}", in_dim, x.cols()),
        });
    }
    Ok(())
}

fn check_output(out: &Matrix, rows: usize, out_dim: usize) -> Result<(), PnnError> {
    if out.shape() != (rows, out_dim) {
        return Err(PnnError::Data {
            detail: format!(
                "output buffer is {:?}, need {:?}",
                out.shape(),
                (rows, out_dim)
            ),
        });
    }
    Ok(())
}

/// A trained pNN compiled to a flat, allocation-free f64 forward pass.
///
/// Outputs are **bit-identical** to [`Pnn::infer`] with nominal printing
/// (`noise = None`) at every batch size and chunking; the property tests in
/// `tests/infer_plan.rs` assert exact equality across the 13-dataset suite.
/// After [`compile`](Self::compile), the entry points perform no heap
/// allocation beyond the caller-provided output.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    layers: Vec<ArtifactLayer>,
    in_dim: usize,
    out_dim: usize,
    capacity: usize,
    scratch: Scratch,
}

impl InferencePlan {
    /// Compiles a trained network with the [`DEFAULT_CAPACITY`] micro-batch
    /// size.
    ///
    /// # Errors
    ///
    /// None today: extraction reads plain numbers and cannot fail. The
    /// `Result` keeps the signature stable for callers.
    pub fn compile(pnn: &Pnn) -> Result<InferencePlan, PnnError> {
        Self::compile_with_capacity(pnn, DEFAULT_CAPACITY)
    }

    /// Compiles with an explicit micro-batch capacity (clamped to ≥ 1).
    /// Larger batches stream through in `capacity`-row chunks — chunking
    /// never changes results because the forward has no cross-row coupling.
    ///
    /// # Errors
    ///
    /// As for [`Self::compile`].
    pub fn compile_with_capacity(pnn: &Pnn, capacity: usize) -> Result<InferencePlan, PnnError> {
        Ok(Self::from_layers(
            pnn.config().layer_sizes[0],
            extract_layers(pnn),
            capacity,
        ))
    }

    /// The one constructor behind both compile paths: sizes the scratch
    /// buffers for `capacity` (clamped to ≥ 1) rows of `layers`.
    fn from_layers(in_dim: usize, layers: Vec<ArtifactLayer>, capacity: usize) -> InferencePlan {
        obs_register();
        let capacity = capacity.max(1);
        let scratch = Scratch::new(&layers, capacity);
        OBS_PLANS_COMPILED.increment();
        InferencePlan {
            in_dim,
            out_dim: layers.last().map(|l| l.out_dim).unwrap_or(0),
            layers,
            capacity,
            scratch,
        }
    }

    /// Compiles a plan from an exported [`crate::PnnArtifact`] — no live
    /// network or surrogate needed. The plan executes the artifact's layers
    /// as they are: they are the exact f64 numbers [`Self::compile`] would
    /// extract, so the resulting plan is **bit-identical** to one compiled
    /// from the originating network.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] if the artifact fails validation
    /// (non-finite values, inconsistent shapes).
    pub fn compile_artifact(artifact: &crate::PnnArtifact) -> Result<InferencePlan, PnnError> {
        Self::compile_artifact_with_capacity(artifact, DEFAULT_CAPACITY)
    }

    /// [`Self::compile_artifact`] with an explicit micro-batch capacity
    /// (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] if the artifact fails validation.
    pub fn compile_artifact_with_capacity(
        artifact: &crate::PnnArtifact,
        capacity: usize,
    ) -> Result<InferencePlan, PnnError> {
        artifact.validate()?;
        Ok(Self::from_layers(
            artifact.in_dim,
            artifact.layers.clone(),
            capacity,
        ))
    }

    /// Input width the plan was compiled for.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width (number of classes).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Micro-batch capacity of the preallocated buffers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of compiled crossbar layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output voltages for a batch, bit-identical to
    /// `pnn.infer(x, None)`. Allocates only the returned matrix; use
    /// [`Self::infer_into`] for the fully allocation-free path.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if `x` does not match the input width.
    pub fn infer(&mut self, x: &Matrix) -> Result<Matrix, PnnError> {
        let mut out = Matrix::zeros(x.rows(), self.out_dim);
        self.infer_into(x, &mut out)?;
        Ok(out)
    }

    /// Writes output voltages for a batch into `out` (`x.rows() ×
    /// out_dim`), allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] on input-width or output-shape mismatch.
    pub fn infer_into(&mut self, x: &Matrix, out: &mut Matrix) -> Result<(), PnnError> {
        check_input(x, self.in_dim)?;
        check_output(out, x.rows(), self.out_dim)?;
        let (rows, in_dim, out_dim) = (x.rows(), self.in_dim, self.out_dim);
        let mut start = 0;
        while start < rows {
            let end = (start + self.capacity).min(rows);
            let b = end - start;
            self.scratch.h[..b * in_dim]
                .copy_from_slice(&x.as_slice()[start * in_dim..end * in_dim]);
            run_layers_f64(&self.layers, &mut self.scratch, b);
            out.as_mut_slice()[start * out_dim..end * out_dim]
                .copy_from_slice(&self.scratch.h[..b * out_dim]);
            start = end;
        }
        OBS_SAMPLES.add(rows as u64);
        OBS_BATCHES.increment();
        Ok(())
    }

    /// Argmax class predictions, matching [`Pnn::predict`] bit for bit.
    ///
    /// # Errors
    ///
    /// As for [`Self::infer`].
    pub fn predict(&mut self, x: &Matrix) -> Result<Vec<usize>, PnnError> {
        let scores = self.infer(x)?;
        Ok((0..scores.rows())
            .map(|i| crate::argmax_row(scores.row(i)))
            .collect())
    }
}

/// Numeric precision of a compiled plan. It carries no choice: the only
/// variant is [`Self::F64`]. It stays only so the `benchmark` package,
/// which names it, keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPrecision {
    /// Full f64 — bit-identical to the autodiff-graph forward.
    F64,
}

/// A compiled pNN behind the benchmark's dispatch API. It carries no
/// choice: the only variant wraps an [`InferencePlan`]. It stays only so
/// the `benchmark` package, which names it, keeps compiling; everything
/// else uses [`InferencePlan`] directly.
#[derive(Debug, Clone)]
pub enum CompiledPnn {
    /// Bit-exact f64 plan.
    F64(InferencePlan),
}

impl CompiledPnn {
    /// Compiles `pnn` into an [`InferencePlan`].
    ///
    /// # Errors
    ///
    /// As for [`InferencePlan::compile`].
    pub fn compile(pnn: &Pnn, precision: PlanPrecision) -> Result<CompiledPnn, PnnError> {
        let PlanPrecision::F64 = precision;
        Ok(CompiledPnn::F64(InferencePlan::compile(pnn)?))
    }

    /// Output voltages for a batch ([`InferencePlan::infer`]).
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if `x` does not match the input width.
    pub fn infer(&mut self, x: &Matrix) -> Result<Matrix, PnnError> {
        let CompiledPnn::F64(plan) = self;
        plan.infer(x)
    }
}
