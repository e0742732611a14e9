//! Compiled allocation-free inference plan for trained pNNs.
//!
//! [`Pnn::infer`] walks the full autodiff graph on every call: it re-runs
//! the 13-layer surrogate MLP per circuit pair, re-projects θ, and rebuilds
//! every node of the forward tape — all of which is input-independent for a
//! trained network. [`InferencePlan::compile`] hoists that work to
//! construction time: the printable weights `W⁺`/`W⁻` of Eq. 1 and the η
//! curve parameters of Eqs. 2–3 are extracted **once** (through the same
//! graph machinery the training forward uses, so the plan is bit-identical
//! to [`Pnn::infer`]), and the per-call work collapses to a fixed sequence
//! of microkernel GEMMs and tanh curve evaluations over preallocated
//! buffers — zero allocations and zero graph-walking per forward, for
//! single samples and micro-batches alike.
//!
//! The plan is f64 only: it reproduces the printed circuit's nominal
//! forward pass bit for bit at every batch size and thread count. See
//! DESIGN.md §12 for the full contract and for the measurement that retired
//! the f32 and Q1.14 plans.
//!
//! Plans capture the *nominal* network: printing variation (a training and
//! robustness-evaluation concern) stays on the graph path.
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

use crate::layer::project_printable;
use crate::network::Pnn;
use crate::PnnError;
use pnc_autodiff::Graph;
use pnc_linalg::simd::gemm_f64;
use pnc_linalg::{Matrix, ParallelConfig};
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

/// One crossbar layer, flattened for execution: printable weights split by
/// sign, η curve parameters per circuit pair, and the precomputed inverter
/// response to the 1 V bias leg. `etas.len()` is 1 for the single-GEMM path
/// (shared or per-layer circuit granularity) and `out_dim` for the
/// per-neuron bespoke path — exactly the dispatch [`crate::PLayer::forward`]
/// uses.
#[derive(Debug, Clone)]
pub(crate) struct ExtractedLayer {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// `(in_dim + 2) × out_dim` row-major: normalized weights of θ ≥ 0
    /// entries, zero elsewhere.
    pub(crate) w_pos: Vec<f64>,
    /// Same shape: normalized weights of θ < 0 entries.
    pub(crate) w_neg: Vec<f64>,
    /// `(activation, negative-weight)` η quadruples per circuit pair.
    pub(crate) etas: Vec<([f64; 4], [f64; 4])>,
    /// `inv(1 V)` per pair — the negative-weight path of the bias leg.
    pub(crate) inv_ones: Vec<f64>,
    pub(crate) apply_act: bool,
}

impl ExtractedLayer {
    fn ext_dim(&self) -> usize {
        self.in_dim + 2
    }
}

/// Replicates the inverter transfer curve of [`crate::apply_inv`] with the
/// graph's exact scalar operation sequence.
#[inline]
fn inv_curve(e: &[f64; 4], x: f64) -> f64 {
    e[0] - ((x - e[2]) * e[3]).tanh() * e[1]
}

/// Replicates the ptanh activation of [`crate::apply_ptanh`] with the
/// graph's exact scalar operation sequence.
#[inline]
fn ptanh_curve(e: &[f64; 4], x: f64) -> f64 {
    ((x - e[2]) * e[3]).tanh() * e[1] + e[0]
}

/// Extracts the flattened layers of a trained network.
///
/// η values are read back from a scratch autodiff graph running the same
/// [`crate::NonlinearCircuit::eta_graph`] chain the training forward builds
/// (the plain `eta()` path differs from the graph in the last ulps), and
/// the weight arithmetic mirrors [`crate::PLayer::forward`] operation for
/// operation — both are required for the f64 plan's bit-identity contract.
pub(crate) fn extract_layers(pnn: &Pnn) -> Result<Vec<ExtractedLayer>, PnnError> {
    // η per circuit pair, through the graph machinery.
    let mut g = Graph::new();
    let mut pair_etas = Vec::with_capacity(pnn.circuits().len());
    for (act, inv) in pnn.circuits() {
        let act_w = act.register(&mut g);
        let inv_w = inv.register(&mut g);
        let eta_act = act.eta_graph(&mut g, act_w, pnn.surrogate(), None)?;
        let eta_inv = inv.eta_graph(&mut g, inv_w, pnn.surrogate(), None)?;
        let read = |g: &Graph, v| {
            let m = g.value(v);
            [m[(0, 0)], m[(0, 1)], m[(0, 2)], m[(0, 3)]]
        };
        pair_etas.push((read(&g, eta_act), read(&g, eta_inv)));
    }

    let config = pnn.config();
    let last = pnn.num_layers() - 1;
    let mut layers = Vec::with_capacity(pnn.num_layers());
    for (i, layer) in pnn.layers().iter().enumerate() {
        let (rows, out_dim) = layer.theta_shape();
        let in_dim = layer.in_dim();
        let theta = layer.theta.value();

        // Mirror the graph ops of `PLayer::forward` (nominal, no noise):
        // project (STE value) → abs → ascending-row column sums → divide →
        // multiply by the 1.0/0.0 sign masks.
        let projected: Vec<f64> = theta
            .as_slice()
            .iter()
            .map(|&t| project_printable(t, config.g_min, config.g_max))
            .collect();
        let mut total = vec![0.0_f64; out_dim];
        for r in 0..rows {
            for (j, tj) in total.iter_mut().enumerate() {
                *tj += projected[r * out_dim + j].abs();
            }
        }
        let mut w_pos = vec![0.0_f64; rows * out_dim];
        let mut w_neg = vec![0.0_f64; rows * out_dim];
        for r in 0..rows {
            for j in 0..out_dim {
                let p = projected[r * out_dim + j];
                let weight = p.abs() / total[j];
                let mask_pos = if p >= 0.0 { 1.0 } else { 0.0 };
                let mask_neg = if p < 0.0 { 1.0 } else { 0.0 };
                w_pos[r * out_dim + j] = weight * mask_pos;
                w_neg[r * out_dim + j] = weight * mask_neg;
            }
        }

        let etas: Vec<([f64; 4], [f64; 4])> = pair_etas[pnn.pair_range(i)].to_vec();
        let inv_ones: Vec<f64> = etas.iter().map(|(_, inv)| inv_curve(inv, 1.0)).collect();
        layers.push(ExtractedLayer {
            in_dim,
            out_dim,
            w_pos,
            w_neg,
            etas,
            inv_ones,
            apply_act: i < last || config.activation_on_output,
        });
    }
    Ok(layers)
}

/// Preallocated forward buffers of an f64 plan, sized at compile time for
/// `capacity` rows. `h` ping-pongs activations between layers; `x_ext` and
/// `x_inv` hold the `[x, 1, 0]` / `[inv(x), inv(1), 0]` extended inputs of
/// Eq. 1; `z_pos`/`z_neg` hold the two crossbar GEMM results.
#[derive(Debug, Clone)]
struct Scratch {
    h: Vec<f64>,
    x_ext: Vec<f64>,
    x_inv: Vec<f64>,
    z_pos: Vec<f64>,
    z_neg: Vec<f64>,
}

impl Scratch {
    fn new(layers: &[ExtractedLayer], capacity: usize) -> Scratch {
        let max_ext = layers
            .iter()
            .map(ExtractedLayer::ext_dim)
            .max()
            .unwrap_or(2);
        let max_out = layers.iter().map(|l| l.out_dim).max().unwrap_or(1);
        let max_width = layers
            .iter()
            .map(|l| l.in_dim.max(l.out_dim))
            .max()
            .unwrap_or(1);
        Scratch {
            h: vec![0.0; capacity * max_width],
            x_ext: vec![0.0; capacity * max_ext],
            x_inv: vec![0.0; capacity * max_ext],
            z_pos: vec![0.0; capacity * max_out],
            z_neg: vec![0.0; capacity * max_out],
        }
    }
}

/// Runs all layers over the `b` rows currently in `s.h` (row-major,
/// `layers[0].in_dim` wide); leaves the `b × out` output in `s.h`.
fn run_layers_f64(layers: &[ExtractedLayer], s: &mut Scratch, b: usize) {
    for layer in layers {
        let (input, ext, out) = (layer.in_dim, layer.ext_dim(), layer.out_dim);
        // Extended inputs [x, 1, 0] (and the copy frees `h` for the output).
        for i in 0..b {
            let row = i * ext;
            s.x_ext[row..row + input].copy_from_slice(&s.h[i * input..(i + 1) * input]);
            s.x_ext[row + input] = 1.0;
            s.x_ext[row + input + 1] = 0.0;
        }

        if layer.etas.len() == 1 {
            // Single circuit pair: the dual-GEMM path of Eq. 1 + Eq. 3.
            let (eta_act, eta_inv) = &layer.etas[0];
            for i in 0..b {
                let src = &s.x_ext[i * ext..i * ext + input];
                let dst = &mut s.x_inv[i * ext..(i + 1) * ext];
                for (d, &x) in dst[..input].iter_mut().zip(src) {
                    *d = inv_curve(eta_inv, x);
                }
                dst[input] = layer.inv_ones[0];
                dst[input + 1] = 0.0;
            }
            gemm_f64(
                b,
                ext,
                out,
                &s.x_ext[..b * ext],
                &layer.w_pos,
                &mut s.z_pos[..b * out],
            );
            gemm_f64(
                b,
                ext,
                out,
                &s.x_inv[..b * ext],
                &layer.w_neg,
                &mut s.z_neg[..b * out],
            );
            for idx in 0..b * out {
                let z = s.z_pos[idx] + s.z_neg[idx];
                s.h[idx] = if layer.apply_act {
                    ptanh_curve(eta_act, z)
                } else {
                    z
                };
            }
        } else {
            // Per-neuron bespoke circuits: column j routes through its own
            // inverter and activation design (dot products, k ascending).
            for (j, (eta_act, eta_inv)) in layer.etas.iter().enumerate() {
                for i in 0..b {
                    let row = i * ext;
                    for k in 0..input {
                        s.x_inv[row + k] = inv_curve(eta_inv, s.x_ext[row + k]);
                    }
                    s.x_inv[row + input] = layer.inv_ones[j];
                    s.x_inv[row + input + 1] = 0.0;
                }
                for i in 0..b {
                    let row = i * ext;
                    let mut z_pos = 0.0;
                    for k in 0..ext {
                        z_pos += s.x_ext[row + k] * layer.w_pos[k * out + j];
                    }
                    let mut z_neg = 0.0;
                    for k in 0..ext {
                        z_neg += s.x_inv[row + k] * layer.w_neg[k * out + j];
                    }
                    let z = z_pos + z_neg;
                    s.h[i * out + j] = if layer.apply_act {
                        ptanh_curve(eta_act, z)
                    } else {
                        z
                    };
                }
            }
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
/// (`noise = None`) at every batch size, chunking, and — via
/// [`Self::infer_parallel`] — thread count; the property tests in
/// `tests/infer_plan.rs` assert exact equality across the 13-dataset suite.
/// After [`compile`](Self::compile), the serial entry points perform no
/// heap allocation beyond the caller-provided output.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    layers: Vec<ExtractedLayer>,
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
    /// Propagates surrogate/graph failures from η extraction.
    pub fn compile(pnn: &Pnn) -> Result<InferencePlan, PnnError> {
        Self::compile_with_capacity(pnn, DEFAULT_CAPACITY)
    }

    /// Compiles with an explicit micro-batch capacity (clamped to ≥ 1).
    /// Larger batches stream through in `capacity`-row chunks — chunking
    /// never changes results because the forward has no cross-row coupling.
    ///
    /// # Errors
    ///
    /// Propagates surrogate/graph failures from η extraction.
    pub fn compile_with_capacity(pnn: &Pnn, capacity: usize) -> Result<InferencePlan, PnnError> {
        obs_register();
        let layers = extract_layers(pnn)?;
        let capacity = capacity.max(1);
        let scratch = Scratch::new(&layers, capacity);
        OBS_PLANS_COMPILED.increment();
        Ok(InferencePlan {
            in_dim: pnn.config().layer_sizes[0],
            out_dim: layers.last().map(|l| l.out_dim).unwrap_or(0),
            layers,
            capacity,
            scratch,
        })
    }

    /// Compiles a plan from an exported [`crate::PnnArtifact`] — no live
    /// network or surrogate needed. The artifact carries the exact f64
    /// numbers [`Self::compile`] would extract, so the resulting plan is
    /// **bit-identical** to one compiled from the originating network.
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
        obs_register();
        artifact.validate()?;
        let layers = artifact.extracted_layers();
        let capacity = capacity.max(1);
        let scratch = Scratch::new(&layers, capacity);
        OBS_PLANS_COMPILED.increment();
        Ok(InferencePlan {
            in_dim: artifact.in_dim,
            out_dim: artifact.out_dim,
            layers,
            capacity,
            scratch,
        })
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

    /// Parallel batched inference: rows are split into `capacity`-sized
    /// bands mapped over [`ParallelConfig`]'s deterministic ordered pool.
    /// Each band runs on its own scratch (one allocation per band — the
    /// price of `&self` sharing); results are bit-identical to
    /// [`Self::infer`] at every thread count because the forward has no
    /// cross-row coupling.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if `x` does not match the input width.
    pub fn infer_parallel(&self, x: &Matrix, par: &ParallelConfig) -> Result<Matrix, PnnError> {
        check_input(x, self.in_dim)?;
        let (rows, in_dim, out_dim) = (x.rows(), self.in_dim, self.out_dim);
        let bands = pnc_linalg::kernels::row_bands(rows, self.capacity);
        let results = par.ordered_par_map(&bands, |&(s, e)| {
            let b = e - s;
            let mut scratch = Scratch::new(&self.layers, b);
            scratch.h[..b * in_dim].copy_from_slice(&x.as_slice()[s * in_dim..e * in_dim]);
            run_layers_f64(&self.layers, &mut scratch, b);
            scratch.h[..b * out_dim].to_vec()
        });
        let mut out = Matrix::zeros(rows, out_dim);
        for (&(s, e), band) in bands.iter().zip(&results) {
            out.as_mut_slice()[s * out_dim..e * out_dim].copy_from_slice(band);
        }
        OBS_SAMPLES.add(rows as u64);
        OBS_BATCHES.increment();
        Ok(out)
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
    /// Propagates surrogate/graph failures from η extraction.
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
