//! `TrainPlan`: the training step of a [`Pnn`], compiled once per
//! [`crate::Trainer::train`] run, and `EvalPlan`, its forward pass
//! compiled once per Monte-Carlo evaluation ([`crate::mc_evaluate`]).
//!
//! Every Monte-Carlo draw of the training and validation losses runs a
//! hand-derived forward and backward pass over buffers the run owns: the
//! crossbar with the straight-through projection and θ variation, the
//! `|θ|` normalization and sign masks, the dual GEMM, the inverter, the
//! ptanh and the loss. The stage arithmetic is [`crate::stages`], shared
//! with [`crate::InferencePlan`]. Each learnable circuit's ω→η chain
//! (Fig. 5 plus the surrogate MLP) runs forward and backward by hand too
//! (`crate::nonlinearity::EtaChain`), seeded from the plan's `∂L/∂η`; no
//! draw records an autodiff tape. An evaluation draw runs the same forward
//! and scores the rows by [`argmax_row`].
//!
//! The plan reproduces the tape bit for bit: each stage performs the
//! tape's IEEE operations in the tape's order, and each gradient is summed
//! in the order `Graph::backward_into` sums it, including the zero-padded
//! `slice_cols` gradients. `plan_matches_tape_bitwise` checks loss and
//! gradients on every draw against [`Pnn::forward`] + `backward_into`, and
//! `tests/eval_oracle.rs` checks every evaluation draw against
//! [`Pnn::predict`].
//!
//! Work that depends only on ω and the fixed inputs runs once per distinct
//! ω instead of once per draw: a circuit's η is kept while its 𝔴 and ω
//! factors repeat (a fixed circuit without ω variation computes it once
//! per run, with no surrogate backward at all), and so are layer 1's
//! inverted inputs `inv(x)`.
//!
//! Buffers are sized once per run: one set per worker and data set, each
//! behind an uncontended mutex, since the thread pool starts fresh threads
//! on every parallel call. They are dropped when the plan is, which is
//! when `train` (or the evaluation) returns, on the error path too.

use crate::network::{argmax_row, LossKind, Pnn};
use crate::nonlinearity::{EtaChain, NonlinearCircuit};
use crate::stages::{self, Curve};
use crate::train::LabeledData;
use crate::variation::NoiseSample;
use crate::PnnError;
use pnc_linalg::simd::{gemm_nt_f64, gemm_tn_f64};
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_surrogate::SurrogateModel;
use std::sync::{Mutex, PoisonError};

/// Which data set a Monte-Carlo loss runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Split {
    /// The training rows (forward and backward).
    Train,
    /// The validation rows (forward only).
    Val,
}

/// One layer's shape and circuit routing.
#[derive(Debug, Clone)]
struct LayerPlan {
    in_dim: usize,
    out_dim: usize,
    /// Circuit pairs the layer uses: one, or one per output neuron.
    pairs: std::ops::Range<usize>,
    apply_act: bool,
}

impl LayerPlan {
    fn ext(&self) -> usize {
        self.in_dim + 2
    }

    fn per_neuron(&self) -> bool {
        self.pairs.len() > 1
    }
}

/// The loss and gradients of one draw.
#[derive(Debug)]
pub(crate) struct DrawOutcome {
    /// The draw's loss.
    pub(crate) loss: f64,
    /// `∂L/∂θ` per layer.
    pub(crate) theta: Vec<Matrix>,
    /// `∂L/∂𝔴` per learnable circuit, in circuit order.
    pub(crate) w: Vec<Matrix>,
}

/// The network-wide part of a plan: layer shapes, which circuits learn,
/// and the printable θ of the current step.
#[derive(Debug)]
struct Net {
    layers: Vec<LayerPlan>,
    /// Per circuit (activation then negative-weight, pair by pair):
    /// whether its 𝔴 is learnable.
    learnable: Vec<bool>,
    /// The printable θ of the current step, per layer: projected once per
    /// Monte-Carlo loss or evaluation and shared by its draws.
    projected: Vec<Vec<f64>>,
}

impl Net {
    /// The plan of `pnn`, checking that `data` sets match its input width.
    fn compile(pnn: &Pnn, data: &[LabeledData<'_>]) -> Result<Self, PnnError> {
        let config = pnn.config();
        for data in data {
            if data.features.cols() != config.layer_sizes[0] {
                return Err(PnnError::Data {
                    detail: format!(
                        "expected {} input features, got {}",
                        config.layer_sizes[0],
                        data.features.cols()
                    ),
                });
            }
        }
        let last = pnn.num_layers() - 1;
        let layers: Vec<LayerPlan> = pnn
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| LayerPlan {
                in_dim: layer.in_dim(),
                out_dim: layer.out_dim(),
                pairs: pnn.pair_range(i),
                apply_act: i < last || config.activation_on_output,
            })
            .collect();
        Ok(Net {
            projected: layers
                .iter()
                .map(|l| vec![0.0; l.ext() * l.out_dim])
                .collect(),
            learnable: circuits(pnn)
                .map(|c| matches!(c, NonlinearCircuit::Learnable { .. }))
                .collect(),
            layers,
        })
    }

    /// `workers` buffer sets for `data`, with backward buffers when
    /// `backward`.
    fn data_plan<'d>(&self, data: LabeledData<'d>, workers: usize, backward: bool) -> DataPlan<'d> {
        DataPlan {
            data,
            workers: (0..workers.max(1))
                .map(|_| {
                    Mutex::new(Workspace::new(
                        &self.layers,
                        &self.learnable,
                        data.features,
                        backward,
                    ))
                })
                .collect(),
        }
    }

    /// Projects `pnn`'s θ to its printable values for the draws that
    /// follow.
    fn project(&mut self, pnn: &Pnn) {
        let config = pnn.config();
        for (proj, layer) in self.projected.iter_mut().zip(pnn.layers()) {
            for (p, &t) in proj.iter_mut().zip(layer.theta.value().as_slice()) {
                *p = crate::project_printable(t, config.g_min, config.g_max);
            }
        }
    }
}

/// A compiled training step over one training and one validation set.
#[derive(Debug)]
pub(crate) struct TrainPlan<'d> {
    net: Net,
    loss: LossKind,
    train: DataPlan<'d>,
    val: DataPlan<'d>,
}

/// One data set and the per-worker buffers its draws run in.
#[derive(Debug)]
struct DataPlan<'d> {
    data: LabeledData<'d>,
    workers: Vec<Mutex<Workspace>>,
}

impl DataPlan<'_> {
    /// Draws per worker when `draws` draws split into contiguous chunks.
    fn chunk_len(&self, draws: usize) -> usize {
        draws.div_ceil(self.workers.len()).max(1)
    }

    /// Runs `draw` on every draw of `noise` with the buffers of one worker
    /// per contiguous chunk, spread over `parallel`; returns the chunks'
    /// results in draw order.
    fn run_chunks<R: Send>(
        &self,
        noise: &[Option<NoiseSample>],
        parallel: &ParallelConfig,
        draw: impl Fn(&mut Workspace, &[Option<NoiseSample>]) -> Result<R, PnnError> + Sync,
    ) -> Result<Vec<R>, PnnError> {
        let chunks: Vec<(usize, &[Option<NoiseSample>])> = noise
            .chunks(self.chunk_len(noise.len()))
            .enumerate()
            .collect();
        parallel.try_ordered_par_map(&chunks, |&(worker, draws)| {
            let mut ws = self.workers[worker]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            draw(&mut ws, draws)
        })
    }
}

impl<'d> TrainPlan<'d> {
    /// Compiles the step for `pnn` with `train_workers` buffer sets on the
    /// training rows and `val_workers` on the validation rows.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if either data set does not match the
    /// network's input width.
    pub(crate) fn compile(
        pnn: &Pnn,
        loss: LossKind,
        train: LabeledData<'d>,
        val: LabeledData<'d>,
        (train_workers, val_workers): (usize, usize),
    ) -> Result<Self, PnnError> {
        let net = Net::compile(pnn, &[train, val])?;
        Ok(TrainPlan {
            train: net.data_plan(train, train_workers, true),
            val: net.data_plan(val, val_workers, false),
            net,
            loss,
        })
    }

    /// Runs one Monte-Carlo loss: every draw of `noise` on `split`'s rows
    /// — forward, and backward when `backward` — spread over the split's
    /// workers in contiguous chunks. Each draw's outcome stays in its
    /// worker; [`Self::for_each_outcome`] visits them in draw order.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index draw's failure.
    pub(crate) fn run(
        &mut self,
        pnn: &Pnn,
        split: Split,
        noise: &[Option<NoiseSample>],
        backward: bool,
        parallel: &ParallelConfig,
    ) -> Result<(), PnnError> {
        self.net.project(pnn);
        let step = Step {
            net: &self.net,
            pnn,
            backward,
        };
        let data = match split {
            Split::Train => &self.train,
            Split::Val => &self.val,
        };
        let loss = self.loss;
        data.run_chunks(noise, parallel, |ws, draws| {
            ws.ensure_slots(draws.len(), pnn, &step);
            for (slot, sample) in draws.iter().enumerate() {
                ws.draw(&step, loss, data.data, sample.as_ref(), slot)?;
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Visits the outcomes of the last [`Self::run`] on `split` over
    /// `draws` draws, in draw order.
    ///
    /// # Errors
    ///
    /// Propagates the first error `f` returns.
    pub(crate) fn for_each_outcome(
        &mut self,
        split: Split,
        draws: usize,
        mut f: impl FnMut(&DrawOutcome) -> Result<(), PnnError>,
    ) -> Result<(), PnnError> {
        let data = match split {
            Split::Train => &mut self.train,
            Split::Val => &mut self.val,
        };
        let chunk = data.chunk_len(draws);
        let mut left = draws;
        for worker in &mut data.workers {
            let ws = worker.get_mut().unwrap_or_else(PoisonError::into_inner);
            let n = left.min(chunk);
            ws.outcomes[..n].iter().try_for_each(&mut f)?;
            left -= n;
        }
        Ok(())
    }
}

/// The forward pass of the training step, compiled for one network over
/// one labelled set for Monte-Carlo evaluation: per-worker buffers without
/// backward buffers, and each draw scored by [`argmax_row`] accuracy.
#[derive(Debug)]
pub(crate) struct EvalPlan<'d> {
    pnn: &'d Pnn,
    net: Net,
    data: DataPlan<'d>,
}

impl<'d> EvalPlan<'d> {
    /// Compiles the forward of `pnn` over `data` with `workers` buffer
    /// sets.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if `data` is empty or does not match the
    /// network's input width.
    pub(crate) fn compile(
        pnn: &'d Pnn,
        data: LabeledData<'d>,
        workers: usize,
    ) -> Result<Self, PnnError> {
        if data.is_empty() {
            return Err(PnnError::Data {
                detail: "cannot evaluate on empty data".into(),
            });
        }
        let mut net = Net::compile(pnn, &[data])?;
        net.project(pnn);
        Ok(EvalPlan {
            pnn,
            data: net.data_plan(data, workers, false),
            net,
        })
    }

    /// The accuracy under every draw of `noise`, in draw order: the draws
    /// run in contiguous chunks, one worker's buffers each, spread over
    /// `parallel`.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index draw's failure.
    pub(crate) fn accuracies(
        &self,
        noise: &[Option<NoiseSample>],
        parallel: &ParallelConfig,
    ) -> Result<Vec<f64>, PnnError> {
        let step = Step {
            net: &self.net,
            pnn: self.pnn,
            backward: false,
        };
        let labels = self.data.data.labels;
        let chunks = self.data.run_chunks(noise, parallel, |ws, draws| {
            draws
                .iter()
                .map(|sample| {
                    ws.forward_draw(&step, sample.as_ref())?;
                    let scores = ws.scores();
                    let correct = scores
                        .as_slice()
                        .chunks_exact(scores.cols())
                        .zip(labels)
                        .filter(|&(row, &label)| argmax_row(row) == label)
                        .count();
                    Ok(correct as f64 / labels.len() as f64)
                })
                .collect::<Result<Vec<f64>, PnnError>>()
        })?;
        Ok(chunks.concat())
    }
}

/// The activation and negative-weight circuits of `pnn`, pair by pair —
/// the order of [`NoiseSample::omega_factors`].
fn circuits(pnn: &Pnn) -> impl Iterator<Item = &NonlinearCircuit> {
    pnn.circuits().iter().flat_map(|(a, i)| [a, i])
}

/// Everything one Monte-Carlo loss or evaluation shares across its draws.
struct Step<'a> {
    net: &'a Net,
    pnn: &'a Pnn,
    backward: bool,
}

/// A circuit's η for the current draw, kept while its inputs repeat.
#[derive(Debug)]
struct CircuitState {
    /// Bits of the 𝔴 and ω factors `eta` was computed from; empty when
    /// nothing is cached.
    key: Vec<u64>,
    /// Scratch for the next key.
    next_key: Vec<u64>,
    eta: [f64; 4],
    /// The ω→η chain's saved forward, for a learnable circuit on a data
    /// set that runs backward.
    chain: Option<EtaChain>,
}

impl CircuitState {
    fn new(differentiated: bool) -> Self {
        CircuitState {
            key: Vec::new(),
            next_key: Vec::new(),
            eta: [0.0; 4],
            chain: differentiated.then(EtaChain::default),
        }
    }

    /// Brings `eta` up to date for `circuit` under `factors`, recomputing
    /// only when its 𝔴 or its factors changed.
    fn update(
        &mut self,
        circuit: &NonlinearCircuit,
        surrogate: &SurrogateModel,
        factors: Option<&[f64; 7]>,
    ) {
        self.next_key.clear();
        if let NonlinearCircuit::Learnable { w } = circuit {
            self.next_key
                .extend(w.value().as_slice().iter().map(|v| v.to_bits()));
        }
        match factors {
            Some(f) => {
                self.next_key.push(1);
                self.next_key.extend(f.iter().map(|v| v.to_bits()));
            }
            None => self.next_key.push(0),
        }
        if self.next_key == self.key {
            return;
        }
        self.eta = match (&mut self.chain, circuit) {
            (Some(chain), NonlinearCircuit::Learnable { w }) => {
                chain.forward(w.value().as_slice(), surrogate, factors)
            }
            _ => circuit.eta(surrogate, factors),
        };
        std::mem::swap(&mut self.key, &mut self.next_key);
    }

    /// Writes `∂L/∂𝔴` into `out` through the chain's backward from
    /// `eta_grad`; zero when η got no gradient, as the tape's missing leaf
    /// gradient counts.
    fn w_grad(&mut self, surrogate: &SurrogateModel, eta_grad: Option<[f64; 4]>, out: &mut Matrix) {
        match (&mut self.chain, eta_grad) {
            (Some(chain), Some(g)) => out
                .as_mut_slice()
                .copy_from_slice(&chain.w_grad(surrogate, &g)),
            _ => out.as_mut_slice().fill(0.0),
        }
    }
}

/// One layer's buffers, `rows` tall.
#[derive(Debug)]
struct LayerBuffers {
    /// `[x, 1, 0]`, `rows × ext`; layer 1's is filled once.
    x_ext: Vec<f64>,
    /// `[inv(x), inv(1), 0]` per circuit pair, `rows × ext` each.
    x_neg: Vec<Vec<f64>>,
    /// The inverter's tanh values per pair, `rows × in`.
    t_inv: Vec<Vec<f64>>,
    /// `inv(1 V)` and its tanh value per pair.
    inv_one: Vec<(f64, f64)>,
    /// Layer 1 only: bits of the inverter η `x_neg` was computed with.
    inv_key: Vec<u64>,
    /// η of the layer's activation and negative-weight circuits.
    eta_act: Vec<[f64; 4]>,
    eta_inv: Vec<[f64; 4]>,
    /// Effective (printable × variation) θ, `ext × out`.
    theta: Vec<f64>,
    total: Vec<f64>,
    w_pos: Vec<f64>,
    w_neg: Vec<f64>,
    z_pos: Vec<f64>,
    z_neg: Vec<f64>,
    /// Pre-activation, `rows × out`.
    z: Vec<f64>,
    t_act: Vec<f64>,
    /// Output, `rows × out`.
    h: Matrix,
    // Backward buffers (empty on a forward-only data set).
    /// `∂L/∂h`.
    g_h: Vec<f64>,
    z_g: Vec<f64>,
    gw_pos: Vec<f64>,
    gw_neg: Vec<f64>,
    /// Per-neuron layers: the per-column `∂L/∂W` before padding.
    gw_cols: Vec<f64>,
    total_g: Vec<f64>,
    x_neg_g: Vec<f64>,
    x_pos_g: Vec<f64>,
}

impl LayerBuffers {
    /// Buffers for `layer`; `x_grad` says whether its input needs a
    /// gradient (every layer but the first) and `inv_grad` whether any of
    /// its inverters is learnable.
    fn new(layer: &LayerPlan, rows: usize, backward: bool, x_grad: bool, inv_grad: bool) -> Self {
        let (input, ext, out, pairs) =
            (layer.in_dim, layer.ext(), layer.out_dim, layer.pairs.len());
        let weights = ext * out;
        let bw = |n: usize, needed: bool| {
            if backward && needed {
                vec![0.0; n]
            } else {
                Vec::new()
            }
        };
        LayerBuffers {
            x_ext: vec![0.0; rows * ext],
            x_neg: vec![vec![0.0; rows * ext]; pairs],
            t_inv: vec![vec![0.0; rows * input]; pairs],
            inv_one: vec![(0.0, 0.0); pairs],
            inv_key: Vec::new(),
            eta_act: vec![[0.0; 4]; pairs],
            eta_inv: vec![[0.0; 4]; pairs],
            theta: vec![0.0; weights],
            total: vec![0.0; out],
            w_pos: vec![0.0; weights],
            w_neg: vec![0.0; weights],
            z_pos: vec![0.0; rows * out],
            z_neg: vec![0.0; rows * out],
            z: vec![0.0; rows * out],
            t_act: vec![0.0; rows * out],
            h: Matrix::zeros(rows, out),
            g_h: bw(rows * out, true),
            z_g: bw(rows * out, true),
            gw_pos: bw(weights, true),
            gw_neg: bw(weights, true),
            gw_cols: bw(weights, pairs > 1),
            total_g: bw(out, true),
            x_neg_g: bw(rows * ext, x_grad || inv_grad),
            x_pos_g: bw(rows * ext, x_grad),
        }
    }
}

/// One worker's buffers for one data set.
#[derive(Debug)]
struct Workspace {
    layers: Vec<LayerBuffers>,
    circuits: Vec<CircuitState>,
    /// `∂L/∂η` per circuit for the current draw.
    eta_grad: Vec<Option<[f64; 4]>>,
    /// Scores scaled by `1/temperature` (cross-entropy only).
    scaled: Matrix,
    /// The loss's gradient template with respect to its input.
    loss_grad: Matrix,
    /// Outcome slots of the draws this worker ran last.
    outcomes: Vec<DrawOutcome>,
}

impl Workspace {
    fn new(layers: &[LayerPlan], learnable: &[bool], x: &Matrix, backward: bool) -> Self {
        let rows = x.rows();
        let mut buffers: Vec<LayerBuffers> = layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let inv_grad = l.pairs.clone().any(|p| learnable[2 * p + 1]);
                LayerBuffers::new(l, rows, backward, i > 0, inv_grad)
            })
            .collect();
        if let (Some(first), Some(plan)) = (buffers.first_mut(), layers.first()) {
            stages::extend(x.as_slice(), plan.in_dim, &mut first.x_ext);
        }
        let classes = layers.last().map_or(0, |l| l.out_dim);
        Workspace {
            layers: buffers,
            // A forward-only set needs no ω→η tape: the plain η has the
            // same bits.
            circuits: learnable
                .iter()
                .map(|&l| CircuitState::new(l && backward))
                .collect(),
            eta_grad: vec![None; learnable.len()],
            scaled: Matrix::zeros(rows, classes),
            loss_grad: Matrix::zeros(rows, classes),
            outcomes: Vec::new(),
        }
    }

    /// Grows the outcome slots to hold `draws` draws (once per run).
    fn ensure_slots(&mut self, draws: usize, pnn: &Pnn, step: &Step<'_>) {
        while self.outcomes.len() < draws {
            self.outcomes.push(DrawOutcome {
                loss: 0.0,
                theta: pnn
                    .theta_shapes()
                    .iter()
                    .map(|&(r, c)| Matrix::zeros(r, c))
                    .collect(),
                w: step
                    .net
                    .learnable
                    .iter()
                    .filter(|&&l| l)
                    .map(|_| Matrix::zeros(1, 7))
                    .collect(),
            });
        }
    }

    /// Runs one draw's forward pass, leaving its scores in
    /// [`Self::scores`]: checks the sample's shapes, brings every circuit's
    /// η up to date, then runs the layers.
    fn forward_draw(
        &mut self,
        step: &Step<'_>,
        sample: Option<&NoiseSample>,
    ) -> Result<(), PnnError> {
        let (pnn, layers) = (step.pnn, &step.net.layers);
        if let Some(n) = sample {
            let shapes_match = n.theta_factors.len() == layers.len()
                && n.omega_factors.len() == self.circuits.len()
                && n.theta_factors
                    .iter()
                    .zip(layers)
                    .all(|(f, l)| f.shape() == (l.ext(), l.out_dim));
            if !shapes_match {
                return Err(PnnError::Data {
                    detail: "noise sample does not match the network shape".into(),
                });
            }
        }
        for (c, (state, circuit)) in self.circuits.iter_mut().zip(circuits(pnn)).enumerate() {
            state.update(
                circuit,
                pnn.surrogate(),
                sample.map(|n| &n.omega_factors[c]),
            );
        }
        self.forward(step, sample);
        Ok(())
    }

    /// The last layer's output of the last forward pass.
    fn scores(&self) -> &Matrix {
        &self.layers[self.layers.len() - 1].h
    }

    /// Runs one draw into outcome slot `slot`.
    fn draw(
        &mut self,
        step: &Step<'_>,
        loss: LossKind,
        data: LabeledData<'_>,
        sample: Option<&NoiseSample>,
        slot: usize,
    ) -> Result<(), PnnError> {
        self.forward_draw(step, sample)?;
        let scores = &self.layers[self.layers.len() - 1].h;
        let value = match loss {
            LossKind::Margin { margin } => {
                pnc_autodiff::loss::margin_loss(scores, data.labels, margin, &mut self.loss_grad)?
            }
            LossKind::CrossEntropy { temperature } => {
                let s = 1.0 / temperature;
                for (o, &v) in self.scaled.as_mut_slice().iter_mut().zip(scores.as_slice()) {
                    *o = v * s;
                }
                pnc_autodiff::loss::cross_entropy_logits(
                    &self.scaled,
                    data.labels,
                    &mut self.loss_grad,
                )?
            }
        };
        self.outcomes[slot].loss = value;
        if step.backward {
            self.backward(step, loss, sample, slot);
        }
        Ok(())
    }

    fn forward(&mut self, step: &Step<'_>, sample: Option<&NoiseSample>) {
        let net = step.net;
        for (l, plan) in net.layers.iter().enumerate() {
            let (before, rest) = self.layers.split_at_mut(l);
            let lb = &mut rest[0];
            let (input, ext, out) = (plan.in_dim, plan.ext(), plan.out_dim);
            for (q, p) in plan.pairs.clone().enumerate() {
                lb.eta_act[q] = self.circuits[2 * p].eta;
                lb.eta_inv[q] = self.circuits[2 * p + 1].eta;
            }

            // Printable θ times the draw's variation, then Eq. 1's weights.
            match sample {
                Some(n) => {
                    let f = n.theta_factors[l].as_slice();
                    for ((t, &p), &fk) in lb.theta.iter_mut().zip(&net.projected[l]).zip(f) {
                        *t = p * fk;
                    }
                }
                None => lb.theta.copy_from_slice(&net.projected[l]),
            }
            stages::normalize(&lb.theta, out, &mut lb.total, &mut lb.w_pos, &mut lb.w_neg);

            // Inverted inputs: layer 1's depend only on its inverter η.
            if let Some(prev) = before.last() {
                stages::extend(prev.h.as_slice(), input, &mut lb.x_ext);
            }
            let inv_cached = l == 0
                && lb.inv_key.len() == 4 * lb.eta_inv.len()
                && lb
                    .inv_key
                    .iter()
                    .zip(lb.eta_inv.iter().flatten())
                    .all(|(&k, v)| k == v.to_bits());
            if !inv_cached {
                for (q, eta) in lb.eta_inv.iter().enumerate() {
                    let (t_one, inv_one) = stages::inv_curve(eta, 1.0);
                    lb.inv_one[q] = (inv_one, t_one);
                    stages::invert(
                        eta,
                        inv_one,
                        &lb.x_ext,
                        input,
                        &mut lb.t_inv[q],
                        &mut lb.x_neg[q],
                    );
                }
                if l == 0 {
                    lb.inv_key.clear();
                    lb.inv_key
                        .extend(lb.eta_inv.iter().flatten().map(|v| v.to_bits()));
                }
            }

            if plan.per_neuron() {
                for (j, x_neg) in lb.x_neg.iter().enumerate() {
                    stages::crossbar_column(
                        j, out, &lb.x_ext, x_neg, &lb.w_pos, &lb.w_neg, &mut lb.z,
                    );
                }
            } else {
                stages::crossbar(
                    ext,
                    out,
                    &lb.x_ext,
                    &lb.x_neg[0],
                    &lb.w_pos,
                    &lb.w_neg,
                    &mut lb.z_pos,
                    &mut lb.z_neg,
                    &mut lb.z,
                );
            }
            if plan.apply_act {
                stages::activate(&lb.eta_act, out, &lb.z, &mut lb.t_act, lb.h.as_mut_slice());
            } else {
                lb.h.as_mut_slice().copy_from_slice(&lb.z);
            }
        }
    }

    fn backward(
        &mut self,
        step: &Step<'_>,
        loss: LossKind,
        sample: Option<&NoiseSample>,
        slot: usize,
    ) {
        // The loss node's gradient 1.0 scales the template; cross-entropy
        // then passes through the 1/temperature scale.
        let last = self.layers.len() - 1;
        let learnable = &step.net.learnable;
        let scale = match loss {
            LossKind::Margin { .. } => None,
            LossKind::CrossEntropy { temperature } => Some(1.0 / temperature),
        };
        for (g, &t) in self.layers[last]
            .g_h
            .iter_mut()
            .zip(self.loss_grad.as_slice())
        {
            let g_in = t * 1.0;
            *g = match scale {
                Some(s) => g_in * s,
                None => g_in,
            };
        }
        self.eta_grad.fill(None);

        for (l, plan) in step.net.layers.iter().enumerate().rev() {
            let (before, rest) = self.layers.split_at_mut(l);
            let lb = &mut rest[0];
            let mut x_g = before.last_mut().map(|prev| prev.g_h.as_mut_slice());
            let x_needs = x_g.is_some();
            let (input, ext, out) = (plan.in_dim, plan.ext(), plan.out_dim);
            let (pairs, per_neuron) = (plan.pairs.start, plan.per_neuron());

            // ptanh: ∂L/∂z and the activation circuits' ∂L/∂η.
            if plan.apply_act {
                let (columns, width) = if per_neuron { (out, 1) } else { (1, out) };
                let rows = lb.z.len() / out;
                for q in 0..columns {
                    let index = |i: usize, k: usize| i * out + q + k;
                    let (g_h, t, z) = (&lb.g_h, &lb.t_act, &lb.z);
                    let z_g = &mut lb.z_g;
                    let sums = stages::curve_backward(
                        &lb.eta_act[q],
                        Curve::Ptanh,
                        (rows, width),
                        |i, k| (g_h[index(i, k)], t[index(i, k)], z[index(i, k)]),
                        |i, k, g| z_g[index(i, k)] = g,
                    );
                    if learnable[2 * (pairs + q)] {
                        stages::accumulate_eta(&mut self.eta_grad[2 * (pairs + q)], sums);
                    }
                }
            } else {
                lb.z_g.copy_from_slice(&lb.g_h);
            }

            // ∂L/∂W⁺ and ∂L/∂W⁻: one product each, or per column, summed
            // with the zero padding of the tape's column slices.
            let rows = lb.z_g.len() / out;
            if per_neuron {
                gemm_tn_f64(ext, rows, out, &lb.x_ext, &lb.z_g, &mut lb.gw_cols);
                stages::accumulate_padded_columns(&lb.gw_cols, out, &mut lb.gw_pos);
                for (j, x_neg) in lb.x_neg.iter().enumerate() {
                    // Column j of x_negⱼᵀ·z_g.
                    for r in 0..ext {
                        let mut acc = 0.0;
                        for (x_row, z_row) in x_neg.chunks_exact(ext).zip(lb.z_g.chunks_exact(out))
                        {
                            acc += x_row[r] * z_row[j];
                        }
                        lb.gw_cols[r * out + j] = acc;
                    }
                }
                stages::accumulate_padded_columns(&lb.gw_cols, out, &mut lb.gw_neg);
            } else {
                gemm_tn_f64(ext, rows, out, &lb.x_neg[0], &lb.z_g, &mut lb.gw_neg);
                gemm_tn_f64(ext, rows, out, &lb.x_ext, &lb.z_g, &mut lb.gw_pos);
            }

            // ∂L/∂x through both paths and the inverters' ∂L/∂η, column by
            // column from the last on a per-neuron layer, as the tape visits
            // them.
            let columns = if per_neuron { out } else { 1 };
            for (visit, q) in (0..columns).rev().enumerate() {
                let first = visit == 0;
                let p = pairs + q;
                let inv_learns = learnable[2 * p + 1];
                if !x_needs && !inv_learns {
                    continue;
                }
                if per_neuron {
                    for i in 0..rows {
                        let zg = lb.z_g[i * out + q];
                        for r in 0..ext {
                            lb.x_neg_g[i * ext + r] = 0.0 + zg * lb.w_neg[r * out + q];
                            if x_needs {
                                let term = 0.0 + zg * lb.w_pos[r * out + q];
                                let acc = &mut lb.x_pos_g[i * ext + r];
                                *acc = if first { term } else { *acc + term };
                            }
                        }
                    }
                } else {
                    gemm_nt_f64(rows, out, ext, &lb.z_g, &lb.w_neg, &mut lb.x_neg_g);
                    if x_needs {
                        gemm_nt_f64(rows, out, ext, &lb.z_g, &lb.w_pos, &mut lb.x_pos_g);
                    }
                }
                let eta = lb.eta_inv[q];
                let (neg_g, t_inv, x_ext) = (&lb.x_neg_g, &lb.t_inv[q], &lb.x_ext);
                // The inverter on the 1 V bias input, then on x.
                if inv_learns {
                    let (_, t_one) = lb.inv_one[q];
                    let sums = stages::curve_backward(
                        &eta,
                        Curve::Inverter,
                        (rows, 1),
                        |i, _| (neg_g[i * ext + input], t_one, 1.0),
                        |_, _, _| {},
                    );
                    stages::accumulate_eta(&mut self.eta_grad[2 * p + 1], sums);
                }
                let sums = stages::curve_backward(
                    &eta,
                    Curve::Inverter,
                    (rows, input),
                    |i, k| (neg_g[i * ext + k], t_inv[i * input + k], x_ext[i * ext + k]),
                    |i, k, g| {
                        if let Some(x_g) = x_g.as_deref_mut() {
                            let acc = &mut x_g[i * input + k];
                            *acc = if first { g } else { *acc + g };
                        }
                    },
                );
                if inv_learns {
                    stages::accumulate_eta(&mut self.eta_grad[2 * p + 1], sums);
                }
            }
            if let Some(x_g) = x_g {
                for (g_row, pos_row) in x_g
                    .chunks_exact_mut(input)
                    .zip(lb.x_pos_g.chunks_exact(ext))
                {
                    for (g, &p) in g_row.iter_mut().zip(pos_row) {
                        *g += p;
                    }
                }
            }

            stages::normalize_backward(
                &lb.theta,
                sample.map(|n| n.theta_factors[l].as_slice()),
                &lb.total,
                &lb.gw_pos,
                &lb.gw_neg,
                &mut lb.total_g,
                self.outcomes[slot].theta[l].as_mut_slice(),
            );
        }

        let mut w = self.outcomes[slot].w.iter_mut();
        for (state, grad) in self.circuits.iter_mut().zip(&self.eta_grad) {
            if state.chain.is_some() {
                if let Some(out) = w.next() {
                    state.w_grad(step.pnn.surrogate(), *grad, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aging::{age_noise, AgingAwareness, AgingModel};
    use crate::network::{NonlinearityGranularity, PnnConfig};
    use crate::variation::VariationModel;
    use pnc_autodiff::{GradStore, Graph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Arc, OnceLock};

    fn surrogate() -> Arc<SurrogateModel> {
        static CELL: OnceLock<Arc<SurrogateModel>> = OnceLock::new();
        CELL.get_or_init(|| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../artifacts/surrogate-quick.json");
            Arc::new(SurrogateModel::load(&path).expect("committed quick surrogate"))
        })
        .clone()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The tape's loss and gradients for one draw, as the trainer used to
    /// take them: missing leaf gradients count as zero.
    fn tape_draw(
        pnn: &Pnn,
        x: &Matrix,
        labels: &[usize],
        loss: LossKind,
        sample: Option<&NoiseSample>,
    ) -> (f64, Vec<Matrix>, Vec<Matrix>) {
        let mut g = Graph::new();
        let (scores, vars) = pnn.forward(&mut g, x, sample).unwrap();
        let l = pnn.loss(&mut g, scores, labels, loss).unwrap();
        let mut store = GradStore::new();
        g.backward_into(l, &mut store).unwrap();
        let theta = vars
            .thetas
            .iter()
            .zip(pnn.theta_shapes())
            .map(|(v, (r, c))| {
                store
                    .get(*v)
                    .cloned()
                    .unwrap_or_else(|| Matrix::zeros(r, c))
            })
            .collect();
        let w = vars
            .circuit_ws
            .iter()
            .map(|v| {
                store
                    .get(*v)
                    .cloned()
                    .unwrap_or_else(|| Matrix::zeros(1, 7))
            })
            .collect();
        (g.value(l)[(0, 0)], theta, w)
    }

    /// Random θ and 𝔴 around the initialization, so masks, clipping and
    /// the surrogate see varied values.
    fn perturb(pnn: &mut Pnn, rng: &mut StdRng) {
        for layer in pnn.layers_mut() {
            for v in layer.theta.value_mut().as_mut_slice() {
                *v = rng.gen_range(-1.2..1.2) * if rng.gen_bool(0.2) { 0.01 } else { 1.0 };
            }
        }
        for (a, i) in pnn.circuits_mut() {
            for p in [a.parameter_mut(), i.parameter_mut()].into_iter().flatten() {
                for v in p.value_mut().as_mut_slice() {
                    *v += rng.gen_range(-1.5..1.5);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On every draw the plan's loss, θ gradients and 𝔴 gradients equal
        /// the tape's (`Pnn::forward` + `Graph::backward_into`) bit for bit:
        /// both loss kinds; shared, per-layer and per-neuron circuits;
        /// fixed and learnable circuits; no noise, printing variation with
        /// and without ω noise, and aging; with and without the output
        /// activation; over two Monte-Carlo losses with a parameter update
        /// between them, so the η and `inv(x)` caches must follow.
        #[test]
        fn plan_matches_tape_bitwise(
            seed in 0u64..1_000_000,
            granularity in 0usize..3,
            cross_entropy in proptest::bool::ANY,
            learnable in proptest::bool::ANY,
            noise_mode in 0usize..4,
            act_on_output in proptest::bool::ANY,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let depth = rng.gen_range(1usize..4);
            let mut sizes = vec![rng.gen_range(1usize..5)];
            for _ in 0..depth {
                sizes.push(rng.gen_range(1usize..5));
            }
            let classes = *sizes.last().unwrap_or(&1);
            let config = PnnConfig {
                layer_sizes: sizes.clone(),
                learnable_nonlinearity: learnable,
                granularity: [
                    NonlinearityGranularity::Shared,
                    NonlinearityGranularity::PerLayer,
                    NonlinearityGranularity::PerNeuron,
                ][granularity],
                activation_on_output: act_on_output,
                ..PnnConfig::for_dataset(sizes[0], classes).with_seed(seed)
            };
            let mut pnn = Pnn::new(config, surrogate()).unwrap();
            let rows = rng.gen_range(1usize..9);
            let x = Matrix::from_fn(rows, sizes[0], |_, _| rng.gen_range(0.0..1.0));
            let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
            let data = LabeledData::new(&x, &labels).unwrap();
            let loss = if cross_entropy {
                LossKind::CrossEntropy { temperature: 0.1 }
            } else {
                LossKind::Margin { margin: 0.3 }
            };
            let workers = rng.gen_range(1usize..3);
            let mut plan = TrainPlan::compile(&pnn, loss, data, data, (workers, 1)).unwrap();
            let draw_noise = |pnn: &Pnn, rng: &mut StdRng| -> Option<NoiseSample> {
                if noise_mode == 0 {
                    return None;
                }
                let mut n = NoiseSample::draw(
                    &VariationModel::Uniform { epsilon: 0.1 },
                    rng,
                    &pnn.theta_shapes(),
                    pnn.num_circuits(),
                );
                if noise_mode == 2 {
                    for f in &mut n.omega_factors {
                        *f = [1.0; 7];
                    }
                }
                if noise_mode == 3 {
                    let aging = AgingAwareness {
                        model: AgingModel::Exponential { rate: 0.1 },
                        lifetime: 4.0,
                    };
                    let decay = aging.sample_decay(rng);
                    age_noise(&mut n, decay, rng);
                }
                Some(n)
            };
            for round in 0..2 {
                if round == 1 {
                    perturb(&mut pnn, &mut rng);
                }
                let draws = if noise_mode == 0 { 1 } else { rng.gen_range(1usize..4) };
                let noise: Vec<Option<NoiseSample>> =
                    (0..draws).map(|_| draw_noise(&pnn, &mut rng)).collect();
                plan.run(&pnn, Split::Train, &noise, true, &ParallelConfig::with_threads(2)).unwrap();
                let mut k = 0;
                plan.for_each_outcome(Split::Train, draws, |o| {
                    let (l, theta, w) = tape_draw(&pnn, &x, &labels, loss, noise[k].as_ref());
                    assert_eq!(o.loss.to_bits(), l.to_bits(), "loss, draw {k}");
                    for (layer, (a, b)) in o.theta.iter().zip(&theta).enumerate() {
                        assert_eq!(bits(a), bits(b), "θ of layer {layer}, draw {k}");
                    }
                    assert_eq!(o.w.len(), w.len());
                    for (c, (a, b)) in o.w.iter().zip(&w).enumerate() {
                        assert_eq!(bits(a), bits(b), "𝔴 of circuit {c}, draw {k}");
                    }
                    k += 1;
                    Ok(())
                }).unwrap();
                prop_assert_eq!(k, draws);
                plan.run(&pnn, Split::Val, &noise, false, &ParallelConfig::serial()).unwrap();
                let mut k = 0;
                plan.for_each_outcome(Split::Val, draws, |o| {
                    let (l, _, _) = tape_draw(&pnn, &x, &labels, loss, noise[k].as_ref());
                    assert_eq!(o.loss.to_bits(), l.to_bits(), "validation loss, draw {k}");
                    k += 1;
                    Ok(())
                }).unwrap();
            }
        }
    }

    #[test]
    fn mismatched_data_and_noise_are_rejected() {
        let pnn = Pnn::new(PnnConfig::for_dataset(3, 2), surrogate()).unwrap();
        let x = Matrix::zeros(2, 4);
        let labels = [0, 1];
        let wide = LabeledData::new(&x, &labels).unwrap();
        let loss = LossKind::default();
        assert!(matches!(
            TrainPlan::compile(&pnn, loss, wide, wide, (1, 1)),
            Err(PnnError::Data { .. })
        ));
        let x = Matrix::zeros(2, 3);
        let data = LabeledData::new(&x, &labels).unwrap();
        let mut plan = TrainPlan::compile(&pnn, loss, data, data, (1, 1)).unwrap();
        let bad = Some(NoiseSample::identity(&[(5, 3)], 2));
        assert!(matches!(
            plan.run(&pnn, Split::Train, &[bad], true, &ParallelConfig::serial()),
            Err(PnnError::Data { .. })
        ));
    }
}
