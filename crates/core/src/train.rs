//! Nominal and variation-aware training (Sec. III-C).

use crate::network::{LossKind, Pnn};
use crate::train_plan::{Split, TrainPlan};
use crate::variation::{NoiseSample, VariationModel};
use crate::PnnError;
use pnc_autodiff::Adam;
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_obs::{Counter, FieldValue, Histogram};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

// Observability: training-loop effort and progress. Catalogued in
// docs/METRICS.md.
static OBS_RUNS: Counter = Counter::new("core.train.runs");
static OBS_EPOCHS: Counter = Counter::new("core.train.epochs");
static OBS_MC_DRAWS: Counter = Counter::new("core.train.mc_draws");
static OBS_EARLY_STOPS: Counter = Counter::new("core.train.early_stops");
static OBS_NO_PROGRESS: Counter = Counter::new("core.train.no_progress_runs");
static OBS_LATE_BEST: Counter = Counter::new("core.train.late_best_runs");
static OBS_GRAD_NORM: Histogram = Histogram::new("core.train.grad_norm");
static OBS_SEEDS: Counter = Counter::new("core.seed_search.seeds");

fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_RUNS.register();
        OBS_EPOCHS.register();
        OBS_MC_DRAWS.register();
        OBS_EARLY_STOPS.register();
        OBS_NO_PROGRESS.register();
        OBS_LATE_BEST.register();
        OBS_GRAD_NORM.register();
        OBS_SEEDS.register();
    });
}

/// Infinity norm over a gradient group (the scalar the per-epoch
/// `core.train.grad_norm` histogram records).
fn grad_inf_norm(grads: &[Matrix]) -> f64 {
    let mut norm = 0.0_f64;
    for g in grads {
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                norm = norm.max(g[(i, j)].abs());
            }
        }
    }
    norm
}

/// Per-parameter-group gradients: crossbar thetas, then nonlinear-circuit
/// omega rows, in network order.
type GradPair = (Vec<Matrix>, Vec<Matrix>);

/// Maps a shape failure while summing per-draw gradients into a
/// [`PnnError`]. Draw gradients share the parameter shapes by construction,
/// so hitting this indicates an internal inconsistency in the MC loop.
fn grad_sum_err(source: pnc_linalg::LinalgError) -> PnnError {
    PnnError::Autodiff(pnc_autodiff::AutodiffError::Backward {
        op: "mc_grad_sum",
        source,
    })
}

/// A labeled batch: feature voltages and class targets.
///
/// # Examples
///
/// ```
/// use pnc_core::LabeledData;
/// use pnc_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.1, 0.9], &[0.8, 0.2]]).expect("shape");
/// let labels = [1usize, 0];
/// let data = LabeledData::new(&x, &labels).expect("consistent");
/// assert_eq!(data.len(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LabeledData<'a> {
    /// Feature voltages, `n × d`.
    pub features: &'a Matrix,
    /// Class targets, length `n`.
    pub labels: &'a [usize],
}

impl<'a> LabeledData<'a> {
    /// Wraps features and labels, checking consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] if the lengths disagree.
    pub fn new(features: &'a Matrix, labels: &'a [usize]) -> Result<Self, PnnError> {
        if features.rows() != labels.len() {
            return Err(PnnError::Data {
                detail: format!(
                    "{} feature rows but {} labels",
                    features.rows(),
                    labels.len()
                ),
            });
        }
        Ok(LabeledData { features, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Training configuration. Defaults follow the paper (Sec. IV-A) with a
/// reduced epoch budget; the bench harness raises the budget for
/// paper-fidelity runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Adam learning rate for the crossbar conductances θ (paper: 0.1).
    pub lr_theta: f64,
    /// Adam learning rate for the nonlinear-circuit parameters 𝔴 (paper:
    /// 0.005; ignored when the network's circuits are fixed).
    pub lr_omega: f64,
    /// The classification loss.
    pub loss: LossKind,
    /// Printing-variation model used during training.
    /// [`VariationModel::None`] gives nominal training.
    pub variation: VariationModel,
    /// Whether training variation also hits the nonlinear circuits' ω.
    /// Prior-work variation-aware training varied only the crossbars; the
    /// paper's contribution extends it to the nonlinear circuits.
    pub vary_nonlinear: bool,
    /// Monte-Carlo samples per training step (paper: `N_train = 20`).
    pub n_train_mc: usize,
    /// Monte-Carlo samples for the validation loss (drawn once and reused
    /// every epoch so early stopping compares like with like).
    pub n_val_mc: usize,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Early-stopping patience in epochs (paper: 5000).
    pub patience: usize,
    /// Seed for noise draws.
    pub seed: u64,
    /// Optional aging-aware training: every Monte-Carlo sample additionally
    /// draws an age uniformly over the configured lifetime and decays the
    /// crossbar conductances accordingly (see [`crate::aging`]).
    pub aging: Option<crate::aging::AgingAwareness>,
    /// Thread-count control for the Monte-Carlo loss, the fixed-noise
    /// validation evaluation, and [`train_best_of_seeds`]. Training results
    /// are bit-identical at every thread count; `PNC_NUM_THREADS` overrides
    /// this setting process-wide.
    pub parallel: ParallelConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr_theta: 0.1,
            lr_omega: 0.005,
            loss: LossKind::default(),
            variation: VariationModel::None,
            vary_nonlinear: true,
            n_train_mc: 20,
            n_val_mc: 5,
            max_epochs: 500,
            patience: 100,
            seed: 0,
            aging: None,
            parallel: ParallelConfig::automatic(),
        }
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Best validation loss reached (the restored model's).
    pub best_val_loss: f64,
    /// Epoch index at which the best validation loss occurred.
    pub best_epoch: usize,
    /// Total epochs run (≤ `max_epochs`; early stopping may cut it short).
    pub epochs_run: usize,
    /// Training loss per epoch.
    pub train_losses: Vec<f64>,
    /// Validation loss per epoch.
    pub val_losses: Vec<f64>,
}

/// Runs (variation-aware) gradient training of a [`Pnn`] with per-group
/// Adam optimizers and early stopping, restoring the best-by-validation
/// parameters afterwards — the circuit that "would be the one to be printed"
/// (Sec. IV-C).
///
/// A trainer holds only its configuration.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Whether training draws no noise at all (one nominal draw per loss).
    fn nominal(&self) -> bool {
        self.config.variation.is_none() && self.config.aging.is_none()
    }

    /// Draws the per-step noise list: one `None` for nominal training, or
    /// `n_train_mc` samples of the variation model.
    fn draw_noise(&self, pnn: &Pnn, rng: &mut StdRng, count: usize) -> Vec<Option<NoiseSample>> {
        if self.nominal() {
            return vec![None];
        }
        let shapes = pnn.theta_shapes();
        (0..count)
            .map(|_| {
                let mut sample =
                    NoiseSample::draw(&self.config.variation, rng, &shapes, pnn.num_circuits());
                if !self.config.vary_nonlinear {
                    for f in &mut sample.omega_factors {
                        *f = [1.0; 7];
                    }
                }
                if let Some(aging) = &self.config.aging {
                    let decay = aging.sample_decay(rng);
                    crate::aging::age_noise(&mut sample, decay, rng);
                }
                Some(sample)
            })
            .collect()
    }

    /// Computes the Monte-Carlo loss over `noise` draws on `split`'s rows
    /// and returns `(loss value, per-parameter gradients)`; gradients are
    /// `None` when `backward` is false.
    ///
    /// Every draw runs in `plan`, the run's compiled step, on one of its
    /// per-worker buffer sets; the draws fan out under
    /// [`TrainConfig::parallel`]. Per-draw losses and gradients are reduced
    /// left-to-right in draw order before the final `1/n` scaling — a fixed
    /// floating-point sequence, so the result is bit-identical at every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] for an empty `noise` slice and propagates
    /// forward/backward failures (lowest draw index wins, deterministically).
    fn mc_loss(
        &self,
        plan: &mut TrainPlan<'_>,
        pnn: &Pnn,
        split: Split,
        noise: &[Option<NoiseSample>],
        backward: bool,
    ) -> Result<(f64, Option<GradPair>), PnnError> {
        if noise.is_empty() {
            return Err(PnnError::Data {
                detail: "Monte-Carlo loss needs at least one noise draw".into(),
            });
        }
        OBS_MC_DRAWS.add(noise.len() as u64);
        plan.run(pnn, split, noise, backward, &self.config.parallel)?;

        // Deterministic ordered reduction: sum draws left-to-right in draw
        // order, then scale once by 1/n.
        let scale = 1.0 / noise.len() as f64;
        let mut loss_total = 0.0;
        let mut grads: Option<GradPair> = None;
        plan.for_each_outcome(split, noise.len(), |outcome| {
            loss_total += outcome.loss;
            if !backward {
                return Ok(());
            }
            let (theta_grads, w_grads) = grads.get_or_insert_with(|| {
                let zeros = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
                (
                    outcome.theta.iter().map(zeros).collect(),
                    outcome.w.iter().map(zeros).collect(),
                )
            });
            for (acc, g) in theta_grads.iter_mut().zip(&outcome.theta) {
                acc.add_assign(g).map_err(grad_sum_err)?;
            }
            for (acc, g) in w_grads.iter_mut().zip(&outcome.w) {
                acc.add_assign(g).map_err(grad_sum_err)?;
            }
            Ok(())
        })?;
        let loss_value = loss_total * scale;
        if let Some((theta_grads, w_grads)) = &mut grads {
            for m in theta_grads.iter_mut().chain(w_grads) {
                m.scale_in_place(scale);
            }
        }
        Ok((loss_value, grads))
    }

    /// Trains `pnn` on `train`, early-stopping on `val`, and restores the
    /// best-by-validation parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Data`] for empty or inconsistent data and
    /// propagates forward-pass failures.
    pub fn train(
        &self,
        pnn: &mut Pnn,
        train: LabeledData<'_>,
        val: LabeledData<'_>,
    ) -> Result<TrainReport, PnnError> {
        if train.is_empty() || val.is_empty() {
            return Err(PnnError::Data {
                detail: "training and validation sets must be non-empty".into(),
            });
        }
        obs_register();

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Fixed validation noise so early stopping compares epochs fairly.
        let mut val_rng = StdRng::seed_from_u64(self.config.seed ^ 0x5A17_AB1E);
        let val_noise = self.draw_noise(pnn, &mut val_rng, self.config.n_val_mc.max(1));

        // One buffer set per worker thread a Monte-Carlo loss can use,
        // dropped with the plan when this function returns.
        let threads = self.config.parallel.effective_threads();
        let draws = |n: usize| {
            if self.nominal() {
                1
            } else {
                n.max(1)
            }
        };
        let mut plan = TrainPlan::compile(
            pnn,
            self.config.loss,
            train,
            val,
            (
                threads.min(draws(self.config.n_train_mc)),
                threads.min(draws(self.config.n_val_mc)),
            ),
        )?;

        let mut opt_theta = Adam::new(self.config.lr_theta);
        let mut opt_omega = Adam::new(self.config.lr_omega);

        let mut best_snapshot = (pnn.layers().to_vec(), pnn.circuits().to_vec());
        let mut best_val = f64::INFINITY;
        let mut best_epoch = 0usize;
        let mut stale = 0usize;
        let mut train_losses = Vec::new();
        let mut val_losses = Vec::new();

        for epoch in 0..self.config.max_epochs {
            let noise = self.draw_noise(pnn, &mut rng, self.config.n_train_mc.max(1));
            let (train_loss, grads) = self.mc_loss(&mut plan, pnn, Split::Train, &noise, true)?;
            let (theta_grads, w_grads) = grads.ok_or_else(|| PnnError::Data {
                detail: "mc_loss returned no gradients despite backward=true".into(),
            })?;

            OBS_EPOCHS.increment();
            OBS_GRAD_NORM.observe(grad_inf_norm(&theta_grads));

            // Crossbar group.
            {
                let mut params: Vec<&mut pnc_autodiff::Parameter> =
                    pnn.layers_mut().iter_mut().map(|l| &mut l.theta).collect();
                let grad_refs: Vec<&Matrix> = theta_grads.iter().collect();
                opt_theta.step_dense(&mut params, &grad_refs);
            }
            // Nonlinear-circuit group (α_ω > 0 and learnable circuits only).
            if self.config.lr_omega > 0.0 && !w_grads.is_empty() {
                let mut params: Vec<&mut pnc_autodiff::Parameter> = pnn
                    .circuits_mut()
                    .iter_mut()
                    .flat_map(|(a, i)| [a.parameter_mut(), i.parameter_mut()])
                    .flatten()
                    .collect();
                let grad_refs: Vec<&Matrix> = w_grads.iter().collect();
                opt_omega.step_dense(&mut params, &grad_refs);
            }

            let (val_loss, _) = self.mc_loss(&mut plan, pnn, Split::Val, &val_noise, false)?;
            train_losses.push(train_loss);
            val_losses.push(val_loss);

            if pnc_obs::sink::enabled() {
                pnc_obs::sink::emit(
                    "core.train.epoch",
                    &[
                        ("epoch", FieldValue::U64(epoch as u64)),
                        ("train_loss", FieldValue::F64(train_loss)),
                        ("val_loss", FieldValue::F64(val_loss)),
                    ],
                );
            }

            if val_loss < best_val {
                best_val = val_loss;
                best_epoch = epoch;
                best_snapshot = (pnn.layers().to_vec(), pnn.circuits().to_vec());
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.config.patience {
                    OBS_EARLY_STOPS.increment();
                    break;
                }
            }
        }

        // Restore the best circuit: the one that would be printed.
        let epochs_run = train_losses.len();
        let (layers, circuits) = best_snapshot;
        pnn.layers_mut().clone_from_slice(&layers);
        pnn.circuits_mut().clone_from_slice(&circuits);

        OBS_RUNS.increment();
        // The two training defects of a run: no epoch beat epoch 0's
        // validation loss, or the best epoch fell in the last tenth of the
        // epoch budget (the budget cut the run short).
        if best_epoch == 0 {
            OBS_NO_PROGRESS.increment();
        }
        if best_epoch >= self.config.max_epochs * 9 / 10 {
            OBS_LATE_BEST.increment();
        }
        if pnc_obs::sink::enabled() {
            pnc_obs::sink::emit(
                "core.train.done",
                &[
                    ("epochs_run", FieldValue::U64(epochs_run as u64)),
                    ("best_epoch", FieldValue::U64(best_epoch as u64)),
                    ("best_val_loss", FieldValue::F64(best_val)),
                ],
            );
        }

        Ok(TrainReport {
            best_val_loss: best_val,
            best_epoch,
            epochs_run,
            train_losses,
            val_losses,
        })
    }
}

/// Trains one pNN per seed and returns the best by validation loss — the
/// paper's selection protocol (Sec. IV-C: "we select the best pNNs in each
/// setup w.r.t. the validation loss, as these circuits would be the ones to
/// be printed").
///
/// Each seed reseeds both the weight initialization
/// ([`PnnConfig::with_seed`](crate::PnnConfig::with_seed)) and the training
/// noise draws.
///
/// Seeds fan out over [`TrainConfig::parallel`] worker threads; every
/// seed's run is independent and internally deterministic, and the winner
/// is chosen by a strict `<` scan in seed order, so the selected circuit is
/// identical at every thread count (first seed wins ties, matching the old
/// serial loop). With the automatic thread setting, the per-seed inner
/// Monte-Carlo loop runs serially inside each worker rather than
/// oversubscribing the machine; when only one seed is given, that single
/// training run parallelizes over its Monte-Carlo draws instead.
///
/// # Errors
///
/// Returns [`PnnError::Config`] for an empty seed list and propagates
/// construction/training failures.
///
/// # Examples
///
/// Two-seed best-of-validation selection on a toy task, against a tiny
/// surrogate (a full-size one is cached by `artifacts::default_surrogate`
/// in the facade crate):
///
/// ```
/// use pnc_core::{train_best_of_seeds, LabeledData, PnnConfig, TrainConfig, VariationModel};
/// use pnc_linalg::Matrix;
/// use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = build_dataset(
///     &DatasetConfig { max_failure_fraction: 0.5, ..DatasetConfig::new(12, 21) },
///     None,
/// )?;
/// let (surrogate, _) = train_surrogate(
///     &data,
///     &pnc_surrogate::TrainConfig {
///         layer_sizes: vec![10, 8, 4],
///         max_epochs: 30,
///         patience: 30,
///         ..pnc_surrogate::TrainConfig::default()
///     },
/// )?;
///
/// let x = Matrix::from_fn(8, 2, |i, j| ((i * 3 + j) % 5) as f64 / 4.0);
/// let y: Vec<usize> = (0..8).map(|i| i % 2).collect();
/// let labeled = LabeledData::new(&x, &y)?;
/// let (pnn, report) = train_best_of_seeds(
///     &PnnConfig::for_dataset(2, 2),
///     Arc::new(surrogate),
///     &TrainConfig {
///         variation: VariationModel::Uniform { epsilon: 0.1 },
///         n_train_mc: 2,
///         n_val_mc: 2,
///         max_epochs: 3,
///         patience: 3,
///         ..TrainConfig::default()
///     },
///     labeled,
///     labeled,
///     &[0, 1],
/// )?;
/// assert!(report.best_val_loss.is_finite());
/// assert_eq!(pnn.config().layer_sizes, vec![2, 3, 2]);
/// # Ok(())
/// # }
/// ```
pub fn train_best_of_seeds(
    config: &crate::PnnConfig,
    surrogate: std::sync::Arc<pnc_surrogate::SurrogateModel>,
    train_config: &TrainConfig,
    train: LabeledData<'_>,
    val: LabeledData<'_>,
    seeds: &[u64],
) -> Result<(Pnn, TrainReport), PnnError> {
    if seeds.is_empty() {
        return Err(PnnError::Config {
            detail: "need at least one seed".into(),
        });
    }
    let results: Vec<(Pnn, TrainReport)> = train_config.parallel.try_ordered_par_map(
        seeds,
        |&seed| -> Result<(Pnn, TrainReport), PnnError> {
            let mut pnn = Pnn::new(config.clone().with_seed(seed), surrogate.clone())?;
            let trainer = Trainer::new(TrainConfig {
                seed,
                ..*train_config
            });
            let report = trainer.train(&mut pnn, train, val)?;
            Ok((pnn, report))
        },
    )?;
    let mut best = 0;
    for (i, (_, report)) in results.iter().enumerate().skip(1) {
        if report.best_val_loss < results[best].1.best_val_loss {
            best = i;
        }
    }
    OBS_SEEDS.add(seeds.len() as u64);
    if pnc_obs::sink::enabled() {
        pnc_obs::sink::emit(
            "core.seed_search.done",
            &[
                ("seeds", FieldValue::U64(seeds.len() as u64)),
                ("best_seed", FieldValue::U64(seeds[best])),
                (
                    "best_val_loss",
                    FieldValue::F64(results[best].1.best_val_loss),
                ),
            ],
        );
    }
    results
        .into_iter()
        .nth(best)
        .ok_or_else(|| PnnError::Config {
            detail: "seed search produced no results".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PnnConfig;
    use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig};
    use std::sync::Arc;

    fn quick_surrogate() -> Arc<pnc_surrogate::SurrogateModel> {
        let data = build_dataset(&DatasetConfig::new(120, 31), None).unwrap();
        Arc::new(
            train_surrogate(
                &data,
                &pnc_surrogate::TrainConfig {
                    layer_sizes: vec![10, 8, 4],
                    max_epochs: 400,
                    patience: 150,
                    ..pnc_surrogate::TrainConfig::default()
                },
            )
            .unwrap()
            .0,
        )
    }

    /// Two interleaved Gaussian blobs on 2 features.
    fn blobs() -> (Matrix, Vec<usize>) {
        let n = 40;
        let x = Matrix::from_fn(n, 2, |i, j| {
            let class = i % 2;
            let base = if class == 0 { 0.25 } else { 0.75 };
            let wobble = (((i * 7 + j * 3) % 11) as f64 / 11.0 - 0.5) * 0.2;
            (base + wobble).clamp(0.0, 1.0)
        });
        let y = (0..n).map(|i| i % 2).collect();
        (x, y)
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            max_epochs: 60,
            patience: 60,
            n_train_mc: 3,
            n_val_mc: 2,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn labeled_data_validates() {
        let x = Matrix::zeros(3, 2);
        assert!(LabeledData::new(&x, &[0, 1]).is_err());
        assert!(LabeledData::new(&x, &[0, 1, 0]).is_ok());
    }

    #[test]
    fn nominal_training_reduces_loss_and_learns_blobs() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2), s).unwrap();
        let report = Trainer::new(quick_config())
            .train(&mut pnn, data, data)
            .unwrap();

        assert!(report.epochs_run > 0);
        assert!(
            report.train_losses.last().unwrap() < &report.train_losses[0],
            "loss should fall: {:?} -> {:?}",
            report.train_losses.first(),
            report.train_losses.last()
        );
        let acc = crate::eval::accuracy(&pnn, data, None).unwrap();
        assert!(acc > 0.9, "blobs should be learnable, got {acc}");
    }

    #[test]
    fn variation_aware_training_runs_and_learns() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2), s).unwrap();
        let config = TrainConfig {
            variation: VariationModel::Uniform { epsilon: 0.1 },
            ..quick_config()
        };
        let report = Trainer::new(config).train(&mut pnn, data, data).unwrap();
        assert!(report.best_val_loss.is_finite());
        let acc = crate::eval::accuracy(&pnn, data, None).unwrap();
        assert!(
            acc > 0.85,
            "VA training should still learn blobs, got {acc}"
        );
    }

    #[test]
    fn learnable_circuits_actually_move() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2), s).unwrap();
        let before: Vec<[f64; 7]> = pnn
            .circuits()
            .iter()
            .map(|(a, _)| a.printable_omega())
            .collect();
        Trainer::new(quick_config())
            .train(&mut pnn, data, data)
            .unwrap();
        let after: Vec<[f64; 7]> = pnn
            .circuits()
            .iter()
            .map(|(a, _)| a.printable_omega())
            .collect();
        let moved = before
            .iter()
            .zip(&after)
            .any(|(b, a)| b.iter().zip(a).any(|(x, y)| (x - y).abs() > 1e-9));
        assert!(moved, "learnable ω must change during training");
    }

    #[test]
    fn fixed_circuits_do_not_move() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2).with_fixed_nonlinearity(), s).unwrap();
        let before: Vec<[f64; 7]> = pnn
            .circuits()
            .iter()
            .map(|(a, _)| a.printable_omega())
            .collect();
        Trainer::new(quick_config())
            .train(&mut pnn, data, data)
            .unwrap();
        let after: Vec<[f64; 7]> = pnn
            .circuits()
            .iter()
            .map(|(a, _)| a.printable_omega())
            .collect();
        assert_eq!(before, after, "fixed ω must not change");
    }

    #[test]
    fn mc_loss_rejects_empty_noise_slice() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let pnn = Pnn::new(PnnConfig::for_dataset(2, 2), s).unwrap();
        let trainer = Trainer::new(quick_config());
        let mut plan = TrainPlan::compile(&pnn, trainer.config.loss, data, data, (1, 1)).unwrap();
        for backward in [false, true] {
            let err = trainer
                .mc_loss(&mut plan, &pnn, Split::Train, &[], backward)
                .unwrap_err();
            assert!(
                matches!(err, PnnError::Data { .. }),
                "expected PnnError::Data, got {err:?}"
            );
        }
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let run = |threads: usize| {
            let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2), s.clone()).unwrap();
            let config = TrainConfig {
                variation: VariationModel::Uniform { epsilon: 0.1 },
                n_train_mc: 4,
                n_val_mc: 3,
                max_epochs: 20,
                parallel: ParallelConfig::with_threads(threads),
                ..quick_config()
            };
            let report = Trainer::new(config).train(&mut pnn, data, data).unwrap();
            let thetas: Vec<Matrix> = pnn
                .layers()
                .iter()
                .map(|l| l.theta.value().clone())
                .collect();
            let omegas: Vec<[f64; 7]> = pnn
                .circuits()
                .iter()
                .map(|(a, _)| a.printable_omega())
                .collect();
            (report, thetas, omegas)
        };
        let (report_1, thetas_1, omegas_1) = run(1);
        for threads in [2, 4] {
            let (report_n, thetas_n, omegas_n) = run(threads);
            assert_eq!(
                report_1.train_losses, report_n.train_losses,
                "train losses diverge at {threads} threads"
            );
            assert_eq!(
                report_1.val_losses, report_n.val_losses,
                "val losses diverge at {threads} threads"
            );
            assert_eq!(report_1.best_epoch, report_n.best_epoch);
            assert_eq!(thetas_1, thetas_n, "final θ diverge at {threads} threads");
            assert_eq!(omegas_1, omegas_n, "final ω diverge at {threads} threads");
        }
    }

    #[test]
    fn best_of_seeds_is_identical_across_thread_counts() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let run = |threads: usize| {
            train_best_of_seeds(
                &PnnConfig::for_dataset(2, 2),
                s.clone(),
                &TrainConfig {
                    max_epochs: 15,
                    parallel: ParallelConfig::with_threads(threads),
                    ..quick_config()
                },
                data,
                data,
                &[1, 2, 3, 4],
            )
            .unwrap()
        };
        let (_, report_1) = run(1);
        let (_, report_4) = run(4);
        assert_eq!(report_1.best_val_loss, report_4.best_val_loss);
        assert_eq!(report_1.train_losses, report_4.train_losses);
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let mut a = Pnn::new(PnnConfig::for_dataset(2, 2), s.clone()).unwrap();
        let mut b = Pnn::new(PnnConfig::for_dataset(2, 2), s).unwrap();
        let ra = Trainer::new(quick_config())
            .train(&mut a, data, data)
            .unwrap();
        let rb = Trainer::new(quick_config())
            .train(&mut b, data, data)
            .unwrap();
        assert_eq!(ra.train_losses, rb.train_losses);
    }

    #[test]
    fn best_of_seeds_picks_lowest_validation_loss() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let config = PnnConfig::for_dataset(2, 2);
        let (pnn, best) =
            train_best_of_seeds(&config, s.clone(), &quick_config(), data, data, &[1, 2, 3])
                .unwrap();
        // Each individual seed's loss must be >= the selected one.
        for seed in [1u64, 2, 3] {
            let mut single = Pnn::new(config.clone().with_seed(seed), s.clone()).unwrap();
            let r = Trainer::new(TrainConfig {
                seed,
                ..quick_config()
            })
            .train(&mut single, data, data)
            .unwrap();
            assert!(r.best_val_loss >= best.best_val_loss - 1e-12);
        }
        assert!(crate::eval::accuracy(&pnn, data, None).unwrap() > 0.8);
    }

    #[test]
    fn best_of_seeds_rejects_empty_seed_list() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        assert!(train_best_of_seeds(
            &PnnConfig::for_dataset(2, 2),
            s,
            &quick_config(),
            data,
            data,
            &[],
        )
        .is_err());
    }

    #[test]
    fn rejects_empty_data() {
        let s = quick_surrogate();
        let (x, y) = blobs();
        let data = LabeledData::new(&x, &y).unwrap();
        let empty_x = Matrix::zeros(0, 2);
        // Matrix::zeros(0, 2) has no rows; labels slice is empty.
        let empty = LabeledData {
            features: &empty_x,
            labels: &[],
        };
        let mut pnn = Pnn::new(PnnConfig::for_dataset(2, 2), s).unwrap();
        assert!(Trainer::new(quick_config())
            .train(&mut pnn, empty, data)
            .is_err());
    }
}
