use crate::store::is_valid_failure_fraction;
use crate::{DesignSampler, DesignSpace, StoreRecord, SurrogateError, OMEGA_DIM};
use pnc_fit::fit_ptanh;
use pnc_linalg::ParallelConfig;
use pnc_obs::{Counter, FieldValue, Histogram, Span};
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit};
use pnc_spice::sweep::linspace;
use pnc_spice::DcSolver;
use serde::{Deserialize, Serialize};

// Observability: one family for every dataset build, in memory or
// streamed, fed by `Characterizer::chunk` (`unconverged_fits` by
// `characterize_point`). Catalogued in docs/METRICS.md.
static OBS_POINTS: Counter = Counter::new("surrogate.dataset.points");
static OBS_ENTRIES: Counter = Counter::new("surrogate.dataset.entries");
static OBS_FAIL_BUILD: Counter = Counter::new("surrogate.dataset.failures.build");
static OBS_FAIL_SWEEP: Counter = Counter::new("surrogate.dataset.failures.sweep");
static OBS_FAIL_FIT: Counter = Counter::new("surrogate.dataset.failures.fit");
static OBS_UNCONVERGED_FITS: Counter = Counter::new("surrogate.dataset.unconverged_fits");
static OBS_FIT_RMSE: Histogram = Histogram::new("surrogate.dataset.fit_rmse");
static OBS_CHUNK_SECONDS: Histogram = Histogram::new("surrogate.dataset.chunk_seconds");

fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_POINTS.register();
        OBS_ENTRIES.register();
        OBS_FAIL_BUILD.register();
        OBS_FAIL_SWEEP.register();
        OBS_FAIL_FIT.register();
        OBS_UNCONVERGED_FITS.register();
        OBS_FIT_RMSE.register();
        OBS_CHUNK_SECONDS.register();
    });
}

/// The pipeline stage at which a design point failed to characterize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureStage {
    /// Netlist construction rejected the parameters.
    Build,
    /// A DC sweep point did not converge (even after recovery).
    Sweep,
    /// The ptanh curve fit failed.
    Fit,
}

/// One failed design point: which ω, at which stage, and why.
///
/// The builder records these instead of silently dropping the point, so a
/// dataset consumer can audit exactly what was excluded — and a corrupted
/// solver or degenerate design-space region shows up as data rather than as
/// a mysteriously smaller dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Index of the design point in the QMC sample sequence.
    pub index: usize,
    /// The physical parameters ω of the failed point.
    pub omega: [f64; OMEGA_DIM],
    /// The stage that failed.
    pub stage: FailureStage,
    /// Human-readable cause (the underlying error's message).
    pub cause: String,
}

/// Per-stage failure counts of a dataset build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureTally {
    /// Points rejected at netlist construction.
    pub build: usize,
    /// Points lost to non-convergent sweeps.
    pub sweep: usize,
    /// Points whose curve fit failed.
    pub fit: usize,
}

impl FailureTally {
    /// Total failed points across all stages.
    pub fn total(&self) -> usize {
        self.build + self.sweep + self.fit
    }
}

/// One characterized circuit: physical parameters and fitted curve
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetEntry {
    /// Physical design parameters ω (SI units).
    pub omega: [f64; OMEGA_DIM],
    /// Fitted auxiliary parameters η of Eq. 2.
    pub eta: [f64; 4],
    /// Root-mean-square error of the ptanh fit, in volts.
    pub fit_rmse: f64,
}

/// Min–max bounds of the four η components over a dataset, used to
/// normalize the network's regression targets (and saved with the model for
/// denormalization, as Sec. III-A prescribes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EtaBounds {
    /// Per-component minimum of η.
    pub lo: [f64; 4],
    /// Per-component maximum of η.
    pub hi: [f64; 4],
}

impl EtaBounds {
    /// Computes bounds over a set of entries.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] if `entries` is empty or an η
    /// value is non-finite, and the typed
    /// [`SurrogateError::DegenerateEta`] if some η component is constant
    /// (which would turn [`EtaBounds::normalize`] into a divide-by-zero).
    pub fn from_entries(entries: &[DatasetEntry]) -> Result<Self, SurrogateError> {
        let mut acc = EtaBoundsAccumulator::new();
        for e in entries {
            acc.observe(&e.eta)?;
        }
        acc.finish()
    }

    /// Normalizes η to `[0, 1]^4`.
    pub fn normalize(&self, eta: &[f64; 4]) -> [f64; 4] {
        let mut out = [0.0; 4];
        for k in 0..4 {
            out[k] = (eta[k] - self.lo[k]) / (self.hi[k] - self.lo[k]);
        }
        out
    }

    /// Inverts [`EtaBounds::normalize`].
    pub fn denormalize(&self, eta_norm: &[f64; 4]) -> [f64; 4] {
        let mut out = [0.0; 4];
        for k in 0..4 {
            out[k] = self.lo[k] + eta_norm[k] * (self.hi[k] - self.lo[k]);
        }
        out
    }
}

/// Online min/max accumulator behind [`EtaBounds`], for streaming builds
/// that never hold the full dataset: observe each entry's η as it lands,
/// then [`finish`](EtaBoundsAccumulator::finish) into validated bounds.
///
/// Min/max are order-independent extrema, so the accumulated bounds are
/// **bit-identical** to [`EtaBounds::from_entries`] over the same entries in
/// any order — the refit-free normalization contract of the streaming
/// pipeline (DESIGN.md §17): no second pass over the data is ever needed to
/// normalize targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtaBoundsAccumulator {
    lo: [f64; 4],
    hi: [f64; 4],
    count: usize,
}

impl Default for EtaBoundsAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl EtaBoundsAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        EtaBoundsAccumulator {
            lo: [f64::INFINITY; 4],
            hi: [f64::NEG_INFINITY; 4],
            count: 0,
        }
    }

    /// Entries observed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Folds one η observation into the running extrema.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] if a component is non-finite —
    /// a NaN would silently pass through `min`/`max` and poison
    /// normalization much later, so it is rejected at the door.
    pub fn observe(&mut self, eta: &[f64; 4]) -> Result<(), SurrogateError> {
        for (k, &v) in eta.iter().enumerate() {
            if !v.is_finite() {
                return Err(SurrogateError::BadDataset {
                    detail: format!(
                        "eta component {k} is non-finite ({v}) at entry {}",
                        self.count
                    ),
                });
            }
            self.lo[k] = self.lo[k].min(v);
            self.hi[k] = self.hi[k].max(v);
        }
        self.count += 1;
        Ok(())
    }

    /// Validates and returns the accumulated bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadDataset`] when no entries were observed
    /// and the typed [`SurrogateError::DegenerateEta`] when a component
    /// never varied (normalizing by a zero range would yield NaN).
    pub fn finish(&self) -> Result<EtaBounds, SurrogateError> {
        if self.count == 0 {
            return Err(SurrogateError::BadDataset {
                detail: "no entries".into(),
            });
        }
        for k in 0..4 {
            if self.hi[k] <= self.lo[k] {
                return Err(SurrogateError::DegenerateEta {
                    component: k,
                    value: self.lo[k],
                });
            }
        }
        Ok(EtaBounds {
            lo: self.lo,
            hi: self.hi,
        })
    }
}

/// The shape of a dataset build, in memory ([`build_dataset`]) or streamed
/// ([`StreamBuilder`](crate::StreamBuilder), which records every field but
/// `parallel` in its store header). `parallel` and `chunk_points` only
/// shape *how* the points are computed: the dataset is bit-identical at
/// every thread count and chunk size.
///
/// # Examples
///
/// ```
/// use pnc_linalg::ParallelConfig;
/// use pnc_surrogate::{build_dataset, DatasetConfig};
///
/// # fn main() -> Result<(), pnc_surrogate::SurrogateError> {
/// let config = DatasetConfig {
///     parallel: ParallelConfig::serial(),
///     // Tolerate up to half the corner circuits failing in this tiny run.
///     max_failure_fraction: 0.5,
///     ..DatasetConfig::new(12, 21)
/// };
/// let data = build_dataset(&config, None)?;
/// assert_eq!(data.entries.len() + data.failures.len(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Number of design points to characterize (the paper uses 10 000;
    /// streamed production builds aim at 10⁶).
    pub total_points: usize,
    /// Points characterized per chunk — a streamed build's memory bound.
    pub chunk_points: usize,
    /// `V_in` grid points per transfer-curve sweep (at least 5).
    pub sweep_points: usize,
    /// Abort when more than this fraction of `total_points` fails. Must be
    /// finite and non-negative.
    pub max_failure_fraction: f64,
    /// Per-chunk thread configuration.
    pub parallel: ParallelConfig,
}

impl DatasetConfig {
    /// `total_points` points on `sweep_points`-point sweeps, in 1024-point
    /// chunks, with a 5 % failure threshold and an automatic thread count.
    pub fn new(total_points: usize, sweep_points: usize) -> Self {
        DatasetConfig {
            total_points,
            chunk_points: 1024,
            sweep_points,
            max_failure_fraction: 0.05,
            parallel: ParallelConfig::automatic(),
        }
    }

    fn validate(&self) -> Result<(), SurrogateError> {
        let detail = if self.total_points == 0 {
            "total_points must be positive".to_string()
        } else if self.chunk_points == 0 {
            "chunk_points must be positive".to_string()
        } else if self.sweep_points < 5 {
            format!(
                "sweep_points {} is below the 5 a ptanh fit needs",
                self.sweep_points
            )
        } else if !is_valid_failure_fraction(self.max_failure_fraction) {
            format!(
                "max_failure_fraction {} must be finite and non-negative",
                self.max_failure_fraction
            )
        } else {
            return Ok(());
        };
        Err(SurrogateError::Config { detail })
    }
}

/// The characterized design-space dataset (green boxes of Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitDataset {
    /// The design space the entries were drawn from.
    pub space: DesignSpace,
    /// All characterized circuits.
    pub entries: Vec<DatasetEntry>,
    /// Target-normalization bounds computed over `entries`.
    pub eta_bounds: EtaBounds,
    /// Design points that could not be characterized, with stage and cause.
    /// Ordered by sample index; identical at every thread count.
    pub failures: Vec<FailureRecord>,
}

impl CircuitDataset {
    /// Per-stage counts of the recorded failures.
    pub fn failure_tally(&self) -> FailureTally {
        let mut tally = FailureTally::default();
        for f in &self.failures {
            match f.stage {
                FailureStage::Build => tally.build += 1,
                FailureStage::Sweep => tally.sweep += 1,
                FailureStage::Fit => tally.fit += 1,
            }
        }
        tally
    }

    /// Splits the dataset into train/validation/test index sets with the
    /// paper's 70/20/10 proportions, deterministically shuffled by `seed`.
    pub fn split(&self, seed: u64) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut indices: Vec<usize> = (0..self.entries.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let n = indices.len();
        let n_train = (n as f64 * 0.7).round() as usize;
        let n_val = (n as f64 * 0.2).round() as usize;
        let train = indices[..n_train].to_vec();
        let val = indices[n_train..(n_train + n_val).min(n)].to_vec();
        let test = indices[(n_train + n_val).min(n)..].to_vec();
        (train, val, test)
    }
}

/// Samples the feasible design space with quasi Monte-Carlo, simulates each
/// circuit's DC transfer curve, and fits Eq. 2 — producing the `(ω, η)`
/// training data for the surrogate network, held in memory.
///
/// `solver_factory` optionally overrides the DC solver per sample, keyed by
/// the (scheduling-invariant) QMC sample index: custom
/// [`RecoveryPolicy`](pnc_spice::RecoveryPolicy)s, or fault injection on
/// chosen samples in tests.
///
/// # Errors
///
/// [`SurrogateError::Config`] for an invalid `config`, before any point is
/// characterized; [`SurrogateError::BadDataset`] once more than
/// [`DatasetConfig::max_failure_fraction`] of the points fail (failed
/// points below that are kept in [`CircuitDataset::failures`]); η-bounds
/// validation as in [`EtaBounds::from_entries`].
///
/// # Examples
///
/// ```no_run
/// use pnc_surrogate::{build_dataset, DatasetConfig};
///
/// let data = build_dataset(&DatasetConfig::new(1000, 41), None)?;
/// assert!(data.entries.len() >= 950);
/// # Ok::<(), pnc_surrogate::SurrogateError>(())
/// ```
pub fn build_dataset(
    config: &DatasetConfig,
    solver_factory: Option<&(dyn Fn(usize) -> DcSolver + Sync)>,
) -> Result<CircuitDataset, SurrogateError> {
    let space = DesignSpace::paper();
    let mut characterizer = Characterizer::new(config, &space, solver_factory)?;
    let mut entries = Vec::new();
    let mut failures = Vec::new();
    while characterizer
        .chunk(|_, records| {
            for record in records {
                match record {
                    Ok(entry) => entries.push(entry),
                    Err(failure) => failures.push(failure),
                }
            }
            Ok(())
        })?
        .is_some()
    {}
    Ok(CircuitDataset {
        eta_bounds: characterizer.acc.finish()?,
        space,
        entries,
        failures,
    })
}

/// Characterizes one design point: build the netlist, sweep the DC transfer
/// curve, fit Eq. 2.
fn characterize_point(
    index: usize,
    omega: &[f64; OMEGA_DIM],
    grid: &[f64],
    solver_factory: Option<&(dyn Fn(usize) -> DcSolver + Sync)>,
) -> Result<DatasetEntry, FailureRecord> {
    let fail = |stage: FailureStage, cause: String| FailureRecord {
        index,
        omega: *omega,
        stage,
        cause,
    };
    let params = NonlinearCircuitParams::from_array(*omega);
    let mut circuit =
        PtanhCircuit::build(&params).map_err(|e| fail(FailureStage::Build, e.to_string()))?;
    if let Some(factory) = solver_factory {
        circuit.set_solver(factory(index));
    }
    let curve = circuit
        .transfer_curve(grid)
        .map_err(|e| fail(FailureStage::Sweep, e.to_string()))?;
    let fit = fit_ptanh(&curve).map_err(|e| fail(FailureStage::Fit, e.to_string()))?;
    if !fit.converged {
        OBS_UNCONVERGED_FITS.increment();
    }
    Ok(DatasetEntry {
        omega: *omega,
        eta: fit.curve.eta,
        fit_rmse: fit.rmse,
    })
}

/// The one characterization loop behind [`build_dataset`] and
/// [`StreamBuilder`](crate::StreamBuilder). Each [`chunk`](Self::chunk)
/// turns the next run of consecutive Sobol' sample indices into records,
/// in sample order at every thread count, so a dataset does not depend on
/// how it was chunked or scheduled.
pub(crate) struct Characterizer<'a> {
    pub(crate) config: DatasetConfig,
    sampler: DesignSampler,
    grid: Vec<f64>,
    pub(crate) solver_factory: Option<&'a (dyn Fn(usize) -> DcSolver + Sync)>,
    /// η bounds over every entry so far.
    pub(crate) acc: EtaBoundsAccumulator,
    /// Failed points so far.
    pub(crate) failures: usize,
}

impl<'a> Characterizer<'a> {
    /// Validates `config` and starts at sample index 0 of `space`.
    pub(crate) fn new(
        config: &DatasetConfig,
        space: &DesignSpace,
        solver_factory: Option<&'a (dyn Fn(usize) -> DcSolver + Sync)>,
    ) -> Result<Self, SurrogateError> {
        config.validate()?;
        obs_register();
        Ok(Characterizer {
            config: *config,
            sampler: DesignSampler::new(space)?,
            grid: linspace(0.0, pnc_spice::circuits::VDD, config.sweep_points),
            solver_factory,
            acc: EtaBoundsAccumulator::new(),
            failures: 0,
        })
    }

    /// Folds already committed records back into the running state and
    /// skips their samples, leaving exactly the state the build had when
    /// it committed them.
    pub(crate) fn replay(&mut self, records: &[StoreRecord]) -> Result<(), SurrogateError> {
        for record in records {
            match record {
                StoreRecord::Entry { entry, .. } => self.acc.observe(&entry.eta)?,
                StoreRecord::Failure(_) => self.failures += 1,
            }
        }
        self.sampler.skip(records.len())
    }

    /// Characterizes the next chunk of up to
    /// [`DatasetConfig::chunk_points`] points and hands `commit` the index
    /// of its first sample and its records. Returns the chunk's point and
    /// failure counts, or `None` once all points are done.
    ///
    /// The failure threshold is checked after `commit`, so a streamed build
    /// keeps the chunk that crossed it for post-mortem.
    pub(crate) fn chunk(
        &mut self,
        commit: impl FnOnce(
            usize,
            Vec<Result<DatasetEntry, FailureRecord>>,
        ) -> Result<(), SurrogateError>,
    ) -> Result<Option<(usize, usize)>, SurrogateError> {
        let first = self.sampler.drawn();
        let total = self.config.total_points;
        if first >= total {
            return Ok(None);
        }
        let span = Span::new(&OBS_CHUNK_SECONDS);
        let points = (total - first).min(self.config.chunk_points);
        // Indices ride along with the samples so the worker closure (which
        // only sees one item) can key the solver factory and the failure
        // records on the scheduling-independent sample index.
        let indexed: Vec<(usize, [f64; OMEGA_DIM])> =
            (first..).zip(self.sampler.next_batch(points)?).collect();
        let (grid, solver_factory) = (&self.grid, self.solver_factory);
        let records = self
            .config
            .parallel
            .ordered_par_map(&indexed, |(index, omega)| {
                characterize_point(*index, omega, grid, solver_factory)
            });

        let mut failures = 0;
        for record in &records {
            match record {
                Ok(entry) => {
                    self.acc.observe(&entry.eta)?;
                    OBS_FIT_RMSE.observe(entry.fit_rmse);
                }
                Err(failure) => {
                    failures += 1;
                    match failure.stage {
                        FailureStage::Build => OBS_FAIL_BUILD.increment(),
                        FailureStage::Sweep => OBS_FAIL_SWEEP.increment(),
                        FailureStage::Fit => OBS_FAIL_FIT.increment(),
                    }
                }
            }
        }
        self.failures += failures;
        OBS_POINTS.add(points as u64);
        OBS_ENTRIES.add((points - failures) as u64);
        let max_fraction = self.config.max_failure_fraction;
        let crossed = (self.failures as f64 > max_fraction * total as f64).then(|| {
            let example = records.iter().find_map(|r| r.as_ref().err());
            format!(
                "{} of {} attempted circuit characterizations failed, over the \
                 threshold {max_fraction} of {total} points{}",
                self.failures,
                first + points,
                example.map_or(String::new(), |f| format!(
                    "; first in the last chunk: index {}, {:?} stage: {}",
                    f.index, f.stage, f.cause
                )),
            )
        });
        commit(first, records)?;
        let seconds = span.elapsed_seconds();
        drop(span);
        if pnc_obs::sink::enabled() {
            pnc_obs::sink::emit(
                "surrogate.dataset.chunk",
                &[
                    ("first_index", FieldValue::U64(first as u64)),
                    ("points", FieldValue::U64(points as u64)),
                    ("failures", FieldValue::U64(failures as u64)),
                    ("seconds", FieldValue::F64(seconds)),
                ],
            );
        }

        if let Some(detail) = crossed {
            return Err(SurrogateError::BadDataset { detail });
        }
        Ok(Some((points, failures)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> CircuitDataset {
        build_dataset(&DatasetConfig::new(60, 31), None).expect("tiny dataset builds")
    }

    #[test]
    fn builds_and_fits_reasonably() {
        let data = tiny_dataset();
        assert!(data.entries.len() >= 57, "{} entries", data.entries.len());
        // The vast majority of circuits must be well described by Eq. 2.
        let good = data.entries.iter().filter(|e| e.fit_rmse < 0.05).count();
        assert!(
            good * 10 >= data.entries.len() * 9,
            "only {good}/{} fits below 50 mV rmse",
            data.entries.len()
        );
    }

    #[test]
    fn dataset_is_identical_across_thread_counts() {
        let build = |parallel| {
            build_dataset(
                &DatasetConfig {
                    parallel,
                    ..DatasetConfig::new(40, 21)
                },
                None,
            )
            .unwrap()
        };
        let serial = build(ParallelConfig::serial());
        for threads in [2, 4] {
            let parallel = build(ParallelConfig::with_threads(threads));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn eta_bounds_normalize_round_trips() {
        let data = tiny_dataset();
        let b = data.eta_bounds;
        for e in &data.entries[..10.min(data.entries.len())] {
            let n = b.normalize(&e.eta);
            for v in n {
                assert!((-1e-9..=1.0 + 1e-9).contains(&v));
            }
            let back = b.denormalize(&n);
            for (k, &v) in back.iter().enumerate() {
                assert!((v - e.eta[k]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn eta_bounds_reject_empty_and_constant() {
        assert!(EtaBounds::from_entries(&[]).is_err());
        let e = DatasetEntry {
            omega: [1.0; OMEGA_DIM],
            eta: [0.5, 0.5, 0.5, 0.5],
            fit_rmse: 0.0,
        };
        assert!(EtaBounds::from_entries(&[e, e]).is_err());
    }

    /// Regression: a constant η column must surface as the typed
    /// `DegenerateEta` error naming the component — never reach `normalize`
    /// where the zero range would silently produce NaN.
    #[test]
    fn constant_eta_column_is_a_typed_error_not_nan() {
        let entry = |c: f64| DatasetEntry {
            omega: [1.0; OMEGA_DIM],
            eta: [c, 1.0 + c, 0.25, 2.0 * c + 0.1],
            fit_rmse: 0.0,
        };
        // Component 2 is constant at 0.25; the others vary.
        let entries = [entry(0.1), entry(0.4), entry(0.9)];
        match EtaBounds::from_entries(&entries) {
            Err(SurrogateError::DegenerateEta { component, value }) => {
                assert_eq!(component, 2);
                assert_eq!(value, 0.25);
            }
            other => panic!("expected DegenerateEta, got {other:?}"),
        }
    }

    /// A NaN η must be rejected at observation time: `f64::min`/`max`
    /// silently ignore NaN, so without the explicit check a poisoned entry
    /// would produce plausible-looking bounds and NaN normalized targets.
    #[test]
    fn non_finite_eta_is_rejected_at_the_door() {
        let good = DatasetEntry {
            omega: [1.0; OMEGA_DIM],
            eta: [0.1, 0.2, 0.3, 0.4],
            fit_rmse: 0.0,
        };
        let mut bad = good;
        bad.eta[1] = f64::NAN;
        let err = EtaBounds::from_entries(&[good, bad]).unwrap_err();
        assert!(
            matches!(err, SurrogateError::BadDataset { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    /// The streaming accumulator must reproduce the batch bounds bit-for-bit
    /// regardless of observation order (min/max are order-independent).
    #[test]
    fn accumulator_matches_batch_bounds_bitwise() {
        let data = tiny_dataset();
        let batch = EtaBounds::from_entries(&data.entries).unwrap();
        let mut acc = EtaBoundsAccumulator::new();
        for e in data.entries.iter().rev() {
            acc.observe(&e.eta).unwrap();
        }
        let streamed = acc.finish().unwrap();
        for k in 0..4 {
            assert_eq!(batch.lo[k].to_bits(), streamed.lo[k].to_bits());
            assert_eq!(batch.hi[k].to_bits(), streamed.hi[k].to_bits());
        }
        assert_eq!(acc.count(), data.entries.len());
    }

    #[test]
    fn split_proportions_and_disjointness() {
        let data = tiny_dataset();
        let (train, val, test) = data.split(7);
        let n = data.entries.len();
        assert_eq!(train.len() + val.len() + test.len(), n);
        assert!((train.len() as f64 / n as f64 - 0.7).abs() < 0.05);
        assert!((val.len() as f64 / n as f64 - 0.2).abs() < 0.05);
        let mut all: Vec<usize> = train.iter().chain(&val).chain(&test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "splits must be disjoint");
        // Deterministic in the seed.
        assert_eq!(data.split(7), (train, val, test));
    }

    #[test]
    fn successful_build_has_no_failure_records() {
        let data = tiny_dataset();
        assert!(data.failures.is_empty());
        assert_eq!(data.failure_tally().total(), 0);
    }

    /// A solver factory injecting an unrecoverable fault on chosen sample
    /// indices: those samples fail mid-sweep at `V_in = 0.5`.
    fn faulting_factory(bad: &'static [usize]) -> impl Fn(usize) -> pnc_spice::DcSolver + Sync {
        move |index| {
            let mut solver = pnc_spice::DcSolver::new();
            if bad.contains(&index) {
                solver.fault_injection =
                    Some(pnc_spice::FaultInjection::unrecoverable_at(vec![0.5]));
            }
            solver
        }
    }

    #[test]
    fn injected_faults_are_recorded_with_stage_and_cause() {
        const BAD: &[usize] = &[3, 17];
        let factory = faulting_factory(BAD);
        let data = build_dataset(&DatasetConfig::new(40, 21), Some(&factory)).unwrap();

        assert_eq!(data.entries.len(), 40 - BAD.len());
        assert_eq!(data.failures.len(), BAD.len());
        let tally = data.failure_tally();
        assert_eq!(tally.sweep, BAD.len());
        assert_eq!(tally.build + tally.fit, 0);
        for (record, &expected_index) in data.failures.iter().zip(BAD) {
            assert_eq!(record.index, expected_index);
            assert_eq!(record.stage, FailureStage::Sweep);
            assert!(
                record.cause.contains("did not converge"),
                "cause: {}",
                record.cause
            );
            assert!(record.omega.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn failure_records_are_identical_across_thread_counts() {
        const BAD: &[usize] = &[1, 9, 22];
        let factory = faulting_factory(BAD);
        let build = |parallel: ParallelConfig| {
            let config = DatasetConfig {
                parallel,
                max_failure_fraction: 0.2,
                ..DatasetConfig::new(40, 21)
            };
            build_dataset(&config, Some(&factory)).unwrap()
        };
        let serial = build(ParallelConfig::serial());
        assert_eq!(serial.failures.len(), BAD.len());
        for threads in [2, 4] {
            let parallel = build(ParallelConfig::with_threads(threads));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn recoverable_faults_leave_the_dataset_intact() {
        // When the ladder can rescue the injected failure, the dataset must
        // contain every sample and no failure records — and match the
        // unfaulted build, because recovery converges to the same operating
        // points.
        let config = DatasetConfig {
            parallel: ParallelConfig::serial(),
            ..DatasetConfig::new(20, 21)
        };
        let clean = build_dataset(&config, None).unwrap();
        let factory = |_index: usize| pnc_spice::DcSolver {
            fault_injection: Some(pnc_spice::FaultInjection::recoverable_at(vec![0.5])),
            ..pnc_spice::DcSolver::new()
        };
        let rescued = build_dataset(&config, Some(&factory)).unwrap();
        assert!(rescued.failures.is_empty(), "ladder should rescue all");
        assert_eq!(clean.entries.len(), rescued.entries.len());
        for (a, b) in clean.entries.iter().zip(&rescued.entries) {
            assert_eq!(a.omega, b.omega);
            for k in 0..4 {
                assert!(
                    (a.eta[k] - b.eta[k]).abs() < 1e-6,
                    "eta[{k}]: {} vs {}",
                    a.eta[k],
                    b.eta[k]
                );
            }
        }
    }

    #[test]
    fn too_many_failures_abort_with_stage_detail() {
        const BAD: &[usize] = &[0, 1, 2, 3, 4];
        let config = DatasetConfig::new(20, 21);
        let factory = faulting_factory(BAD);
        let err = build_dataset(&config, Some(&factory)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("5 of 20"), "{msg}");
        assert!(msg.contains("Sweep"), "{msg}");
        // Raising the threshold lets the same build succeed and keep records.
        let config = DatasetConfig {
            max_failure_fraction: 0.5,
            ..config
        };
        let data = build_dataset(&config, Some(&factory)).unwrap();
        assert_eq!(data.failure_tally().sweep, BAD.len());
    }

    #[test]
    fn invalid_failure_fractions_are_rejected() {
        // A negative fraction used to index an empty failure list, and NaN
        // never aborted; both are configuration errors, as in the
        // streaming builder.
        for fraction in [-0.1, f64::NAN, f64::INFINITY] {
            let config = DatasetConfig {
                parallel: ParallelConfig::serial(),
                max_failure_fraction: fraction,
                ..DatasetConfig::new(8, 21)
            };
            let result = build_dataset(&config, None);
            assert!(
                matches!(result, Err(SurrogateError::Config { .. })),
                "fraction {fraction}: {result:?}"
            );
        }
    }

    /// A sweep shorter than 5 points used to be widened to 5 silently while
    /// a streamed store recorded the requested count; it is a configuration
    /// error now.
    #[test]
    fn short_sweeps_are_rejected() {
        for sweep_points in [0, 4] {
            let result = build_dataset(&DatasetConfig::new(8, sweep_points), None);
            assert!(
                matches!(result, Err(SurrogateError::Config { .. })),
                "sweep_points {sweep_points}: {result:?}"
            );
        }
    }

    #[test]
    fn failure_records_serialize_round_trip() {
        const BAD: &[usize] = &[2];
        let factory = faulting_factory(BAD);
        let data = build_dataset(&DatasetConfig::new(20, 21), Some(&factory)).unwrap();
        let json = serde_json::to_string(&data).unwrap();
        let back: CircuitDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.failures.len(), 1);
        assert_eq!(back.failures[0].index, 2);
        assert_eq!(back.failures[0].stage, FailureStage::Sweep);
        assert_eq!(back.failures[0].cause, data.failures[0].cause);
    }

    #[test]
    fn dataset_serializes() {
        // This environment's serde_json float writer is shortest-repr but not
        // exactly round-tripping, so compare with an ULP-scale tolerance.
        let data = tiny_dataset();
        let json = serde_json::to_string(&data).unwrap();
        let back: CircuitDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(data.entries.len(), back.entries.len());
        for (a, b) in data.entries.iter().zip(&back.entries) {
            for k in 0..OMEGA_DIM {
                assert!((a.omega[k] - b.omega[k]).abs() <= 1e-12 * a.omega[k].abs());
            }
            for k in 0..4 {
                assert!((a.eta[k] - b.eta[k]).abs() <= 1e-9 * a.eta[k].abs().max(1.0));
            }
        }
    }
}
