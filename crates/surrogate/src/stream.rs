//! Streaming, resumable dataset builder — bounded memory at any build size.
//!
//! [`crate::build_dataset`] keeps every record in RAM; at a production
//! scale of 10⁶ points that is neither necessary nor survivable.
//! [`StreamBuilder`] runs the same chunk loop and commits each chunk to the
//! append-only [`DatasetStore`] before drawing the next:
//!
//! * both builders call one crate-private chunk routine: it draws the next
//!   run of Sobol' sample indices, characterizes them in parallel
//!   ([`pnc_linalg::ParallelConfig::ordered_par_map`]), folds η into the
//!   running bounds, checks the one failure threshold and feeds the
//!   `surrogate.dataset.*` metrics;
//! * peak memory is `O(chunk_points)`, independent of the total build size
//!   (the `claims` bin of `pnc-bench` holds peak RSS flat from 800 to
//!   8,000 points);
//! * records do not depend on chunking or scheduling, so a streamed
//!   dataset is **bit-identical** to the in-memory build at every chunk
//!   size and thread count;
//! * a killed build resumes from the last committed chunk
//!   ([`StreamBuilder::resume`]) and finishes byte-identical to an
//!   uninterrupted run — the sampler is fast-forwarded, not persisted.
//!
//! The full contract (determinism, store format, resume semantics) is
//! DESIGN.md §17.

use crate::dataset::Characterizer;
use crate::store::{DatasetStore, ResumeReport, StoreMeta, StoreRecord};
use crate::{CircuitDataset, DatasetConfig, DesignSpace, EtaBounds, SurrogateError};
use pnc_obs::Counter;
use pnc_spice::DcSolver;
use std::path::Path;

// Observability: resume bookkeeping. The per-chunk metrics are the
// `surrogate.dataset.*` family every build feeds. Catalogued in
// docs/METRICS.md.
static OBS_RESUMED_POINTS: Counter = Counter::new("surrogate.dataset.resumed_points");
static OBS_DISCARDED_BYTES: Counter = Counter::new("surrogate.dataset.discarded_bytes");

fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_RESUMED_POINTS.register();
        OBS_DISCARDED_BYTES.register();
    });
}

/// The streaming builder's name for [`DatasetConfig`]. Every field but
/// `parallel` is recorded in the store header and must match on resume.
pub type StreamConfig = DatasetConfig;

impl DatasetConfig {
    fn meta(&self, space: &DesignSpace) -> StoreMeta {
        StoreMeta {
            total_points: self.total_points as u64,
            chunk_points: self.chunk_points as u64,
            sweep_points: self.sweep_points as u32,
            max_failure_fraction: self.max_failure_fraction,
            space: space.clone(),
        }
    }
}

/// What one [`StreamBuilder::next_chunk`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Index of the committed chunk.
    pub chunk_index: u64,
    /// Design points attempted in this chunk.
    pub points: usize,
    /// Points characterized successfully.
    pub entries: usize,
    /// Points that failed (recorded, not dropped).
    pub failures: usize,
}

/// Summary of a completed streaming build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReport {
    /// Design points attempted (equals the configured total).
    pub total_points: usize,
    /// Successfully characterized entries.
    pub entries: usize,
    /// Recorded failures.
    pub failures: usize,
    /// Chunk frames committed.
    pub chunks: u64,
    /// Points that were already committed when this builder started
    /// (non-zero only after a resume).
    pub resumed_points: u64,
    /// Torn-tail bytes discarded at resume time.
    pub discarded_bytes: u64,
    /// Streaming η bounds over all entries (bit-identical to the batch
    /// [`EtaBounds::from_entries`] — the refit-free normalization contract).
    pub eta_bounds: EtaBounds,
}

/// The streaming dataset builder. See the module docs for the contract.
pub struct StreamBuilder<'a> {
    store: DatasetStore,
    characterizer: Characterizer<'a>,
    resumed: ResumeReport,
}

impl<'a> StreamBuilder<'a> {
    /// Starts a fresh build, creating (truncating) the store at `path`.
    ///
    /// # Errors
    ///
    /// Config validation (before any file is written) and store-creation
    /// failures.
    pub fn create(path: &Path, config: &StreamConfig) -> Result<Self, SurrogateError> {
        let space = DesignSpace::paper();
        let characterizer = Characterizer::new(config, &space, None)?;
        obs_register();
        Ok(StreamBuilder {
            store: DatasetStore::create(path, &config.meta(&space))?,
            characterizer,
            resumed: ResumeReport {
                committed_chunks: 0,
                committed_records: 0,
                discarded_bytes: 0,
            },
        })
    }

    /// Resumes a killed build from `path`: validates the committed prefix
    /// (discarding a torn tail), checks that `config` matches the store
    /// header, replays the committed records to rebuild the in-memory state
    /// (η accumulator, failure count, sampler position), and is then ready
    /// to continue **bit-identically** to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Typed store errors for corruption/mismatch; config validation.
    pub fn resume(
        path: &Path,
        config: &StreamConfig,
    ) -> Result<(Self, ResumeReport), SurrogateError> {
        let space = DesignSpace::paper();
        let mut characterizer = Characterizer::new(config, &space, None)?;
        obs_register();
        let (store, report) = DatasetStore::open_resumable(path)?;
        store
            .check_meta(&config.meta(&space))
            .map_err(SurrogateError::from)?;
        OBS_RESUMED_POINTS.add(report.committed_records);
        OBS_DISCARDED_BYTES.add(report.discarded_bytes);
        // Replay chunk by chunk (bounded memory): the streaming state is a
        // pure fold over the records, and the Sobol' stream is
        // fast-forwarded rather than persisted.
        for chunk in 0..store.committed_chunks() {
            characterizer.replay(&store.read_chunk(chunk)?)?;
        }
        let builder = StreamBuilder {
            store,
            characterizer,
            resumed: report,
        };
        Ok((builder, report))
    }

    /// Installs a per-sample DC solver override (fault injection in tests,
    /// custom recovery policies), keyed on the scheduling-invariant global
    /// sample index — the `solver_factory` of [`crate::build_dataset`].
    pub fn with_solver_factory(mut self, factory: &'a (dyn Fn(usize) -> DcSolver + Sync)) -> Self {
        self.characterizer.solver_factory = Some(factory);
        self
    }

    /// The underlying store (committed chunks/records, path, header).
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// Whether the build has reached its configured total.
    pub fn is_complete(&self) -> bool {
        self.store.committed_records() >= self.characterizer.config.total_points as u64
    }

    /// Draws, characterizes, and commits the next chunk. Returns `None`
    /// when the build is already complete.
    ///
    /// # Errors
    ///
    /// Sampling/store failures, a non-finite fitted η, or the failure count
    /// crossing [`DatasetConfig::max_failure_fraction`] of the configured
    /// total — checked after every chunk, so a doomed 10⁶-point run aborts
    /// early and keeps its committed prefix for post-mortem.
    pub fn next_chunk(&mut self) -> Result<Option<ChunkSummary>, SurrogateError> {
        let chunk_index = self.store.committed_chunks();
        let store = &mut self.store;
        let counts = self.characterizer.chunk(|first, records| {
            let records: Vec<StoreRecord> = (first as u64..)
                .zip(records)
                .map(|(index, record)| match record {
                    Ok(entry) => StoreRecord::Entry { index, entry },
                    Err(failure) => StoreRecord::Failure(failure),
                })
                .collect();
            Ok(store.append_chunk(&records)?)
        })?;
        Ok(counts.map(|(points, failures)| ChunkSummary {
            chunk_index,
            points,
            entries: points - failures,
            failures,
        }))
    }

    /// Runs [`next_chunk`](StreamBuilder::next_chunk) to completion and
    /// summarizes.
    ///
    /// # Errors
    ///
    /// Chunk failures, plus [`SurrogateError::DegenerateEta`] /
    /// [`SurrogateError::BadDataset`] if the finished dataset cannot be
    /// normalized — the same end-state contract as [`crate::build_dataset`].
    pub fn run_to_completion(&mut self) -> Result<StreamReport, SurrogateError> {
        while self.next_chunk()?.is_some() {}
        self.report()
    }

    /// Summarizes a completed build.
    ///
    /// # Errors
    ///
    /// [`SurrogateError::Config`] if called before completion; η-bounds
    /// validation errors as in [`EtaBounds::from_entries`].
    pub fn report(&self) -> Result<StreamReport, SurrogateError> {
        let total_points = self.characterizer.config.total_points;
        if !self.is_complete() {
            return Err(SurrogateError::Config {
                detail: format!(
                    "build is not complete: {} of {total_points} points committed",
                    self.store.committed_records(),
                ),
            });
        }
        Ok(StreamReport {
            total_points,
            entries: self.characterizer.acc.count(),
            failures: self.characterizer.failures,
            chunks: self.store.committed_chunks(),
            resumed_points: self.resumed.committed_records,
            discarded_bytes: self.resumed.discarded_bytes,
            eta_bounds: self.characterizer.acc.finish()?,
        })
    }
}

/// Materializes a completed store into the in-memory [`CircuitDataset`]
/// [`crate::build_dataset`] returns — the bridge from a streamed build to
/// [`train_surrogate`](crate::train_surrogate), used by the benchmark's
/// pipeline and by the stream-vs-in-memory equivalence tests.
///
/// # Errors
///
/// Store read/validation failures (including a non-finite ω in an entry);
/// η-bounds validation as in [`EtaBounds::from_entries`].
pub fn load_circuit_dataset(store: &DatasetStore) -> Result<CircuitDataset, SurrogateError> {
    let (entries, failures) = store.load_all()?;
    let eta_bounds = EtaBounds::from_entries(&entries)?;
    Ok(CircuitDataset {
        space: store.meta().space.clone(),
        entries,
        eta_bounds,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_dataset;
    use pnc_linalg::ParallelConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pnc_stream_{name}.pncds"))
    }

    fn small_config(total: usize, chunk: usize) -> StreamConfig {
        StreamConfig {
            chunk_points: chunk,
            parallel: ParallelConfig::serial(),
            ..StreamConfig::new(total, 21)
        }
    }

    fn batch_oracle(samples: usize) -> CircuitDataset {
        build_dataset(&small_config(samples, samples), None).unwrap()
    }

    #[test]
    fn streamed_build_is_bit_identical_to_batch_oracle() {
        let batch = batch_oracle(40);
        for chunk in [7usize, 16, 40, 64] {
            for threads in [1usize, 2, 8] {
                let path = tmp(&format!("equiv_{chunk}_{threads}"));
                let config = StreamConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    ..small_config(40, chunk)
                };
                let mut builder = StreamBuilder::create(&path, &config).unwrap();
                let report = builder.run_to_completion().unwrap();
                let streamed = load_circuit_dataset(builder.store()).unwrap();
                assert_eq!(
                    batch, streamed,
                    "chunk={chunk} threads={threads} diverged from the batch oracle"
                );
                // Streaming bounds must equal the batch bounds bitwise.
                for k in 0..4 {
                    assert_eq!(
                        report.eta_bounds.lo[k].to_bits(),
                        batch.eta_bounds.lo[k].to_bits()
                    );
                    assert_eq!(
                        report.eta_bounds.hi[k].to_bits(),
                        batch.eta_bounds.hi[k].to_bits()
                    );
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }

    fn faulting_factory(bad: &'static [usize]) -> impl Fn(usize) -> DcSolver + Sync {
        move |index| {
            let mut solver = DcSolver::new();
            if bad.contains(&index) {
                solver.fault_injection =
                    Some(pnc_spice::FaultInjection::unrecoverable_at(vec![0.5]));
            }
            solver
        }
    }

    #[test]
    fn streamed_failures_match_batch_oracle_across_chunkings() {
        const BAD: &[usize] = &[3, 17, 22];
        let factory = faulting_factory(BAD);
        let batch = build_dataset(
            &StreamConfig {
                max_failure_fraction: 0.2,
                ..small_config(40, 40)
            },
            Some(&factory),
        )
        .unwrap();
        for chunk in [9usize, 40] {
            let path = tmp(&format!("faults_{chunk}"));
            let config = StreamConfig {
                max_failure_fraction: 0.2,
                ..small_config(40, chunk)
            };
            let mut builder = StreamBuilder::create(&path, &config)
                .unwrap()
                .with_solver_factory(&factory);
            builder.run_to_completion().unwrap();
            let streamed = load_circuit_dataset(builder.store()).unwrap();
            assert_eq!(batch, streamed, "chunk={chunk}");
            assert_eq!(streamed.failures.len(), BAD.len());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn resume_from_chunk_boundary_is_byte_identical() {
        let config = small_config(36, 9);
        // Uninterrupted reference.
        let ref_path = tmp("resume_ref");
        let mut reference = StreamBuilder::create(&ref_path, &config).unwrap();
        reference.run_to_completion().unwrap();
        let want = std::fs::read(&ref_path).unwrap();

        // Killed at a chunk boundary: run two chunks, drop the builder.
        let path = tmp("resume_boundary");
        let mut builder = StreamBuilder::create(&path, &config).unwrap();
        builder.next_chunk().unwrap().unwrap();
        builder.next_chunk().unwrap().unwrap();
        drop(builder);

        let (mut resumed, report) = StreamBuilder::resume(&path, &config).unwrap();
        assert_eq!(report.committed_chunks, 2);
        assert_eq!(report.committed_records, 18);
        assert_eq!(report.discarded_bytes, 0);
        let stream_report = resumed.run_to_completion().unwrap();
        assert_eq!(stream_report.resumed_points, 18);
        let got = std::fs::read(&path).unwrap();
        assert_eq!(want, got, "resumed store differs from uninterrupted build");
        std::fs::remove_file(&ref_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_mid_chunk_truncation_is_byte_identical() {
        let config = small_config(36, 9);
        let ref_path = tmp("resume_midref");
        let mut reference = StreamBuilder::create(&ref_path, &config).unwrap();
        reference.run_to_completion().unwrap();
        let want = std::fs::read(&ref_path).unwrap();

        // A kill mid-write leaves a prefix of the uninterrupted byte
        // stream: simulate it by truncating inside the third frame.
        let path = tmp("resume_mid");
        let cut = want.len() - (want.len() / 3);
        std::fs::write(&path, &want[..cut]).unwrap();

        let (mut resumed, report) = StreamBuilder::resume(&path, &config).unwrap();
        assert!(report.discarded_bytes > 0, "expected a torn tail");
        assert!(report.committed_records < 36);
        assert_eq!(report.committed_records % 9, 0, "whole chunks only");
        resumed.run_to_completion().unwrap();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(
            want, got,
            "recovered store differs from uninterrupted build"
        );
        std::fs::remove_file(&ref_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let config = small_config(36, 9);
        let path = tmp("resume_mismatch");
        let mut builder = StreamBuilder::create(&path, &config).unwrap();
        builder.next_chunk().unwrap();
        drop(builder);
        let other = StreamConfig {
            max_failure_fraction: 0.2,
            ..config
        };
        let Err(err) = StreamBuilder::resume(&path, &other) else {
            panic!("resume with a mismatched config must fail");
        };
        assert!(
            matches!(
                err,
                SurrogateError::Store(crate::StoreError::MetaMismatch { .. })
            ),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unreadable_failure_fractions_are_rejected_before_writing() {
        for fraction in [f64::NAN, f64::INFINITY, -0.1] {
            let path = tmp("bad_fraction");
            std::fs::remove_file(&path).ok();
            let config = StreamConfig {
                max_failure_fraction: fraction,
                ..small_config(9, 9)
            };
            let Err(err) = StreamBuilder::create(&path, &config) else {
                panic!("fraction {fraction} must be rejected");
            };
            assert!(matches!(err, SurrogateError::Config { .. }), "{err:?}");
            assert!(!path.exists(), "fraction {fraction} wrote a store");
        }
    }

    #[test]
    fn short_sweeps_are_rejected_before_writing() {
        for sweep_points in [0, 4] {
            let path = tmp("short_sweep");
            std::fs::remove_file(&path).ok();
            let config = StreamConfig {
                sweep_points,
                ..small_config(9, 9)
            };
            let Err(err) = StreamBuilder::create(&path, &config) else {
                panic!("sweep_points {sweep_points} must be rejected");
            };
            assert!(matches!(err, SurrogateError::Config { .. }), "{err:?}");
            assert!(!path.exists(), "sweep_points {sweep_points} wrote a store");
        }
    }

    #[test]
    fn failure_threshold_aborts_but_keeps_committed_prefix() {
        const BAD: &[usize] = &[0, 1, 2, 3, 4];
        let factory = faulting_factory(BAD);
        let path = tmp("threshold");
        let config = small_config(20, 5);
        let mut builder = StreamBuilder::create(&path, &config)
            .unwrap()
            .with_solver_factory(&factory);
        let err = builder.run_to_completion().unwrap_err();
        assert!(matches!(err, SurrogateError::BadDataset { .. }), "{err:?}");
        assert!(err.to_string().contains("5 of 5 attempted"), "{err}");
        // The committed chunk survives for post-mortem.
        let store = DatasetStore::open_readonly(&path).unwrap();
        assert!(store.committed_records() >= 5);
        std::fs::remove_file(&path).ok();
    }

    /// Golden pin of the on-disk bytes: FNV-1a-64 of a whole small uniform
    /// store and of one fixed header. Unlike the equivalence tests above,
    /// which compare two builds of the same code, these constants hold
    /// across code changes; a change to either means the `PNCDSTR1` v1
    /// format, the Sobol' point stream or the per-point characterization
    /// (sweep, fit) moved.
    #[test]
    fn uniform_store_bytes_are_pinned() {
        const STORE_FNV: u64 = 0x95fc_5d88_8126_f01e;
        const HEADER_FNV: u64 = 0xb01d_1cb9_2515_e786;
        let header = small_config(22, 8).meta(&DesignSpace::paper()).encode();
        assert_eq!(crate::store::fnv1a64(&header), HEADER_FNV, "header digest");
        for threads in [1usize, 2] {
            let path = tmp(&format!("golden_{threads}"));
            let config = StreamConfig {
                parallel: if threads == 1 {
                    ParallelConfig::serial()
                } else {
                    ParallelConfig::with_threads(threads)
                },
                ..small_config(22, 8)
            };
            StreamBuilder::create(&path, &config)
                .unwrap()
                .run_to_completion()
                .unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(
                crate::store::fnv1a64(&bytes),
                STORE_FNV,
                "store digest at {threads} thread(s)"
            );
        }
    }

    #[test]
    fn run_summaries_add_up() {
        // The counters are process-global and other tests build
        // concurrently, so the check is on the growth across this build.
        let counters = || {
            let snap = pnc_obs::snapshot();
            (
                snap.histogram("surrogate.dataset.chunk_seconds")
                    .map_or(0, |h| h.count),
                snap.counter("surrogate.dataset.points").unwrap_or(0),
            )
        };
        let (chunks_before, points_before) = counters();
        let path = tmp("summaries");
        let config = small_config(22, 8);
        let mut builder = StreamBuilder::create(&path, &config).unwrap();
        let mut points = 0;
        let mut chunks = 0;
        while let Some(summary) = builder.next_chunk().unwrap() {
            assert_eq!(summary.points, summary.entries + summary.failures);
            points += summary.points;
            chunks += 1;
        }
        assert_eq!(points, 22);
        assert_eq!(chunks, 3, "22 points in chunks of 8 → 8+8+6");
        let report = builder.report().unwrap();
        assert_eq!(report.entries + report.failures, 22);
        assert_eq!(report.chunks, 3);
        let (chunks_after, points_after) = counters();
        assert!(
            chunks_after - chunks_before >= 3,
            "surrogate.dataset.chunk_seconds"
        );
        assert!(
            points_after - points_before >= 22,
            "surrogate.dataset.points"
        );
        std::fs::remove_file(&path).ok();
    }
}
