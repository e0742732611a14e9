//! Golden pin of the in-memory dataset builder's output: FNV-1a-64 over the
//! `to_bits()` of every entry's ω, η and fit RMSE, every failure's index,
//! stage, ω and cause, and the η bounds, for one small build with faults
//! injected on known sample indices, at 1 and 2 threads.
//!
//! Unlike the thread-count and chunking equivalence tests, which compare two
//! builds of the same code, this constant holds across code changes. Any
//! change to the Sobol' point stream, the per-point characterization (netlist,
//! solver override, sweep, fit), the order records are kept in, or the η
//! bounds moves it; a deliberate numeric change must re-record it and say why.

use pnc_linalg::ParallelConfig;
use pnc_spice::{DcSolver, FaultInjection};
use pnc_surrogate::{build_dataset, CircuitDataset, DatasetConfig};

/// Sample indices whose sweeps fail unrecoverably at `V_in = 0.5`.
const BAD: &[usize] = &[3, 17, 22];

const DATASET_FNV: u64 = 0x07d1_7679_b057_c9b5;

fn faulting_solver(index: usize) -> DcSolver {
    let mut solver = DcSolver::new();
    if BAD.contains(&index) {
        solver.fault_injection = Some(FaultInjection::unrecoverable_at(vec![0.5]));
    }
    solver
}

/// 40 points on a 21-point sweep grid, tolerating up to 20 % failures.
fn build(parallel: ParallelConfig) -> CircuitDataset {
    let config = DatasetConfig {
        parallel,
        max_failure_fraction: 0.2,
        ..DatasetConfig::new(40, 21)
    };
    build_dataset(&config, Some(&faulting_solver)).expect("the pinned build succeeds")
}

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn floats(hash: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(hash, |h, v| fnv1a64(h, &v.to_bits().to_le_bytes()))
}

fn digest(data: &CircuitDataset) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    hash = fnv1a64(hash, &(data.entries.len() as u64).to_le_bytes());
    for e in &data.entries {
        hash = floats(hash, &e.omega);
        hash = floats(hash, &e.eta);
        hash = floats(hash, &[e.fit_rmse]);
    }
    hash = fnv1a64(hash, &(data.failures.len() as u64).to_le_bytes());
    for f in &data.failures {
        hash = fnv1a64(hash, &(f.index as u64).to_le_bytes());
        hash = fnv1a64(hash, format!("{:?}", f.stage).as_bytes());
        hash = floats(hash, &f.omega);
        hash = fnv1a64(hash, f.cause.as_bytes());
    }
    hash = floats(hash, &data.eta_bounds.lo);
    floats(hash, &data.eta_bounds.hi)
}

#[test]
fn in_memory_dataset_is_pinned() {
    for threads in [1usize, 2] {
        let parallel = if threads == 1 {
            ParallelConfig::serial()
        } else {
            ParallelConfig::with_threads(threads)
        };
        let data = build(parallel);
        assert_eq!(data.failures.len(), BAD.len(), "at {threads} thread(s)");
        assert_eq!(
            digest(&data),
            DATASET_FNV,
            "dataset digest at {threads} thread(s): {:#018x}",
            digest(&data)
        );
    }
}
