//! DC sweep analysis with warm-started continuation.
//!
//! The surrogate-modelling pipeline characterizes each sampled nonlinear
//! circuit by its DC transfer curve `V_in ↦ V_out`. A sweep steps one input
//! voltage source across a grid and re-solves the operating point, reusing
//! the previous solution as the Newton starting guess — the standard
//! continuation trick that keeps the solver fast and on the same solution
//! branch.

use crate::{Circuit, DcSolver, DeviceId, NewtonCache, Solution, SpiceError};
use pnc_linalg::ParallelConfig;

/// Sweeps the voltage source `source` over `values` and returns the solution
/// at every step, in order.
///
/// The circuit is mutated during the sweep; on return the source holds the
/// last value of `values`.
///
/// # Errors
///
/// Propagates [`SpiceError::BadDeviceRef`] if `source` is not a voltage
/// source, plus any solver error at an individual step.
///
/// # Examples
///
/// ```
/// use pnc_spice::{Circuit, DcSolver, GROUND, sweep::dc_sweep};
///
/// # fn main() -> Result<(), pnc_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.new_node();
/// let out = ckt.new_node();
/// let src = ckt.vsource(vin, GROUND, 0.0)?;
/// ckt.resistor(vin, out, 1_000.0)?;
/// ckt.resistor(out, GROUND, 1_000.0)?;
/// let sols = dc_sweep(&mut ckt, src, &[0.0, 0.5, 1.0], &DcSolver::new())?;
/// assert!((sols[2].voltage(out) - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn dc_sweep(
    circuit: &mut Circuit,
    source: DeviceId,
    values: &[f64],
    solver: &DcSolver,
) -> Result<Vec<Solution>, SpiceError> {
    // One modified-Newton cache across the whole continuation: consecutive
    // points warm-start near each other, so the factored Jacobian usually
    // carries over and iterations-per-factorization climbs above one (see
    // `DcSolver::solve_with_cache`).
    let mut cache = NewtonCache::new();
    let mut out = Vec::with_capacity(values.len());
    let mut guess: Option<Vec<f64>> = None;
    for &v in values {
        circuit.set_vsource(source, v)?;
        let sol = solver.solve_with_cache(circuit, guess.as_deref(), &mut cache)?;
        guess = Some(sol.voltages()[1..].to_vec());
        out.push(sol);
    }
    Ok(out)
}

/// Fixed chunk length for [`dc_sweep_parallel`].
///
/// Chunking is by this constant — never by thread count — so each chunk's
/// continuation path (cold Newton solve at its first point, then
/// nearest-neighbor warm starts) is the same no matter how many workers
/// run, keeping sweep results bit-identical across thread counts.
pub const SWEEP_CHUNK: usize = 16;

/// Like [`dc_sweep`], but fans fixed-size chunks of operating points out
/// over `parallel` worker threads, each on its own clone of the circuit.
///
/// Within a chunk, points warm-start from the previously solved neighbor
/// exactly as [`dc_sweep`] does; only the first point of each chunk starts
/// cold. Results come back in sweep order. Because the chunk boundaries are
/// fixed ([`SWEEP_CHUNK`]), the output is identical at every thread count —
/// though chunk-initial points may converge to (tolerance-level) different
/// values than a single full-continuation [`dc_sweep`] would produce.
///
/// The input circuit is not mutated.
///
/// # Errors
///
/// Same contract as [`dc_sweep`]; with multiple failing points the
/// lowest-index error is reported.
///
/// # Examples
///
/// ```
/// use pnc_linalg::ParallelConfig;
/// use pnc_spice::{Circuit, DcSolver, GROUND, sweep::dc_sweep_parallel};
///
/// # fn main() -> Result<(), pnc_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.new_node();
/// let out = ckt.new_node();
/// let src = ckt.vsource(vin, GROUND, 0.0)?;
/// ckt.resistor(vin, out, 1_000.0)?;
/// ckt.resistor(out, GROUND, 1_000.0)?;
/// let grid = pnc_spice::sweep::linspace(0.0, 1.0, 64);
/// let sols = dc_sweep_parallel(&ckt, src, &grid, &DcSolver::new(), &ParallelConfig::automatic())?;
/// assert_eq!(sols.len(), 64);
/// assert!((sols[63].voltage(out) - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn dc_sweep_parallel(
    circuit: &Circuit,
    source: DeviceId,
    values: &[f64],
    solver: &DcSolver,
    parallel: &ParallelConfig,
) -> Result<Vec<Solution>, SpiceError> {
    let chunks: Vec<&[f64]> = values.chunks(SWEEP_CHUNK).collect();
    let solved: Vec<Vec<Solution>> = parallel.try_ordered_par_map(&chunks, |chunk| {
        let mut local = circuit.clone();
        dc_sweep(&mut local, source, chunk, solver)
    })?;
    Ok(solved.into_iter().flatten().collect())
}

/// Returns `n` equally spaced grid points covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// let g = pnc_spice::sweep::linspace(0.0, 1.0, 5);
/// assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GROUND;

    #[test]
    fn linspace_endpoints_and_count() {
        let g = linspace(-1.0, 1.0, 11);
        assert_eq!(g.len(), 11);
        assert_eq!(g[0], -1.0);
        assert_eq!(*g.last().unwrap(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_rejects_single_point() {
        linspace(0.0, 1.0, 1);
    }

    #[test]
    fn sweep_tracks_source_value() {
        let mut c = Circuit::new();
        let n = c.new_node();
        let src = c.vsource(n, GROUND, 0.0).unwrap();
        c.resistor(n, GROUND, 10.0).unwrap();
        let vals = linspace(0.0, 1.0, 6);
        let sols = dc_sweep(&mut c, src, &vals, &DcSolver::new()).unwrap();
        for (sol, v) in sols.iter().zip(&vals) {
            assert!((sol.voltage(n) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_sweep_is_identical_across_thread_counts() {
        // A nonlinear network (EGT inverter) so Newton actually iterates.
        let mut c = Circuit::new();
        let vdd = c.new_node();
        let vin_node = c.new_node();
        let out = c.new_node();
        c.vsource(vdd, GROUND, 1.0).unwrap();
        let src = c.vsource(vin_node, GROUND, 0.0).unwrap();
        c.resistor(vdd, out, 100_000.0).unwrap();
        c.egt(
            out,
            vin_node,
            GROUND,
            crate::EgtModel::printed(400e-6, 40e-6),
        )
        .unwrap();
        let vals = linspace(0.0, 1.0, 70);
        let solver = DcSolver::new();
        let serial = dc_sweep_parallel(&c, src, &vals, &solver, &ParallelConfig::serial()).unwrap();
        assert_eq!(serial.len(), vals.len());
        for threads in [2, 3, 4, 8] {
            let parallel = dc_sweep_parallel(
                &c,
                src,
                &vals,
                &solver,
                &ParallelConfig::with_threads(threads),
            )
            .unwrap();
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.voltages(), b.voltages(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep_closely() {
        let mut c = Circuit::new();
        let n = c.new_node();
        let src = c.vsource(n, GROUND, 0.0).unwrap();
        c.resistor(n, GROUND, 10.0).unwrap();
        let vals = linspace(0.0, 1.0, 40);
        let solver = DcSolver::new();
        let full = dc_sweep(&mut c.clone(), src, &vals, &solver).unwrap();
        let chunked =
            dc_sweep_parallel(&c, src, &vals, &solver, &ParallelConfig::automatic()).unwrap();
        for (a, b) in full.iter().zip(&chunked) {
            assert!((a.voltage(n) - b.voltage(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_sweep_handles_empty_grid_and_leaves_input_untouched() {
        let mut c = Circuit::new();
        let n = c.new_node();
        let src = c.vsource(n, GROUND, 0.25).unwrap();
        c.resistor(n, GROUND, 10.0).unwrap();
        let before = c.clone();
        let sols = dc_sweep_parallel(&c, src, &[], &DcSolver::new(), &ParallelConfig::automatic())
            .unwrap();
        assert!(sols.is_empty());
        let grid = linspace(0.0, 1.0, 33);
        dc_sweep_parallel(
            &c,
            src,
            &grid,
            &DcSolver::new(),
            &ParallelConfig::automatic(),
        )
        .unwrap();
        assert_eq!(c, before, "input circuit must not be mutated");
    }

    #[test]
    fn sweep_rejects_non_source() {
        let mut c = Circuit::new();
        let n = c.new_node();
        let r = c.resistor(n, GROUND, 10.0).unwrap();
        assert!(dc_sweep(&mut c, r, &[0.0], &DcSolver::new()).is_err());
    }
}
