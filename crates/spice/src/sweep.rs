//! DC sweep analysis with warm-started continuation.
//!
//! The surrogate-modelling pipeline characterizes each sampled nonlinear
//! circuit by its DC transfer curve `V_in ↦ V_out`. A sweep steps one input
//! voltage source across a grid and re-solves the operating point, reusing
//! the previous solution as the Newton starting guess — the standard
//! continuation trick that keeps the solver fast and on the same solution
//! branch.

use crate::{Circuit, DcSolver, DeviceId, NewtonCache, Solution, SpiceError};

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
    // `DcSolver::solve_with_cache`). The cache also carries the Newton
    // loop's buffers, so the sweep allocates them once; each point starts
    // from the node voltages of the solution before it.
    let mut cache = NewtonCache::new();
    let mut out: Vec<Solution> = Vec::with_capacity(values.len());
    for &v in values {
        circuit.set_vsource(source, v)?;
        let guess = out.last().map(|prev| &prev.voltages()[1..]);
        let sol = solver.solve_with_cache(circuit, guess, &mut cache)?;
        out.push(sol);
    }
    Ok(out)
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
    fn sweep_rejects_non_source() {
        let mut c = Circuit::new();
        let n = c.new_node();
        let r = c.resistor(n, GROUND, 10.0).unwrap();
        assert!(dc_sweep(&mut c, r, &[0.0], &DcSolver::new()).is_err());
    }
}
