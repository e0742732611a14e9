//! Netlists of the paper's nonlinear subcircuits.
//!
//! Fig. 1 (right) of the paper shows the inverter-based nonlinear circuit: an
//! input voltage divider, two cascaded EGT inverter stages and an inter-stage
//! divider. Its physical parameterization is
//! ω = \[R1ᴺ, R2ᴺ, R3ᴺ, R4ᴺ, R5ᴺ, W, L\] (Tab. I). This module builds the
//! corresponding [`Circuit`]s:
//!
//! * [`PtanhCircuit`] — the two-stage tanh-like activation circuit. Rising,
//!   saturating transfer curve `V_a = ptanh(V_z)` (Eq. 2).
//! * The *negative weight* circuit is, as in the paper ("as a shortcut, we
//!   use the same circuit as ptanh circuit"), the same netlist; its
//!   mathematical model is the negated transfer function (Eq. 3), which the
//!   fitting layer in `pnc-fit` expresses as a ptanh with negated η₁, η₂.
//!
//! Topology (node names as in the code):
//!
//! ```text
//!  V_in ──R1──┬── g1 (gate T1)         V_DD ──R5──┬── d1
//!             R2                                   │ drain
//!             │                             T1 (W/L)│  gate = g1
//!            GND                                   ─┴─ GND
//!
//!  d1 ──R3──┬── g2 (gate T2)           V_DD ──R_L2──┬── out
//!           R4                                       │ drain
//!           │                                 T2 (W/L)│  gate = g2
//!          GND                                       ─┴─ GND
//! ```
//!
//! The two dividers realize the ratio constraints of Tab. I (`R1 > R2`,
//! `R3 > R4`): if a divider's series resistor did not dominate, its ratio
//! would no longer be approximately constant under the loading of the
//! surrounding stages. The second stage load `R_L2` is a fixed process
//! constant ([`SECOND_STAGE_LOAD_OHMS`]) — the paper's schematic has a
//! corresponding fixed supply element that is not part of ω.

use crate::{sweep, Circuit, DcSolver, DeviceId, EgtModel, Node, SpiceError, GROUND};
use serde::{Deserialize, Serialize};

/// Supply voltage of the printed circuits, in volts.
pub const VDD: f64 = 1.0;

/// Fixed load resistance of the second inverter stage, in ohms.
pub const SECOND_STAGE_LOAD_OHMS: f64 = 200_000.0;

/// Physical parameterization ω of a nonlinear circuit (Tab. I).
///
/// Resistances are in ohms, geometry in meters.
///
/// # Examples
///
/// ```
/// use pnc_spice::circuits::NonlinearCircuitParams;
///
/// let omega = NonlinearCircuitParams::nominal();
/// assert!(omega.r1 > omega.r2); // divider constraint of Tab. I
/// assert!(omega.r3 > omega.r4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NonlinearCircuitParams {
    /// Input divider series resistor R1ᴺ (Ω).
    pub r1: f64,
    /// Input divider shunt resistor R2ᴺ (Ω); must satisfy `r2 < r1`.
    pub r2: f64,
    /// Inter-stage divider series resistor R3ᴺ (Ω).
    pub r3: f64,
    /// Inter-stage divider shunt resistor R4ᴺ (Ω); must satisfy `r4 < r3`.
    pub r4: f64,
    /// First-stage load resistor R5ᴺ (Ω).
    pub r5: f64,
    /// Transistor channel width W (m), shared by both stages.
    pub w: f64,
    /// Transistor channel length L (m), shared by both stages.
    pub l: f64,
}

impl NonlinearCircuitParams {
    /// A mid-range parameterization used as the *fixed* (non-learnable)
    /// nonlinear circuit: the design prior work would have used for every
    /// task.
    pub fn nominal() -> Self {
        NonlinearCircuitParams {
            r1: 200.0,
            r2: 100.0,
            r3: 300_000.0,
            r4: 150_000.0,
            r5: 100_000.0,
            w: 800e-6,
            l: 20e-6,
        }
    }

    /// The parameters as the 7-vector `[r1, r2, r3, r4, r5, w, l]` in SI
    /// units, the layout used throughout the surrogate pipeline.
    pub fn to_array(self) -> [f64; 7] {
        [self.r1, self.r2, self.r3, self.r4, self.r5, self.w, self.l]
    }

    /// Builds parameters from the 7-vector layout of [`Self::to_array`].
    pub fn from_array(a: [f64; 7]) -> Self {
        NonlinearCircuitParams {
            r1: a[0],
            r2: a[1],
            r3: a[2],
            r4: a[3],
            r5: a[4],
            w: a[5],
            l: a[6],
        }
    }

    /// Validates positivity and the Tab. I inequality constraints.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] naming the first violated
    /// component.
    pub fn validate(&self) -> Result<(), SpiceError> {
        let checks: [(&'static str, f64); 7] = [
            ("r1", self.r1),
            ("r2", self.r2),
            ("r3", self.r3),
            ("r4", self.r4),
            ("r5", self.r5),
            ("w", self.w),
            ("l", self.l),
        ];
        for (name, v) in checks {
            if !(v.is_finite() && v > 0.0) {
                return Err(SpiceError::InvalidValue {
                    device: name,
                    value: v,
                });
            }
        }
        if self.r2 >= self.r1 {
            return Err(SpiceError::InvalidValue {
                device: "r2 (must be < r1)",
                value: self.r2,
            });
        }
        if self.r4 >= self.r3 {
            return Err(SpiceError::InvalidValue {
                device: "r4 (must be < r3)",
                value: self.r4,
            });
        }
        Ok(())
    }
}

/// A built ptanh circuit ready for DC analysis.
///
/// # Examples
///
/// ```
/// use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit};
///
/// # fn main() -> Result<(), pnc_spice::SpiceError> {
/// let mut ckt = PtanhCircuit::build(&NonlinearCircuitParams::nominal())?;
/// let curve = ckt.transfer_curve(&pnc_spice::sweep::linspace(0.0, 1.0, 21))?;
/// assert_eq!(curve.len(), 21);
/// // Rising, bounded transfer curve.
/// assert!(curve.first().unwrap().1 < curve.last().unwrap().1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PtanhCircuit {
    circuit: Circuit,
    vin: DeviceId,
    out: Node,
    solver: DcSolver,
}

impl PtanhCircuit {
    /// Builds the two-stage nonlinear circuit for the given physical
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidValue`] if the parameters violate the
    /// Tab. I constraints.
    pub fn build(params: &NonlinearCircuitParams) -> Result<Self, SpiceError> {
        params.validate()?;
        let egt = EgtModel::printed(params.w, params.l);

        let mut c = Circuit::new();
        let vdd = c.new_node();
        let vin_node = c.new_node();
        let g1 = c.new_node();
        let d1 = c.new_node();
        let g2 = c.new_node();
        let out = c.new_node();

        c.vsource(vdd, GROUND, VDD)?;
        let vin = c.vsource(vin_node, GROUND, 0.0)?;

        // Input divider.
        c.resistor(vin_node, g1, params.r1)?;
        c.resistor(g1, GROUND, params.r2)?;

        // First inverter: load R5, EGT pull-down.
        c.resistor(vdd, d1, params.r5)?;
        c.egt(d1, g1, GROUND, egt)?;

        // Inter-stage divider.
        c.resistor(d1, g2, params.r3)?;
        c.resistor(g2, GROUND, params.r4)?;

        // Second inverter with the fixed process load.
        c.resistor(vdd, out, SECOND_STAGE_LOAD_OHMS)?;
        c.egt(out, g2, GROUND, egt)?;

        Ok(PtanhCircuit {
            circuit: c,
            vin,
            out,
            solver: DcSolver::new(),
        })
    }

    /// The output voltage for a single input voltage.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn output_at(&mut self, v_in: f64) -> Result<f64, SpiceError> {
        self.circuit.set_vsource(self.vin, v_in)?;
        Ok(self.solver.solve(&self.circuit)?.voltage(self.out))
    }

    /// Sweeps the input over `v_in` and returns `(V_in, V_out)` pairs — the
    /// characteristic curve the surrogate pipeline fits ptanh parameters to.
    ///
    /// # Errors
    ///
    /// Propagates solver failures at any sweep point.
    pub fn transfer_curve(&mut self, v_in: &[f64]) -> Result<Vec<(f64, f64)>, SpiceError> {
        let sols = sweep::dc_sweep(&mut self.circuit, self.vin, v_in, &self.solver)?;
        Ok(v_in
            .iter()
            .zip(sols)
            .map(|(&v, sol)| (v, sol.voltage(self.out)))
            .collect())
    }

    /// Like [`transfer_curve`](Self::transfer_curve), but returns the full
    /// [`Solution`](crate::Solution) per sweep point so callers can inspect
    /// [`SolveDiagnostics`](crate::SolveDiagnostics) — iterations,
    /// factorizations, recovery rungs — across the sweep. The bench harness
    /// uses this to report iterations-per-factorization of the
    /// Jacobian-reuse solver on the paper's Fig. 3 transfer curves.
    ///
    /// # Errors
    ///
    /// Propagates solver failures at any sweep point.
    pub fn transfer_curve_solutions(
        &mut self,
        v_in: &[f64],
    ) -> Result<Vec<crate::Solution>, SpiceError> {
        sweep::dc_sweep(&mut self.circuit, self.vin, v_in, &self.solver)
    }

    /// Replaces the DC solver used for all subsequent analyses.
    ///
    /// The dataset builder uses this to install solvers with custom
    /// [`RecoveryPolicy`](crate::RecoveryPolicy) or (in tests) fault
    /// injection; everything else keeps the [`DcSolver::new`] default.
    pub fn set_solver(&mut self, solver: DcSolver) {
        self.solver = solver;
    }

    /// The DC solver currently used by this circuit.
    pub fn solver(&self) -> &DcSolver {
        &self.solver
    }

    /// Access to the underlying netlist (for inspection and tests).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The input voltage source the transfer-curve sweeps drive, for
    /// callers that step [`Self::circuit`] through their own solve loop.
    pub fn input_source(&self) -> DeviceId {
        self.vin
    }
}

/// Convenience: the characteristic curve of the circuit parameterized by
/// `params`, sampled on a uniform `n`-point grid over `[0, VDD]`.
///
/// # Errors
///
/// Propagates construction and solver failures.
///
/// # Examples
///
/// ```
/// use pnc_spice::circuits::{characteristic_curve, NonlinearCircuitParams};
///
/// let curve = characteristic_curve(&NonlinearCircuitParams::nominal(), 41)?;
/// assert_eq!(curve.len(), 41);
/// # Ok::<(), pnc_spice::SpiceError>(())
/// ```
pub fn characteristic_curve(
    params: &NonlinearCircuitParams,
    n: usize,
) -> Result<Vec<(f64, f64)>, SpiceError> {
    let mut ckt = PtanhCircuit::build(params)?;
    ckt.transfer_curve(&sweep::linspace(0.0, VDD, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_params_are_valid() {
        NonlinearCircuitParams::nominal().validate().unwrap();
    }

    #[test]
    fn validate_rejects_divider_violations() {
        let mut p = NonlinearCircuitParams::nominal();
        p.r2 = p.r1 + 1.0;
        assert!(p.validate().is_err());
        let mut p = NonlinearCircuitParams::nominal();
        p.r4 = p.r3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_nonpositive() {
        let mut p = NonlinearCircuitParams::nominal();
        p.w = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn array_round_trip() {
        let p = NonlinearCircuitParams::nominal();
        assert_eq!(NonlinearCircuitParams::from_array(p.to_array()), p);
    }

    #[test]
    fn transfer_curve_is_monotone_rising_and_bounded() {
        let curve = characteristic_curve(&NonlinearCircuitParams::nominal(), 51).unwrap();
        let mut prev = -1.0;
        for &(vin, vout) in &curve {
            assert!((0.0..=VDD).contains(&vin));
            assert!(
                (-1e-6..=VDD + 1e-6).contains(&vout),
                "output {vout} out of supply range"
            );
            assert!(vout >= prev - 1e-7, "curve must be non-decreasing");
            prev = vout;
        }
        // Two cascaded inversions: rising overall, with usable swing.
        let swing = curve.last().unwrap().1 - curve.first().unwrap().1;
        assert!(swing > 0.2, "swing too small: {swing}");
    }

    #[test]
    fn geometry_changes_the_curve() {
        let base = NonlinearCircuitParams::nominal();
        let mut wide = base;
        wide.w = 800e-6;
        wide.l = 10e-6;
        let a = characteristic_curve(&base, 21).unwrap();
        let b = characteristic_curve(&wide, 21).unwrap();
        let max_diff = a
            .iter()
            .zip(&b)
            .map(|((_, ya), (_, yb))| (ya - yb).abs())
            .fold(0.0_f64, f64::max);
        assert!(
            max_diff > 0.05,
            "W/L should reshape the curve, diff {max_diff}"
        );
    }

    #[test]
    fn divider_ratio_shifts_the_transition() {
        // A smaller input-divider ratio moves the transition to higher V_in.
        let mut steep = NonlinearCircuitParams::nominal();
        steep.r1 = 100.0;
        steep.r2 = 90.0; // ratio 0.47
        let mut shallow = NonlinearCircuitParams::nominal();
        shallow.r1 = 400.0;
        shallow.r2 = 50.0; // ratio 0.11

        let mid = |params: &NonlinearCircuitParams| -> f64 {
            let curve = characteristic_curve(params, 101).unwrap();
            let lo = curve.first().unwrap().1;
            let hi = curve.last().unwrap().1;
            let target = 0.5 * (lo + hi);
            curve
                .iter()
                .find(|&&(_, v)| v >= target)
                .map(|&(vin, _)| vin)
                .unwrap_or(1.0)
        };

        assert!(
            mid(&steep) < mid(&shallow),
            "transition should move right as the divider ratio shrinks"
        );
    }

    #[test]
    fn output_at_matches_sweep() {
        let p = NonlinearCircuitParams::nominal();
        let mut ckt = PtanhCircuit::build(&p).unwrap();
        let single = ckt.output_at(0.6).unwrap();
        let curve = characteristic_curve(&p, 6).unwrap();
        // 0.6 is the 4th point of linspace(0, 1, 6).
        assert!((curve[3].0 - 0.6).abs() < 1e-12);
        assert!((curve[3].1 - single).abs() < 1e-6);
    }
}
