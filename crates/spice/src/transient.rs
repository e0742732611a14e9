//! Transient (time-domain) analysis with backward-Euler integration.
//!
//! Printed electronics is slow — the electrolyte gate of a printed EGT has
//! an enormous capacitance, which is why the paper's application domain is
//! low-frequency, near-sensor classification. This module quantifies that:
//! add [`Circuit::capacitor`]s to a netlist (e.g. gate capacitances) and
//! integrate the response to a stimulus over time.
//!
//! Backward Euler is unconditionally stable and first-order accurate — the
//! right trade-off for stiff RC networks with Newton-linearized transistors.
//!
//! # Examples
//!
//! RC step response:
//!
//! ```
//! use pnc_spice::{Circuit, TransientSolver, GROUND};
//!
//! # fn main() -> Result<(), pnc_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.new_node();
//! let out = ckt.new_node();
//! let src = ckt.vsource(vin, GROUND, 0.0)?;
//! ckt.resistor(vin, out, 1_000.0)?;
//! ckt.capacitor(out, GROUND, 1e-6)?;       // τ = 1 ms
//! let solver = TransientSolver::new(1e-5); // 10 µs steps
//! let wave = solver.simulate(&mut ckt, 5e-3, |t, c| {
//!     c.set_vsource(src, if t > 0.0 { 1.0 } else { 0.0 })
//! })?;
//! let final_v = wave.solutions.last().expect("steps").voltage(out);
//! assert!((final_v - 1.0).abs() < 0.01); // fully charged after 5τ
//! # Ok(())
//! # }
//! ```

use crate::{Circuit, DcSolver, Solution, SpiceError};

/// A simulated waveform: one solution per accepted timestep (the initial
/// operating point first, at `t = 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    /// Time of each stored point, in seconds.
    pub times: Vec<f64>,
    /// Circuit solution at each time.
    pub solutions: Vec<Solution>,
}

impl Waveform {
    /// The voltage waveform of one node.
    pub fn voltage_series(&self, node: crate::Node) -> Vec<(f64, f64)> {
        self.times
            .iter()
            .zip(&self.solutions)
            .map(|(&t, s)| (t, s.voltage(node)))
            .collect()
    }

    /// First time the node's voltage enters (and stays within) `tolerance`
    /// of its final value — a settling-time measurement.
    pub fn settling_time(&self, node: crate::Node, tolerance: f64) -> Option<f64> {
        let series = self.voltage_series(node);
        let target = series.last()?.1;
        let mut settled_at = None;
        for &(t, v) in &series {
            if (v - target).abs() <= tolerance {
                settled_at.get_or_insert(t);
            } else {
                settled_at = None;
            }
        }
        settled_at
    }
}

/// Fixed-step backward-Euler transient solver.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolver {
    /// Integration timestep in seconds.
    pub timestep: f64,
    /// The Newton engine used for each implicit step.
    pub dc: DcSolver,
}

impl TransientSolver {
    /// Creates a solver with the given fixed timestep.
    ///
    /// # Panics
    ///
    /// Panics if `timestep` is not positive and finite.
    pub fn new(timestep: f64) -> Self {
        assert!(
            timestep.is_finite() && timestep > 0.0,
            "timestep must be positive"
        );
        TransientSolver {
            timestep,
            dc: DcSolver::new(),
        }
    }

    /// Integrates the circuit over `duration` seconds.
    ///
    /// `stimulus(t, circuit)` runs before every step (including `t = 0`,
    /// whose result defines the initial DC operating point with capacitors
    /// open) and may update source values.
    ///
    /// # Errors
    ///
    /// Propagates stimulus and Newton failures.
    pub fn simulate(
        &self,
        circuit: &mut Circuit,
        duration: f64,
        mut stimulus: impl FnMut(f64, &mut Circuit) -> Result<(), SpiceError>,
    ) -> Result<Waveform, SpiceError> {
        stimulus(0.0, circuit)?;
        let initial = self.dc.solve(circuit)?;
        let mut prev_voltages = initial.voltages().to_vec();
        let mut times = vec![0.0];
        let mut solutions = vec![initial];

        let steps = (duration / self.timestep).ceil() as usize;
        for k in 1..=steps {
            let t = k as f64 * self.timestep;
            stimulus(t, circuit)?;
            let guess = prev_voltages[1..].to_vec();
            let sol = self.dc.solve_recovered(
                circuit,
                Some(&guess),
                Some((&prev_voltages, self.timestep)),
            )?;
            times.push(t);
            prev_voltages = sol.voltages().to_vec();
            solutions.push(sol);
        }
        Ok(Waveform { times, solutions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EgtModel, GROUND};

    #[test]
    fn rc_step_response_matches_analytic() {
        let r = 10_000.0;
        let c = 1e-7; // τ = 1 ms
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.new_node();
        let out = ckt.new_node();
        let src = ckt.vsource(vin, GROUND, 0.0).unwrap();
        ckt.resistor(vin, out, r).unwrap();
        ckt.capacitor(out, GROUND, c).unwrap();

        let solver = TransientSolver::new(tau / 200.0);
        let wave = solver
            .simulate(&mut ckt, 3.0 * tau, |t, c| {
                c.set_vsource(src, if t > 0.0 { 1.0 } else { 0.0 })
            })
            .unwrap();

        for (t, v) in wave.voltage_series(out) {
            if t == 0.0 {
                continue;
            }
            let expected = 1.0 - (-t / tau).exp();
            assert!(
                (v - expected).abs() < 0.01,
                "at t = {t}: {v} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn rc_discharge() {
        let mut ckt = Circuit::new();
        let out = ckt.new_node();
        let vin = ckt.new_node();
        let src = ckt.vsource(vin, GROUND, 1.0).unwrap();
        ckt.resistor(vin, out, 1_000.0).unwrap();
        ckt.capacitor(out, GROUND, 1e-6).unwrap();
        // Start charged (source at 1 V), then drop the source to 0.
        let solver = TransientSolver::new(1e-5);
        let wave = solver
            .simulate(&mut ckt, 5e-3, |t, c| {
                c.set_vsource(src, if t > 0.0 { 0.0 } else { 1.0 })
            })
            .unwrap();
        let series = wave.voltage_series(out);
        assert!((series.first().unwrap().1 - 1.0).abs() < 1e-6);
        assert!(series.last().unwrap().1 < 0.01);
        // Monotone discharge.
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
    }

    #[test]
    fn settling_time_of_rc_is_a_few_tau() {
        let tau = 1e-3;
        let mut ckt = Circuit::new();
        let vin = ckt.new_node();
        let out = ckt.new_node();
        let src = ckt.vsource(vin, GROUND, 0.0).unwrap();
        ckt.resistor(vin, out, 10_000.0).unwrap();
        ckt.capacitor(out, GROUND, tau / 10_000.0).unwrap();
        let wave = TransientSolver::new(tau / 100.0)
            .simulate(&mut ckt, 10.0 * tau, |t, c| {
                c.set_vsource(src, if t > 0.0 { 1.0 } else { 0.0 })
            })
            .unwrap();
        let settle = wave.settling_time(out, 0.01).expect("settles");
        // 1 % settling of an RC is ≈ 4.6 τ.
        assert!(
            (3.5 * tau..6.0 * tau).contains(&settle),
            "settling time {settle}"
        );
    }

    #[test]
    fn floating_capacitor_matches_backward_euler_recurrence() {
        // A high-pass RC whose capacitor has no grounded plate: a step
        // source drives one plate and R ties the other to ground. After the
        // step, backward Euler gives v_out,k = (τ / (τ + h))^k, and the
        // source delivers the resistor current v_out,k / R.
        let (r, c, h) = (10_000.0, 1e-7, 2e-5);
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.new_node();
        let out = ckt.new_node();
        let src = ckt.vsource(vin, GROUND, 0.0).unwrap();
        ckt.capacitor(vin, out, c).unwrap();
        ckt.resistor(out, GROUND, r).unwrap();

        let wave = TransientSolver::new(h)
            .simulate(&mut ckt, 20.0 * h, |t, c| {
                c.set_vsource(src, if t > 0.0 { 1.0 } else { 0.0 })
            })
            .unwrap();
        assert!(wave.solutions.len() >= 21);
        for (k, sol) in wave.solutions.iter().enumerate() {
            let expected = if k == 0 {
                0.0
            } else {
                (tau / (tau + h)).powi(k as i32)
            };
            let v = sol.voltage(out);
            assert!(
                (v - expected).abs() < 1e-8,
                "step {k}: {v} vs backward Euler {expected}"
            );
            let i = sol.source_current(0);
            assert!(
                (i + expected / r).abs() < 1e-10,
                "step {k}: source current {i} vs {}",
                -expected / r
            );
        }
    }

    #[test]
    fn loaded_inverter_with_gate_capacitance_settles_to_dc() {
        // An EGT inverter whose input is driven through an RC (the printed
        // gate capacitance): the transient must converge to the DC solution.
        let model = EgtModel::printed(600e-6, 20e-6);
        let build = || {
            let mut ckt = Circuit::new();
            let vdd = ckt.new_node();
            let drive = ckt.new_node();
            let gate = ckt.new_node();
            let out = ckt.new_node();
            ckt.vsource(vdd, GROUND, 1.0).unwrap();
            let src = ckt.vsource(drive, GROUND, 0.8).unwrap();
            ckt.resistor(drive, gate, 50_000.0).unwrap();
            ckt.capacitor(gate, GROUND, 1e-8).unwrap(); // printed gate cap
            ckt.resistor(vdd, out, 100_000.0).unwrap();
            ckt.egt(out, gate, GROUND, model).unwrap();
            (ckt, src, gate, out)
        };

        // DC reference with the gate fully settled.
        let (dc_ckt, _, _, dc_out) = build();
        let dc = DcSolver::new().solve(&dc_ckt).unwrap();

        let (mut ckt, src, _gate, out) = build();
        let wave = TransientSolver::new(2e-5)
            .simulate(&mut ckt, 5e-3, |t, c| {
                c.set_vsource(src, if t > 0.0 { 0.8 } else { 0.0 })
            })
            .unwrap();
        let final_v = wave.solutions.last().unwrap().voltage(out);
        assert!(
            (final_v - dc.voltage(dc_out)).abs() < 1e-3,
            "transient end {final_v} vs dc {}",
            dc.voltage(dc_out)
        );
        // The output takes a finite time to move: printed latency.
        let settle = wave.settling_time(out, 0.01).expect("settles");
        assert!(settle > 1e-4, "settling should be RC-limited, got {settle}");
    }

    #[test]
    #[should_panic(expected = "timestep must be positive")]
    fn rejects_bad_timestep() {
        TransientSolver::new(0.0);
    }

    #[test]
    fn capacitor_validation() {
        let mut c = Circuit::new();
        let n = c.new_node();
        assert!(c.capacitor(n, GROUND, 0.0).is_err());
        assert!(c.capacitor(n, GROUND, -1e-9).is_err());
        assert!(c.capacitor(n, GROUND, 1e-9).is_ok());
    }
}
