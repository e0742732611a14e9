//! Hardware-in-the-loop validation: run a trained pNN's inference at
//! *circuit level* and measure the model-to-hardware gap.
//!
//! The pNN abstraction (Eq. 1 + surrogate η curves) makes three
//! approximations relative to the printed hardware:
//!
//! 1. the crossbar is assumed to implement the ideal normalized weighted
//!    sum (exact by Kirchhoff, but worth verifying end-to-end),
//! 2. the activation/negative-weight behavior comes from the *surrogate
//!    network* η̂(ω) rather than the circuit itself,
//! 3. stages are assumed ideally buffered.
//!
//! [`HardwareSimulator`] re-runs inference with (1) exact MNA solves of
//! every crossbar (via `pnc-spice`) and (2) the nonlinear circuits
//! characterized by *direct DC simulation* of their netlists (a dense
//! tabulated sweep, like a measured response), keeping only assumption (3).
//! Comparing against [`Pnn::infer`](crate::Pnn::infer) therefore isolates
//! the surrogate approximation error — the quantity a designer must budget
//! before printing.
//!
//! # Examples
//!
//! ```no_run
//! # use pnc_core::{hardware::HardwareSimulator, Pnn};
//! # use pnc_linalg::Matrix;
//! # fn check(pnn: &Pnn, x: &Matrix) -> Result<(), pnc_core::PnnError> {
//! let hw = HardwareSimulator::new();
//! let report = hw.model_hardware_gap(pnn, x)?;
//! println!(
//!     "max output-voltage gap {:.4} V, prediction agreement {:.1} %",
//!     report.max_voltage_gap,
//!     report.prediction_agreement * 100.0
//! );
//! # Ok(())
//! # }
//! ```

use crate::network::Pnn;
use crate::PnnError;
use pnc_fit::Ptanh;
use pnc_linalg::Matrix;
use pnc_spice::circuits::{NonlinearCircuitParams, PtanhCircuit, VDD};
use pnc_spice::sweep::linspace;
use pnc_spice::{Circuit, DcSolver, GROUND};
use serde::{Deserialize, Serialize};

/// A nonlinear circuit characterized by direct simulation: a dense
/// tabulated transfer curve with linear interpolation, plus the mid-level
/// used to derive the complementary (negative-weight) output.
#[derive(Debug, Clone, PartialEq)]
struct TabulatedCircuit {
    /// Input grid (uniform over the supply range).
    inputs: Vec<f64>,
    /// Simulated outputs.
    outputs: Vec<f64>,
    /// Mid level `η₁` of the ptanh fit, the mirror point of the
    /// complementary output.
    mid: f64,
}

impl TabulatedCircuit {
    fn characterize(omega: &[f64; 7], points: usize) -> Result<Self, PnnError> {
        let params = NonlinearCircuitParams::from_array(*omega);
        let mut circuit = PtanhCircuit::build(&params).map_err(spice_err)?;
        let grid = linspace(0.0, VDD, points);
        let curve = circuit.transfer_curve(&grid).map_err(spice_err)?;
        let fit = pnc_fit::fit_ptanh(&curve).map_err(|e| PnnError::Data {
            detail: format!("hardware characterization fit failed: {e}"),
        })?;
        Ok(TabulatedCircuit {
            inputs: curve.iter().map(|p| p.0).collect(),
            outputs: curve.iter().map(|p| p.1).collect(),
            mid: fit.curve.eta[0],
        })
    }

    /// Linear interpolation of the measured response (clamped at the ends).
    fn eval(&self, v: f64) -> f64 {
        let n = self.inputs.len();
        if v <= self.inputs[0] {
            return self.outputs[0];
        }
        if v >= self.inputs[n - 1] {
            return self.outputs[n - 1];
        }
        let step = self.inputs[1] - self.inputs[0];
        let idx = ((v - self.inputs[0]) / step).floor() as usize;
        let idx = idx.min(n - 2);
        let t = (v - self.inputs[idx]) / step;
        self.outputs[idx] * (1.0 - t) + self.outputs[idx + 1] * t
    }

    /// The complementary (falling) output used for negative weights:
    /// the measured curve mirrored around its fitted mid level (see the
    /// sign-convention discussion on [`apply_inv`](crate::apply_inv)).
    fn eval_inv(&self, v: f64) -> f64 {
        2.0 * self.mid - self.eval(v)
    }

    /// The curve as a fitted [`Ptanh`], for reporting.
    fn fitted(&self) -> Result<Ptanh, PnnError> {
        let pts: Vec<(f64, f64)> = self
            .inputs
            .iter()
            .zip(&self.outputs)
            .map(|(&a, &b)| (a, b))
            .collect();
        Ok(pnc_fit::fit_ptanh(&pts)
            .map_err(|e| PnnError::Data {
                detail: format!("fit failed: {e}"),
            })?
            .curve)
    }
}

fn spice_err(e: pnc_spice::SpiceError) -> PnnError {
    PnnError::Data {
        detail: format!("circuit-level simulation failed: {e}"),
    }
}

/// The model-vs-hardware comparison produced by
/// [`HardwareSimulator::model_hardware_gap`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapReport {
    /// Largest absolute output-voltage difference over all samples and
    /// output neurons.
    pub max_voltage_gap: f64,
    /// Mean absolute output-voltage difference.
    pub mean_voltage_gap: f64,
    /// Fraction of samples where both paths predict the same class.
    pub prediction_agreement: f64,
    /// Number of samples compared.
    pub samples: usize,
}

/// Circuit-level inference engine for trained pNNs.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSimulator {
    /// Siemens per surrogate-conductance unit. The pNN math is
    /// scale-invariant, so this only anchors the printed resistor values
    /// (θ = 1 ↦ 100 kΩ at the default 10 µS).
    pub g_unit: f64,
    /// Grid points of the tabulated circuit characterization.
    pub sweep_points: usize,
}

impl Default for HardwareSimulator {
    fn default() -> Self {
        HardwareSimulator {
            g_unit: 1e-5,
            sweep_points: 201,
        }
    }
}

impl HardwareSimulator {
    /// Creates a simulator with default settings.
    pub fn new() -> Self {
        HardwareSimulator::default()
    }

    /// Solves one crossbar output voltage exactly by MNA: every printed
    /// conductance becomes a physical resistor and Kirchhoff does the
    /// weighted sum (Eq. 1 emerges, it is not assumed).
    fn crossbar_output(
        &self,
        inputs: &[f64],
        conductances: &[f64],
        bias_g: f64,
        gd_g: f64,
    ) -> Result<f64, PnnError> {
        let mut ckt = Circuit::new();
        let z = ckt.new_node();
        for (&v, &g) in inputs.iter().zip(conductances) {
            if g <= 0.0 {
                continue; // not printed
            }
            let n = ckt.new_node();
            ckt.vsource(n, GROUND, v).map_err(spice_err)?;
            ckt.resistor(n, z, 1.0 / (g * self.g_unit))
                .map_err(spice_err)?;
        }
        if bias_g > 0.0 {
            let n = ckt.new_node();
            ckt.vsource(n, GROUND, VDD).map_err(spice_err)?;
            ckt.resistor(n, z, 1.0 / (bias_g * self.g_unit))
                .map_err(spice_err)?;
        }
        if gd_g > 0.0 {
            ckt.resistor(z, GROUND, 1.0 / (gd_g * self.g_unit))
                .map_err(spice_err)?;
        }
        let sol = DcSolver::new().solve(&ckt).map_err(spice_err)?;
        Ok(sol.voltage(z))
    }

    /// Runs circuit-level inference: tabulated nonlinear circuits, exact
    /// crossbar solves, buffered stages.
    ///
    /// # Errors
    ///
    /// Propagates simulation, fitting and shape failures.
    pub fn infer(&self, pnn: &Pnn, x: &Matrix) -> Result<Matrix, PnnError> {
        let config = pnn.config();
        // Characterize each printed circuit pair once.
        let tables: Vec<(TabulatedCircuit, TabulatedCircuit)> = pnn
            .circuits()
            .iter()
            .map(|(act, inv)| {
                Ok((
                    TabulatedCircuit::characterize(&act.printable_omega(), self.sweep_points)?,
                    TabulatedCircuit::characterize(&inv.printable_omega(), self.sweep_points)?,
                ))
            })
            .collect::<Result<_, PnnError>>()?;

        let batch = x.rows();
        let mut h = x.clone();
        let last = pnn.num_layers() - 1;
        for (layer_idx, layer) in pnn.layers().iter().enumerate() {
            let printable = layer.printable_conductances(config.g_min, config.g_max);
            let (rows, outs) = printable.shape();
            let in_dim = rows - 2;
            // Base circuit-pair index for this layer; per-neuron adds j.
            let pair_base = match config.granularity {
                crate::NonlinearityGranularity::Shared => 0,
                crate::NonlinearityGranularity::PerLayer => layer_idx,
                crate::NonlinearityGranularity::PerNeuron => {
                    pnn.layers()[..layer_idx].iter().map(|l| l.out_dim()).sum()
                }
            };

            let mut next = Matrix::zeros(batch, outs);
            for s in 0..batch {
                for j in 0..outs {
                    let pair = if config.granularity == crate::NonlinearityGranularity::PerNeuron {
                        pair_base + j
                    } else {
                        pair_base
                    };
                    let (act_table, inv_table) = &tables[pair];
                    // Route each input through the negative-weight circuit
                    // when its conductance was printed on the inverting tap.
                    let mut voltages = Vec::with_capacity(in_dim + 1);
                    let mut conds = Vec::with_capacity(in_dim + 1);
                    for i in 0..in_dim {
                        let theta = printable[(i, j)];
                        let v_in = h[(s, i)];
                        voltages.push(if theta < 0.0 {
                            inv_table.eval_inv(v_in)
                        } else {
                            v_in
                        });
                        conds.push(theta.abs());
                    }
                    // Bias row: may also be inverted.
                    let theta_b = printable[(in_dim, j)];
                    let (bias_v, bias_g) = if theta_b < 0.0 {
                        (inv_table.eval_inv(VDD), theta_b.abs())
                    } else {
                        (VDD, theta_b)
                    };
                    if bias_v != VDD && bias_g > 0.0 {
                        // Inverted bias: treat as a regular input at the
                        // inverted voltage.
                        voltages.push(bias_v);
                        conds.push(bias_g);
                    }
                    let effective_bias = if bias_v == VDD { bias_g } else { 0.0 };
                    let gd_g = printable[(in_dim + 1, j)].abs();
                    let z = self.crossbar_output(&voltages, &conds, effective_bias, gd_g)?;
                    let apply_act = layer_idx < last || config.activation_on_output;
                    next[(s, j)] = if apply_act { act_table.eval(z) } else { z };
                }
            }
            h = next;
        }
        Ok(h)
    }

    /// Compares abstract-pNN inference with circuit-level inference.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn model_hardware_gap(&self, pnn: &Pnn, x: &Matrix) -> Result<GapReport, PnnError> {
        let model = pnn.infer(x, None)?;
        let hardware = self.infer(pnn, x)?;
        let (batch, outs) = model.shape();
        let mut max_gap = 0.0_f64;
        let mut total_gap = 0.0;
        let mut agree = 0usize;
        for s in 0..batch {
            let mut best_model = 0;
            let mut best_hw = 0;
            for j in 0..outs {
                let gap = (model[(s, j)] - hardware[(s, j)]).abs();
                max_gap = max_gap.max(gap);
                total_gap += gap;
                if model[(s, j)] > model[(s, best_model)] {
                    best_model = j;
                }
                if hardware[(s, j)] > hardware[(s, best_hw)] {
                    best_hw = j;
                }
            }
            if best_model == best_hw {
                agree += 1;
            }
        }
        Ok(GapReport {
            max_voltage_gap: max_gap,
            mean_voltage_gap: total_gap / (batch * outs) as f64,
            prediction_agreement: agree as f64 / batch as f64,
            samples: batch,
        })
    }

    /// Reports, per circuit pair, the fitted η of the *simulated* circuit
    /// next to the surrogate's prediction — the per-circuit view of the
    /// surrogate gap.
    ///
    /// # Errors
    ///
    /// Propagates simulation and fitting failures.
    pub fn circuit_etas(&self, pnn: &Pnn) -> Result<Vec<(Ptanh, [f64; 4])>, PnnError> {
        pnn.circuits()
            .iter()
            .flat_map(|(a, i)| [a, i])
            .map(|c| {
                let omega = c.printable_omega();
                let table = TabulatedCircuit::characterize(&omega, self.sweep_points)?;
                Ok((table.fitted()?, pnn.surrogate().predict_eta(&omega)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PnnConfig;
    use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig};
    use std::sync::Arc;

    fn quick_pnn() -> Pnn {
        let data = build_dataset(&DatasetConfig::new(200, 41), None).unwrap();
        let surrogate = Arc::new(
            train_surrogate(
                &data,
                &pnc_surrogate::TrainConfig {
                    layer_sizes: vec![10, 9, 7, 5, 4],
                    max_epochs: 800,
                    patience: 200,
                    ..pnc_surrogate::TrainConfig::default()
                },
            )
            .unwrap()
            .0,
        );
        Pnn::new(PnnConfig::for_dataset(3, 2), surrogate).unwrap()
    }

    #[test]
    fn tabulated_interpolation_matches_simulation() {
        let omega = NonlinearCircuitParams::nominal().to_array();
        let table = TabulatedCircuit::characterize(&omega, 201).unwrap();
        let mut circuit = PtanhCircuit::build(&NonlinearCircuitParams::from_array(omega)).unwrap();
        for k in 0..10 {
            let v = 0.05 + 0.09 * k as f64;
            let direct = circuit.output_at(v).unwrap();
            let interp = table.eval(v);
            assert!(
                (direct - interp).abs() < 2e-3,
                "interpolation error {} at {v}",
                (direct - interp).abs()
            );
        }
        // Clamping beyond the grid.
        assert_eq!(table.eval(-1.0), table.outputs[0]);
        assert_eq!(table.eval(2.0), *table.outputs.last().unwrap());
    }

    #[test]
    fn crossbar_output_matches_eq1() {
        let hw = HardwareSimulator::new();
        let inputs = [0.8, 0.3];
        let conds = [0.2, 0.5];
        let (bias_g, gd_g) = (0.1, 0.3);
        let z = hw.crossbar_output(&inputs, &conds, bias_g, gd_g).unwrap();
        let g_total = 0.2 + 0.5 + 0.1 + 0.3;
        let expected = (0.2 * 0.8 + 0.5 * 0.3 + 0.1 * 1.0) / g_total;
        // The solver's gmin safety conductance perturbs the ideal value at
        // the 1e-7 level.
        assert!((z - expected).abs() < 1e-6, "{z} vs {expected}");
    }

    #[test]
    fn zero_conductances_are_not_printed() {
        let hw = HardwareSimulator::new();
        // Only gd printed: node floats to ground through gd.
        let z = hw.crossbar_output(&[0.9], &[0.0], 0.0, 0.5).unwrap();
        assert!(z.abs() < 1e-9);
    }

    #[test]
    fn hardware_inference_is_close_to_model() {
        let pnn = quick_pnn();
        let x = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) % 7) as f64 / 6.0);
        let hw = HardwareSimulator::new();
        let report = hw.model_hardware_gap(&pnn, &x).unwrap();
        assert_eq!(report.samples, 6);
        // The gap is the surrogate approximation error. The quick test
        // surrogate is deliberately coarse, so only sanity-bound it here;
        // the workspace integration tests check the production surrogate's
        // gap tightly.
        assert!(
            report.max_voltage_gap < 0.9,
            "unexpectedly large hardware gap: {report:?}"
        );
        assert!(
            report.mean_voltage_gap < 0.2,
            "mean gap too large: {report:?}"
        );
        assert!(report.mean_voltage_gap <= report.max_voltage_gap);
        assert!(report.prediction_agreement >= 0.5);
    }

    #[test]
    fn circuit_etas_pairs_simulation_and_surrogate() {
        let pnn = quick_pnn();
        let hw = HardwareSimulator::new();
        let etas = hw.circuit_etas(&pnn).unwrap();
        assert_eq!(etas.len(), pnn.num_circuits());
        for (fitted, predicted) in etas {
            // Both describe the same physical circuit; the curves should
            // agree to within the surrogate tolerance at the midpoint.
            let p = Ptanh { eta: predicted };
            let gap = (fitted.eval(0.5) - p.eval(0.5)).abs();
            assert!(gap < 0.4, "midpoint gap {gap}");
        }
    }
}
