//! Experiments beyond the paper: the robustness curve with its
//! Gaussian-noise ablation, lifetime (aging) evaluation, the design-choice
//! ablations, and printed inference latency. Every training arm takes its
//! setup from [`Arm::train_config`] under the shared [`Budget`] and
//! overrides only its own field.

use crate::experiment::{fmt_stats, Arm, Budget, Setup};
use crate::runner::{strings, Markdown, Report};
use pnc_core::aging::{lifetime_accuracy, AgePoint, AgingAwareness, AgingModel};
use pnc_core::{LossKind, McStats, NonlinearityGranularity, PnnError, VariationModel};
use pnc_datasets::generators::{iris, seeds};
use pnc_spice::circuits::{NonlinearCircuitParams, SECOND_STAGE_LOAD_OHMS, VDD};
use pnc_spice::{Circuit, DeviceId, EgtModel, Node, SpiceError, TransientSolver, GROUND};
use pnc_surrogate::SurrogateModel;
use serde::Serialize;
use std::sync::Arc;

const BASELINE: Arm = Arm {
    learnable: false,
    variation_aware: false,
};
const FULL: Arm = Arm {
    learnable: true,
    variation_aware: true,
};

/// One test variation level of the robustness curve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPoint {
    /// Test variation level ε.
    pub epsilon: f64,
    /// Baseline (fixed circuit, nominal training) under uniform noise.
    pub baseline: McStats,
    /// Full method (trained at 10 %) under uniform noise.
    pub full: McStats,
    /// Full method under Gaussian noise of matched variance (σ = ε/√3).
    pub full_gaussian: McStats,
}

/// Accuracy vs printing variation ε ∈ [0, 0.2] on Iris.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RobustnessSweep {
    /// The dataset.
    pub dataset: String,
    /// One point per ε.
    pub points: Vec<SweepPoint>,
}

/// Trains the baseline and the full method (at ε = 10 %) on Iris and
/// evaluates both from ε = 0 (no noise) to 0.2 in steps of 0.025.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn robustness_sweep(
    surrogate: Arc<SurrogateModel>,
    budget: &Budget,
) -> Result<RobustnessSweep, PnnError> {
    let dataset = iris();
    let setup = Setup::new(&dataset, surrogate, budget);
    let baseline = setup.train_arm(BASELINE, 0.10)?;
    let full = setup.train_arm(FULL, 0.10)?;
    let mut points = Vec::new();
    for k in 0..=8 {
        let epsilon = 0.025 * k as f64;
        let (uniform, gaussian) = if k == 0 {
            (VariationModel::None, VariationModel::None)
        } else {
            (
                VariationModel::Uniform { epsilon },
                VariationModel::Gaussian {
                    sigma: epsilon / 3.0_f64.sqrt(),
                },
            )
        };
        points.push(SweepPoint {
            epsilon,
            baseline: setup.evaluate(&baseline, &uniform)?,
            full: setup.evaluate(&full, &uniform)?,
            full_gaussian: setup.evaluate(&full, &gaussian)?,
        });
    }
    Ok(RobustnessSweep {
        dataset: dataset.name,
        points,
    })
}

impl Report for RobustnessSweep {
    fn table(&self) -> Markdown {
        Markdown {
            title: format!(
                "Robustness curve on {}: baseline vs full method trained at ε = 10 %",
                self.dataset
            ),
            header: strings(["ε", "baseline", "full", "full, Gaussian noise"]),
            rows: self
                .points
                .iter()
                .map(|p| {
                    vec![
                        format!("{:.3}", p.epsilon),
                        fmt_stats(&p.baseline),
                        fmt_stats(&p.full),
                        fmt_stats(&p.full_gaussian),
                    ]
                })
                .collect(),
        }
    }
}

/// One training arm of the aging experiment and its lifetime curve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AgingArm {
    /// Arm label.
    pub name: &'static str,
    /// Accuracy at each age.
    pub curve: Vec<AgePoint>,
}

/// Lifetime evaluation on Seeds under exponential conductance decay.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Aging {
    /// The dataset.
    pub dataset: String,
    /// Decay rate per lifetime unit.
    pub rate: f64,
    /// The lifetime trained over and evaluated to.
    pub lifetime: f64,
    /// Printing variation in training and test.
    pub epsilon: f64,
    /// Nominal, variation-aware, and variation- plus aging-aware training.
    pub arms: Vec<AgingArm>,
}

/// Trains three learnable-circuit networks on Seeds (nominal,
/// variation-aware at 5 %, and variation- plus aging-aware) and sweeps
/// their accuracy over ages 0..=10 under exponential decay (rate 0.15) and
/// 5 % printing variation.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn aging(surrogate: Arc<SurrogateModel>, budget: &Budget) -> Result<Aging, PnnError> {
    let (rate, lifetime, epsilon) = (0.15, 10.0, 0.05);
    let model = AgingModel::Exponential { rate };
    let dataset = seeds();
    let setup = Setup::new(&dataset, surrogate, budget);
    let nominal = Arm {
        variation_aware: false,
        ..FULL
    };
    let aging_aware = pnc_core::TrainConfig {
        aging: Some(AgingAwareness { model, lifetime }),
        ..FULL.train_config(epsilon, budget)
    };
    let setups = [
        ("nominal", nominal.train_config(epsilon, budget)),
        ("variation-aware", FULL.train_config(epsilon, budget)),
        ("variation- + aging-aware", aging_aware),
    ];
    let ages: Vec<f64> = (0..=10).map(f64::from).collect();
    let mut arms = Vec::new();
    for (name, train_config) in setups {
        let pnn = setup.train(&FULL.pnn_config(&dataset), &train_config)?;
        let curve = lifetime_accuracy(
            &pnn,
            setup.test_data(),
            &model,
            &VariationModel::Uniform { epsilon },
            &ages,
            budget.n_test,
            budget.mc_seed,
        )?;
        arms.push(AgingArm { name, curve });
    }
    Ok(Aging {
        dataset: dataset.name,
        rate,
        lifetime,
        epsilon,
        arms,
    })
}

impl Report for Aging {
    fn table(&self) -> Markdown {
        let mut header = strings(["age", "mean decay"]);
        header.extend(self.arms.iter().map(|a| a.name.to_string()));
        let ages = self.arms.first().map_or(0, |a| a.curve.len());
        let rows = (0..ages)
            .map(|k| {
                let point = &self.arms[0].curve[k];
                let mut row = vec![format!("{:.0}", point.age), format!("{:.2}", point.decay)];
                row.extend(self.arms.iter().map(|a| fmt_stats(&a.curve[k].stats)));
                row
            })
            .collect();
        Markdown {
            title: format!(
                "Lifetime accuracy on {}: exponential decay (rate {}), ±{:.0} % printing variation",
                self.dataset,
                self.rate,
                self.epsilon * 100.0
            ),
            header,
            rows,
        }
    }
}

/// One design point of the ablations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationCase {
    /// What the case changes.
    pub name: &'static str,
    /// Test accuracy at the trained variation level.
    pub stats: McStats,
}

/// Design-choice ablations of the full method on Seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Ablations {
    /// The dataset.
    pub dataset: String,
    /// Train and test variation level.
    pub epsilon: f64,
    /// The default first.
    pub cases: Vec<AblationCase>,
}

/// Trains the full method on Seeds at ε = 10 % under five design points:
/// circuit-sharing granularity (shared, per layer, per neuron) and the loss
/// (margin 0.3, margin 0.1, softmax cross-entropy), and tests each at 10 %.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn ablations(surrogate: Arc<SurrogateModel>, budget: &Budget) -> Result<Ablations, PnnError> {
    use NonlinearityGranularity::{PerLayer, PerNeuron, Shared};
    let epsilon = 0.10;
    let dataset = seeds();
    let setup = Setup::new(&dataset, surrogate, budget);
    let margin = |margin| LossKind::Margin { margin };
    let cases: [(&str, NonlinearityGranularity, LossKind); 5] = [
        (
            "per-layer circuits, margin 0.3 (default)",
            PerLayer,
            margin(0.3),
        ),
        ("shared circuits, margin 0.3", Shared, margin(0.3)),
        ("per-neuron circuits, margin 0.3", PerNeuron, margin(0.3)),
        (
            "per-layer circuits, cross-entropy (T = 0.1)",
            PerLayer,
            LossKind::CrossEntropy { temperature: 0.1 },
        ),
        ("per-layer circuits, margin 0.1", PerLayer, margin(0.1)),
    ];
    let mut results = Vec::new();
    for (name, granularity, loss) in cases {
        let mut config = FULL.pnn_config(&dataset);
        config.granularity = granularity;
        let train_config = pnc_core::TrainConfig {
            loss,
            ..FULL.train_config(epsilon, budget)
        };
        let pnn = setup.train(&config, &train_config)?;
        let stats = setup.evaluate(&pnn, &VariationModel::Uniform { epsilon })?;
        results.push(AblationCase { name, stats });
    }
    Ok(Ablations {
        dataset: dataset.name,
        epsilon,
        cases: results,
    })
}

impl Report for Ablations {
    fn table(&self) -> Markdown {
        Markdown {
            title: format!(
                "Design ablations on {}: full method trained and tested at ±{:.0} %",
                self.dataset,
                self.epsilon * 100.0
            ),
            header: strings(["design point", "accuracy"]),
            rows: self
                .cases
                .iter()
                .map(|c| vec![c.name.to_string(), fmt_stats(&c.stats)])
                .collect(),
        }
    }
}

/// Printed electrolyte gate capacitance per channel area (F/m²). The huge
/// electric-double-layer capacitance is what makes EGTs both low-voltage
/// and slow.
pub const GATE_CAP_PER_AREA: f64 = 5e-2; // 5 µF/cm²

/// The step-response settling of one design.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Settling {
    /// Design label.
    pub design: &'static str,
    /// Gate capacitance of each EGT (F).
    pub c_gate: f64,
    /// Time to settle within 1 % of VDD after a 0.2 → 0.8 V input step
    /// (s); `null` if it never settles within the simulated window.
    pub settling: Option<f64>,
}

/// Builds the two-stage nonlinear circuit *with* gate capacitors and
/// returns (netlist, input source id, output node).
fn build_dynamic(params: &NonlinearCircuitParams) -> Result<(Circuit, DeviceId, Node), SpiceError> {
    params.validate()?;
    let egt = EgtModel::printed(params.w, params.l);
    let c_gate = GATE_CAP_PER_AREA * params.w * params.l;

    let mut c = Circuit::new();
    let [vdd, vin_node, g1, d1, g2, out] = [(); 6].map(|_| c.new_node());
    c.vsource(vdd, GROUND, VDD)?;
    let vin = c.vsource(vin_node, GROUND, 0.0)?;
    c.resistor(vin_node, g1, params.r1)?;
    c.resistor(g1, GROUND, params.r2)?;
    c.capacitor(g1, GROUND, c_gate)?;
    c.resistor(vdd, d1, params.r5)?;
    c.egt(d1, g1, GROUND, egt)?;
    c.resistor(d1, g2, params.r3)?;
    c.resistor(g2, GROUND, params.r4)?;
    c.capacitor(g2, GROUND, c_gate)?;
    c.resistor(vdd, out, SECOND_STAGE_LOAD_OHMS)?;
    c.egt(out, g2, GROUND, egt)?;
    Ok((c, vin, out))
}

/// Transient-simulates the step response of the nominal design and of a
/// slow (high-impedance) and a fast (low-impedance) corner of Tab. I.
///
/// # Errors
///
/// Propagates netlist and simulation failures.
pub fn latency() -> Result<Vec<Settling>, SpiceError> {
    let designs = [
        ("nominal", NonlinearCircuitParams::nominal()),
        (
            "high-impedance corner",
            NonlinearCircuitParams::from_array([400.0, 200.0, 500e3, 400e3, 500e3, 800e-6, 70e-6]),
        ),
        (
            "low-impedance corner",
            NonlinearCircuitParams::from_array([100.0, 50.0, 50e3, 40e3, 20e3, 200e-6, 10e-6]),
        ),
    ];
    designs
        .into_iter()
        .map(|(design, params)| {
            let (mut ckt, vin, out) = build_dynamic(&params)?;
            let c_gate = GATE_CAP_PER_AREA * params.w * params.l;
            // Time constants scale with R·C; pick the step from the dominant RC.
            let tau = params.r3.max(params.r5) * c_gate;
            let wave =
                TransientSolver::new(tau / 100.0).simulate(&mut ckt, 20.0 * tau, |t, c| {
                    c.set_vsource(vin, if t > 0.0 { 0.8 } else { 0.2 })
                })?;
            Ok(Settling {
                design,
                c_gate,
                settling: wave.settling_time(out, 0.01 * VDD),
            })
        })
        .collect()
}

impl Report for Vec<Settling> {
    fn table(&self) -> Markdown {
        let rows = self.iter().map(|d| {
            let settling = d
                .settling
                .map_or("never".into(), |s| format!("{:.1} µs", s * 1e6));
            vec![
                d.design.to_string(),
                format!("{:.2} nF", d.c_gate * 1e9),
                settling,
            ]
        });
        Markdown {
            title: format!(
                "Printed latency: 1 % step-response settling of the ptanh circuit, \
                 {:.0} µF/cm² electrolyte double layer",
                GATE_CAP_PER_AREA * 1e2
            ),
            header: strings(["design", "C_gate", "settling time"]),
            rows: rows.collect(),
        }
    }
}
