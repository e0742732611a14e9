//! The paper's figures and Tab. I, which need no pNN training: the design
//! space, the circuits' characteristic curves, the curve fit and surrogate
//! parity, and the learnable-parameter chain.

use crate::runner::{strings, Markdown, Report};
use pnc_autodiff::Graph;
use pnc_core::{NonlinearCircuit, PnnError};
use pnc_fit::fit_ptanh;
use pnc_linalg::stats;
use pnc_spice::circuits::{characteristic_curve, NonlinearCircuitParams};
use pnc_spice::SpiceError;
use pnc_surrogate::{
    build_dataset, train_surrogate, DatasetConfig, DesignSpace, SurrogateModel, TrainConfig,
};
use serde::{Serialize, Value};
use std::error::Error;

/// The seven printable parameters of ω with their display units and the
/// factor from SI to that unit.
const OMEGA_NAMES: [(&str, &str, f64); 7] = [
    ("R1", "Ω", 1.0),
    ("R2", "Ω", 1.0),
    ("R3", "kΩ", 1e-3),
    ("R4", "kΩ", 1e-3),
    ("R5", "kΩ", 1e-3),
    ("W", "µm", 1e6),
    ("L", "µm", 1e6),
];

fn fmt_list(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:+.3}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Tab. I is the design space itself; its JSON holds the box in SI units.
impl Report for DesignSpace {
    fn table(&self) -> Markdown {
        let rows = OMEGA_NAMES
            .iter()
            .enumerate()
            .map(|(k, &(name, unit, scale))| {
                let bound = |x: f64| (x * scale).to_string();
                vec![
                    format!("{name} ({unit})"),
                    bound(self.lo[k]),
                    bound(self.hi[k]),
                ]
            });
        Markdown {
            title: "Tab. I: feasible design space of the nonlinear circuit (R1 > R2, R3 > R4)"
                .into(),
            header: strings(["parameter", "minimal", "maximal"]),
            rows: rows.collect(),
        }
    }
}

/// Fig. 2: characteristic curves of the ptanh circuit (left panel) and the
/// negative-weight circuit (right panel) for five designs ω.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig2 {
    /// The designs, `[R1, R2, R3, R4, R5, W, L]` in SI units.
    pub designs: Vec<[f64; 7]>,
    /// The swept input voltages (V).
    pub v_in: Vec<f64>,
    /// Simulated ptanh output per design (V), one curve per design.
    pub ptanh: Vec<Vec<f64>>,
    /// The negative-weight circuit's output per design (V).
    pub negative_weight: Vec<Vec<f64>>,
}

/// Simulates Fig. 2's curves on 41 input points.
///
/// The negative-weight circuit reuses the ptanh netlist (Sec. II-B c): its
/// model curve is the falling mirror of the simulated transfer curve around
/// the curve's mid level (see `pnc_core::apply_inv` for the sign
/// convention).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig2() -> Result<Fig2, SpiceError> {
    // A spread of the Tab. I box showing the diversity of amplitudes,
    // midpoints and slopes that Fig. 2 illustrates.
    let designs = vec![
        [200.0, 100.0, 300e3, 150e3, 100e3, 800e-6, 20e-6],
        [120.0, 100.0, 400e3, 300e3, 100e3, 800e-6, 10e-6],
        [400.0, 60.0, 100e3, 60e3, 150e3, 500e-6, 30e-6],
        [300.0, 120.0, 200e3, 90e3, 60e3, 600e-6, 25e-6],
        [150.0, 90.0, 450e3, 350e3, 300e3, 300e-6, 50e-6],
    ];
    let mut v_in = Vec::new();
    let mut ptanh = Vec::new();
    let mut negative_weight = Vec::new();
    for omega in &designs {
        let curve = characteristic_curve(&NonlinearCircuitParams::from_array(*omega), 41)?;
        v_in = curve.iter().map(|p| p.0).collect();
        let out: Vec<f64> = curve.iter().map(|p| p.1).collect();
        let lo = out.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        negative_weight.push(out.iter().map(|y| lo + hi - y).collect());
        ptanh.push(out);
    }
    Ok(Fig2 {
        designs,
        v_in,
        ptanh,
        negative_weight,
    })
}

impl Report for Fig2 {
    fn table(&self) -> Markdown {
        let mut header = vec!["V_in".to_string()];
        for panel in ["ptanh", "negative weight"] {
            header.extend((0..self.designs.len()).map(|k| format!("{panel} ω{k}")));
        }
        let rows = (0..self.v_in.len())
            .map(|i| {
                let outputs = self.ptanh.iter().chain(&self.negative_weight);
                std::iter::once(format!("{:.3}", self.v_in[i]))
                    .chain(outputs.map(|curve| format!("{:.4}", curve[i])))
                    .collect()
            })
            .collect();
        Markdown {
            title: "Fig. 2: characteristic curves V_out (V) of the ptanh and negative-weight \
                    circuits for five designs ω (see `designs` in the JSON)"
                .into(),
            header,
            rows,
        }
    }
}

/// Surrogate accuracy on one split of the Fig. 4 dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SplitParity {
    /// `train`, `val` or `test`.
    pub split: &'static str,
    /// Number of design points in the split.
    pub n: usize,
    /// MSE of the normalized η̃, pooled over its four components.
    pub mse: f64,
    /// R² of the normalized η̃, pooled over its four components.
    pub r2: f64,
}

/// Fig. 4: the ptanh fit of one simulated curve (left panel) and the
/// surrogate's parity on a freshly characterized dataset (right panel).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig4 {
    /// Fitted η of Eq. 2 on the nominal design.
    pub eta: [f64; 4],
    /// RMSE of the fit (V).
    pub fit_rmse: f64,
    /// `[V_in, simulated V_out, fitted V_out]` on every other sweep point.
    pub curve: Vec<[f64; 3]>,
    /// Requested design points.
    pub samples: usize,
    /// Points that were characterized.
    pub characterized: usize,
    /// Points lost at netlist build, DC sweep and curve fit.
    pub failures: [usize; 3],
    /// Epochs the surrogate trained for.
    pub epochs: usize,
    /// Per-split parity.
    pub splits: Vec<SplitParity>,
    /// The run's observability counters and histograms (docs/METRICS.md),
    /// without the wall-clock `_seconds` histograms, so the artifact is
    /// reproducible byte for byte.
    pub metrics: Value,
}

/// Runs Fig. 4: fits the nominal design's curve, then characterizes 1,200
/// design points and trains a surrogate on them. Resets the observability
/// registry first, so `metrics` covers this run alone.
///
/// # Errors
///
/// Propagates simulation, fit, build and training failures.
pub fn fig4() -> Result<Fig4, Box<dyn Error>> {
    pnc_obs::reset();
    let params = NonlinearCircuitParams::nominal();
    let sweep = characteristic_curve(&params, 41)?;
    let fit = fit_ptanh(&sweep)?;
    let curve = sweep
        .iter()
        .step_by(2)
        .map(|&(x, y)| [x, y, fit.curve.eval(x)])
        .collect();

    let samples = 1200;
    let data = build_dataset(&DatasetConfig::new(samples, 61), None)?;
    let (model, report) = train_surrogate(&data, &TrainConfig::default())?;
    let (train, val, test) = data.split(0);
    let splits = [("train", train), ("val", val), ("test", test)]
        .into_iter()
        .map(|(split, idx)| {
            let (mut truths, mut preds) = (Vec::new(), Vec::new());
            for &i in &idx {
                let e = &data.entries[i];
                truths.extend(data.eta_bounds.normalize(&e.eta));
                preds.extend(data.eta_bounds.normalize(&model.predict_eta(&e.omega)));
            }
            SplitParity {
                split,
                n: idx.len(),
                mse: stats::mse(&truths, &preds),
                r2: stats::r_squared(&truths, &preds),
            }
        })
        .collect();
    let tally = data.failure_tally();
    // Durations are exempt from the determinism contract (DESIGN.md §9).
    let mut metrics = pnc_obs::snapshot();
    metrics.histograms.retain(|h| !h.name.ends_with("_seconds"));
    Ok(Fig4 {
        eta: fit.curve.eta,
        fit_rmse: fit.rmse,
        curve,
        samples,
        characterized: data.entries.len(),
        failures: [tally.build, tally.sweep, tally.fit],
        epochs: report.epochs_run,
        splits,
        metrics: serde_json::from_str(&metrics.to_json())?,
    })
}

impl Report for Fig4 {
    fn table(&self) -> Markdown {
        let rows = self.splits.iter().map(|s| {
            let (mse, r2) = (format!("{:.5}", s.mse), format!("{:.4}", s.r2));
            vec![s.split.to_string(), s.n.to_string(), mse, r2]
        });
        Markdown {
            title: format!(
                "Fig. 4: ptanh fit rmse {:.1} mV on the nominal design (left); surrogate parity \
                 on normalized η̃ after {} epochs, {} / {} points characterized (right)",
                self.fit_rmse * 1e3,
                self.epochs,
                self.characterized,
                self.samples
            ),
            header: strings(["split", "points", "MSE", "R²"]),
            rows: rows.collect(),
        }
    }
}

/// Fig. 5: the learnable parameter 𝔴 carried through every processing
/// stage to the surrogate's η, plus the gradient back to 𝔴.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5 {
    /// The raw learnable parameter (pre-sigmoid), layout
    /// `[R1~, R3~, R5~, W~, L~, k1, k2]`.
    pub raw: Vec<f64>,
    /// After the sigmoid: normalized values in (0, 1).
    pub sigmoid: Vec<f64>,
    /// The printable ω, SI units (denormalized, reassembled, clipped).
    pub omega: [f64; 7],
    /// The surrogate input: ω normalized and ratio-extended.
    pub surrogate_input: Vec<f64>,
    /// The surrogate's η.
    pub eta: [f64; 4],
    /// d(Σ η)/d𝔴: the chain is differentiable end to end.
    pub gradient: Vec<f64>,
}

/// Walks Fig. 5's chain for a learnable circuit initialized at the nominal
/// design.
///
/// # Errors
///
/// Propagates graph-building and backward-pass failures.
pub fn fig5(surrogate: &SurrogateModel) -> Result<Fig5, PnnError> {
    let circuit = NonlinearCircuit::learnable_from(NonlinearCircuitParams::nominal());
    let mut g = Graph::new();
    let w = circuit.register(&mut g).ok_or_else(|| PnnError::Config {
        detail: "a learnable circuit registers its parameter".into(),
    })?;
    let raw = g.value(w).as_slice().to_vec();
    let eta_node = circuit.eta_graph(&mut g, Some(w), surrogate, None)?;
    let loss = g.sum(eta_node);
    let grads = g.backward(loss)?;
    let omega = circuit.printable_omega();
    Ok(Fig5 {
        sigmoid: raw.iter().map(|x| 1.0 / (1.0 + (-x).exp())).collect(),
        raw,
        omega,
        surrogate_input: DesignSpace::paper().normalize_omega(&omega).to_vec(),
        eta: surrogate.predict_eta(&omega),
        gradient: grads
            .get(w)
            .map(|m| m.as_slice().to_vec())
            .unwrap_or_default(),
    })
}

impl Report for Fig5 {
    fn table(&self) -> Markdown {
        let omega: Vec<String> = OMEGA_NAMES
            .iter()
            .zip(self.omega)
            .map(|(&(name, unit, scale), x)| format!("{name} = {:.4} {unit}", x * scale))
            .collect();
        let rows = vec![
            vec!["learnable 𝔴 (raw)".into(), fmt_list(&self.raw)],
            vec!["after sigmoid".into(), fmt_list(&self.sigmoid)],
            vec!["printable ω".into(), omega.join(", ")],
            vec!["surrogate input".into(), fmt_list(&self.surrogate_input)],
            vec!["η".into(), fmt_list(&self.eta)],
            vec!["d(Σ η)/d𝔴".into(), fmt_list(&self.gradient)],
        ];
        Markdown {
            title: "Fig. 5: processing of the learnable parameter 𝔴 (layout [R1~, R3~, R5~, W~, \
                    L~, k1, k2]; R2 = k1·R1 and R4 = k2·R3, clipped to Tab. I)"
                .into(),
            header: strings(["stage", "values"]),
            rows,
        }
    }
}
