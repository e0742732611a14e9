//! Export of a trained pNN as a printable design.
//!
//! Training a pNN **is** designing a printed neuromorphic circuit
//! (Sec. II-C); this module extracts the component values a printer would
//! receive: per-crossbar conductances (with negative-weight flags) and the
//! bespoke physical parameterization of every nonlinear circuit.

use crate::infer::extract_layers;
use crate::network::Pnn;
use crate::PnnError;
use pnc_linalg::Matrix;
use pnc_spice::circuits::NonlinearCircuitParams;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Current [`PnnArtifact`] format version; bumped on incompatible change.
pub const ARTIFACT_FORMAT_VERSION: u32 = 1;

/// One crossbar of the printed design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarDesign {
    /// Printable conductance magnitudes `|θ|` after projection; `0` means
    /// "do not print this resistor". Shape `(in + 2) × out` with the bias
    /// and `g_d` rows last.
    pub conductances: Matrix,
    /// `true` where the input is routed through the negative-weight circuit.
    pub negated: Vec<Vec<bool>>,
}

/// One nonlinear circuit of the printed design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitDesign {
    /// Physical component values `[R1, R2, R3, R4, R5, W, L]` (SI units).
    pub omega: [f64; 7],
    /// The resulting curve parameters η (via the surrogate model).
    pub eta: [f64; 4],
}

/// The complete printable design of a trained pNN.
///
/// # Examples
///
/// ```no_run
/// # use pnc_core::{Pnn, PrintedDesign};
/// # fn export(pnn: &Pnn) {
/// let design = PrintedDesign::from_pnn(pnn);
/// println!("{design}");
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrintedDesign {
    /// Crossbars in layer order.
    pub crossbars: Vec<CrossbarDesign>,
    /// `(activation, negative-weight)` circuit designs per circuit pair.
    pub circuits: Vec<(CircuitDesign, CircuitDesign)>,
}

impl PrintedDesign {
    /// Extracts the design from a (typically trained) network.
    pub fn from_pnn(pnn: &Pnn) -> Self {
        let config = pnn.config();
        let crossbars = pnn
            .layers()
            .iter()
            .map(|layer| {
                let printable = layer.printable_conductances(config.g_min, config.g_max);
                let (rows, cols) = printable.shape();
                let negated = (0..rows)
                    .map(|i| (0..cols).map(|j| printable[(i, j)] < 0.0).collect())
                    .collect();
                CrossbarDesign {
                    conductances: printable.map(f64::abs),
                    negated,
                }
            })
            .collect();
        let circuits = pnn
            .circuits()
            .iter()
            .map(|(act, inv)| {
                let make = |c: &crate::NonlinearCircuit| CircuitDesign {
                    omega: c.printable_omega(),
                    eta: c.eta(pnn.surrogate(), None),
                };
                (make(act), make(inv))
            })
            .collect();
        PrintedDesign {
            crossbars,
            circuits,
        }
    }

    /// Total number of printed resistors across all crossbars (zeros are not
    /// printed).
    pub fn printed_resistor_count(&self) -> usize {
        self.crossbars
            .iter()
            .map(|cb| {
                cb.conductances
                    .as_slice()
                    .iter()
                    .filter(|&&g| g > 0.0)
                    .count()
            })
            .sum()
    }

    /// Every circuit's physical parameters satisfy the Tab. I feasibility
    /// constraints.
    pub fn is_feasible(&self) -> bool {
        self.circuits.iter().all(|(a, i)| {
            NonlinearCircuitParams::from_array(a.omega)
                .validate()
                .is_ok()
                && NonlinearCircuitParams::from_array(i.omega)
                    .validate()
                    .is_ok()
        })
    }
}

impl PrintedDesign {
    /// Checks that every number in the design is finite: conductances,
    /// physical ω component values, and η curve parameters. A failed or
    /// diverged fit can leave NaN/inf in a design; such a design must never
    /// reach a printer — or a serving registry.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] naming the first offending value.
    pub fn validate(&self) -> Result<(), PnnError> {
        for (k, cb) in self.crossbars.iter().enumerate() {
            if let Some(g) = cb.conductances.as_slice().iter().find(|g| !g.is_finite()) {
                return Err(PnnError::Artifact {
                    detail: format!("crossbar {k}: non-finite conductance {g}"),
                });
            }
            let (rows, cols) = cb.conductances.shape();
            if cb.negated.len() != rows || cb.negated.iter().any(|r| r.len() != cols) {
                return Err(PnnError::Artifact {
                    detail: format!("crossbar {k}: negated mask shape mismatch"),
                });
            }
        }
        for (k, (act, inv)) in self.circuits.iter().enumerate() {
            for (role, c) in [("act", act), ("inv", inv)] {
                if c.omega.iter().any(|v| !v.is_finite()) {
                    return Err(PnnError::Artifact {
                        detail: format!("circuit {k} {role}: non-finite ω component"),
                    });
                }
                if c.eta.iter().any(|v| !v.is_finite()) {
                    return Err(PnnError::Artifact {
                        detail: format!("circuit {k} {role}: non-finite η parameter"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// One crossbar layer of a [`PnnArtifact`]: the exact flattened f64 numbers
/// the compiled [`crate::InferencePlan`] executes — normalized sign-split
/// weights of Eq. 1, η quadruples of Eqs. 2–3, and the precomputed
/// `inv(1 V)` bias response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactLayer {
    /// Input width of this crossbar.
    pub in_dim: usize,
    /// Output width of this crossbar.
    pub out_dim: usize,
    /// `(in_dim + 2) × out_dim` row-major positive-path weights.
    pub w_pos: Vec<f64>,
    /// Same shape: negative-path weights.
    pub w_neg: Vec<f64>,
    /// Activation-circuit η per circuit pair (1 entry, or `out_dim` for
    /// per-neuron bespoke circuits).
    pub eta_act: Vec<[f64; 4]>,
    /// Negative-weight-circuit η per circuit pair (same length).
    pub eta_inv: Vec<[f64; 4]>,
    /// `inv(1 V)` per circuit pair (same length).
    pub inv_ones: Vec<f64>,
    /// Whether the ptanh activation applies after this crossbar.
    pub apply_act: bool,
}

/// A trained pNN exported for deployment: everything a serving registry
/// needs to rebuild a [`crate::InferencePlan`] **bit-identically** — no live
/// network, autodiff graph, or surrogate model required — plus the
/// [`PrintedDesign`] the same training run would send to a printer.
///
/// The layer payload is exactly what [`crate::InferencePlan`] executes
/// (η from [`crate::NonlinearCircuit::eta`], normalized sign-split
/// weights), so a plan compiled from the artifact reproduces the
/// originating network's outputs bit for bit.
///
/// Loading always validates: [`Self::from_json`] / [`Self::load`] reject
/// artifacts with non-finite values (the vendored JSON layer round-trips
/// NaN/inf through `null` → NaN, exactly the corruption a failed fit
/// produces) with a typed [`PnnError::Artifact`] — at load time, not as NaN
/// scores at request time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PnnArtifact {
    /// Format version, [`ARTIFACT_FORMAT_VERSION`] when written by this
    /// crate.
    pub format_version: u32,
    /// Model identifier (e.g. the dataset/task the pNN was trained for);
    /// serving registries key on it.
    pub name: String,
    /// Input feature width.
    pub in_dim: usize,
    /// Output class count.
    pub out_dim: usize,
    /// Crossbar layers in execution order.
    pub layers: Vec<ArtifactLayer>,
    /// The printable design of the same network, for provenance and
    /// feasibility auditing.
    pub design: PrintedDesign,
}

impl PnnArtifact {
    /// Extracts a deployment artifact from a (typically trained) network.
    /// Every η appears twice — in the design's circuits and in the layers —
    /// and both copies come from [`crate::NonlinearCircuit::eta`], so they
    /// agree bit for bit.
    ///
    /// # Errors
    ///
    /// None today: extraction reads plain numbers and cannot fail. The
    /// `Result` keeps the signature stable for callers.
    pub fn from_pnn(pnn: &Pnn, name: &str) -> Result<PnnArtifact, PnnError> {
        let layers = extract_layers(pnn);
        Ok(PnnArtifact {
            format_version: ARTIFACT_FORMAT_VERSION,
            name: name.to_string(),
            in_dim: pnn.config().layer_sizes[0],
            out_dim: layers.last().map(|l| l.out_dim).unwrap_or(0),
            layers,
            design: PrintedDesign::from_pnn(pnn),
        })
    }

    /// Full artifact validation: version, non-empty consistent layer chain,
    /// finite weights and η everywhere (layers *and* embedded design).
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] describing the first defect found.
    pub fn validate(&self) -> Result<(), PnnError> {
        let fail = |detail: String| Err(PnnError::Artifact { detail });
        if self.format_version != ARTIFACT_FORMAT_VERSION {
            return fail(format!(
                "unsupported format_version {} (this build reads {})",
                self.format_version, ARTIFACT_FORMAT_VERSION
            ));
        }
        if self.name.is_empty() {
            return fail("empty model name".to_string());
        }
        if self.layers.is_empty() {
            return fail("artifact has no layers".to_string());
        }
        let mut expect_in = self.in_dim;
        for (i, l) in self.layers.iter().enumerate() {
            if l.in_dim != expect_in {
                return fail(format!(
                    "layer {i}: in_dim {} breaks the layer chain (expected {expect_in})",
                    l.in_dim
                ));
            }
            if l.out_dim == 0 {
                return fail(format!("layer {i}: zero output width"));
            }
            // Checked: a hostile in_dim near usize::MAX must not wrap the
            // expected length down to a small, matching value.
            let Some(w_len) = l
                .in_dim
                .checked_add(2)
                .and_then(|r| r.checked_mul(l.out_dim))
            else {
                return fail(format!(
                    "layer {i}: (in+2)*out overflows for in_dim {} and out_dim {}",
                    l.in_dim, l.out_dim
                ));
            };
            if l.w_pos.len() != w_len || l.w_neg.len() != w_len {
                return fail(format!(
                    "layer {i}: weight lengths {}/{} != (in+2)*out = {w_len}",
                    l.w_pos.len(),
                    l.w_neg.len()
                ));
            }
            let pairs = l.eta_act.len();
            if pairs != 1 && pairs != l.out_dim {
                return fail(format!(
                    "layer {i}: {pairs} circuit pairs (expected 1 or out_dim {})",
                    l.out_dim
                ));
            }
            if l.eta_inv.len() != pairs || l.inv_ones.len() != pairs {
                return fail(format!(
                    "layer {i}: eta_inv/inv_ones lengths disagree with eta_act ({pairs})"
                ));
            }
            if let Some(w) = l
                .w_pos
                .iter()
                .chain(&l.w_neg)
                .chain(&l.inv_ones)
                .find(|w| !w.is_finite())
            {
                return fail(format!("layer {i}: non-finite weight {w}"));
            }
            if l.eta_act
                .iter()
                .chain(&l.eta_inv)
                .flatten()
                .any(|e| !e.is_finite())
            {
                return fail(format!("layer {i}: non-finite η parameter"));
            }
            expect_in = l.out_dim;
        }
        if expect_in != self.out_dim {
            return fail(format!(
                "last layer's out_dim {expect_in} != artifact out_dim {}",
                self.out_dim
            ));
        }
        self.design.validate()
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] if serialization fails.
    pub fn to_json(&self) -> Result<String, PnnError> {
        serde_json::to_string(self).map_err(|e| PnnError::Artifact {
            detail: format!("serialization failed: {e}"),
        })
    }

    /// Parses **and validates** an artifact from JSON: corrupt shapes and
    /// non-finite values are load-time [`PnnError::Artifact`] errors.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] on parse failure or validation
    /// failure.
    pub fn from_json(json: &str) -> Result<PnnArtifact, PnnError> {
        let artifact: PnnArtifact = serde_json::from_str(json).map_err(|e| PnnError::Artifact {
            detail: format!("parse failed: {e}"),
        })?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Writes the artifact as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] on serialization or I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), PnnError> {
        std::fs::write(path, self.to_json()?).map_err(|e| PnnError::Artifact {
            detail: format!("writing {} failed: {e}", path.display()),
        })
    }

    /// Reads and validates an artifact from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`PnnError::Artifact`] on I/O, parse, or validation failure.
    pub fn load(path: &Path) -> Result<PnnArtifact, PnnError> {
        let json = std::fs::read_to_string(path).map_err(|e| PnnError::Artifact {
            detail: format!("reading {} failed: {e}", path.display()),
        })?;
        Self::from_json(&json)
    }
}

impl fmt::Display for PrintedDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "printed neuromorphic design")?;
        for (k, cb) in self.crossbars.iter().enumerate() {
            let (rows, cols) = cb.conductances.shape();
            writeln!(
                f,
                "  crossbar {k}: {} inputs (+bias+gd) x {} outputs",
                rows - 2,
                cols
            )?;
            for i in 0..rows {
                write!(f, "    ")?;
                for j in 0..cols {
                    let g = cb.conductances[(i, j)];
                    if g == 0.0 {
                        write!(f, "     --      ")?;
                    } else {
                        let mark = if cb.negated[i][j] { '-' } else { '+' };
                        write!(f, "{mark}{g:<11.4} ")?;
                    }
                }
                writeln!(f)?;
            }
        }
        for (k, (act, inv)) in self.circuits.iter().enumerate() {
            for (role, c) in [("act", act), ("inv", inv)] {
                writeln!(
                    f,
                    "  circuit {k} {role}: R1={:.0}Ω R2={:.0}Ω R3={:.0}Ω R4={:.0}Ω R5={:.0}Ω W={:.0}µm L={:.0}µm  η=[{:.3}, {:.3}, {:.3}, {:.3}]",
                    c.omega[0],
                    c.omega[1],
                    c.omega[2],
                    c.omega[3],
                    c.omega[4],
                    c.omega[5] * 1e6,
                    c.omega[6] * 1e6,
                    c.eta[0],
                    c.eta[1],
                    c.eta[2],
                    c.eta[3]
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PnnConfig;
    use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig};
    use std::sync::Arc;

    fn quick_pnn() -> Pnn {
        let data = build_dataset(&DatasetConfig::new(120, 31), None).unwrap();
        let surrogate = Arc::new(
            train_surrogate(
                &data,
                &pnc_surrogate::TrainConfig {
                    layer_sizes: vec![10, 8, 4],
                    max_epochs: 300,
                    patience: 100,
                    ..pnc_surrogate::TrainConfig::default()
                },
            )
            .unwrap()
            .0,
        );
        Pnn::new(PnnConfig::for_dataset(3, 2), surrogate).unwrap()
    }

    #[test]
    fn export_has_expected_structure() {
        let pnn = quick_pnn();
        let design = PrintedDesign::from_pnn(&pnn);
        assert_eq!(design.crossbars.len(), 2);
        assert_eq!(design.crossbars[0].conductances.shape(), (5, 3));
        assert_eq!(design.crossbars[1].conductances.shape(), (5, 2));
        assert_eq!(design.circuits.len(), 2);
        assert!(design.is_feasible());
    }

    #[test]
    fn conductances_are_printable_magnitudes() {
        let pnn = quick_pnn();
        let config = pnn.config().clone();
        let design = PrintedDesign::from_pnn(&pnn);
        for cb in &design.crossbars {
            for &g in cb.conductances.as_slice() {
                assert!(
                    g == 0.0 || (config.g_min..=config.g_max).contains(&g),
                    "unprintable conductance {g}"
                );
            }
        }
        assert!(design.printed_resistor_count() > 0);
    }

    #[test]
    fn display_mentions_components() {
        let design = PrintedDesign::from_pnn(&quick_pnn());
        let text = design.to_string();
        assert!(text.contains("crossbar 0"));
        assert!(text.contains("R1="));
        assert!(text.contains("η="));
    }

    #[test]
    fn serde_round_trip() {
        let design = PrintedDesign::from_pnn(&quick_pnn());
        let json = serde_json::to_string(&design).unwrap();
        let back: PrintedDesign = serde_json::from_str(&json).unwrap();
        assert_eq!(design.crossbars.len(), back.crossbars.len());
        assert_eq!(design.circuits.len(), back.circuits.len());
    }

    #[test]
    fn artifact_round_trip_compiles_bit_identically() {
        let pnn = quick_pnn();
        let artifact = PnnArtifact::from_pnn(&pnn, "unit").expect("exports");
        artifact.validate().expect("valid");
        let back = PnnArtifact::from_json(&artifact.to_json().expect("serializes")).expect("loads");
        assert_eq!(artifact, back, "JSON round trip must preserve every bit");

        // A plan compiled from the artifact matches one compiled from the
        // live network bit for bit.
        let x = pnc_linalg::Matrix::from_fn(5, 3, |i, j| 0.1 * (i + j) as f64);
        let mut from_pnn = crate::InferencePlan::compile(&pnn).expect("compiles");
        let mut from_artifact = crate::InferencePlan::compile_artifact(&back).expect("compiles");
        assert_eq!(
            from_pnn.infer(&x).expect("pnn plan"),
            from_artifact.infer(&x).expect("artifact plan"),
            "artifact-compiled plan must be bit-identical"
        );
    }

    /// Every η appears twice in an artifact — in `design.circuits` and in
    /// the layers' `eta_act`/`eta_inv` — and both copies come from
    /// `NonlinearCircuit::eta`, so they agree bit for bit at every circuit
    /// granularity.
    #[test]
    fn artifact_design_and_layers_carry_the_same_eta() {
        use crate::NonlinearityGranularity::{PerLayer, PerNeuron, Shared};
        use rand::{Rng, SeedableRng};
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/surrogate-default.json");
        let surrogate = Arc::new(pnc_surrogate::SurrogateModel::load(&path).expect("loads"));
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let bits = |eta: &[f64; 4]| eta.map(f64::to_bits);
        for granularity in [Shared, PerLayer, PerNeuron] {
            let mut config = PnnConfig::for_dataset(4, 3);
            config.granularity = granularity;
            let mut pnn = Pnn::new(config, Arc::clone(&surrogate)).expect("valid config");
            // Move every circuit off the shared nominal design.
            for (act, inv) in pnn.circuits_mut() {
                for circuit in [act, inv] {
                    let w = circuit.parameter_mut().expect("learnable");
                    for v in w.value_mut().as_mut_slice() {
                        *v += rng.gen_range(-2.0..2.0);
                    }
                }
            }
            let artifact = PnnArtifact::from_pnn(&pnn, "unit").expect("exports");
            let mut seen = vec![false; pnn.circuits().len()];
            for (i, layer) in artifact.layers.iter().enumerate() {
                for (j, k) in pnn.pair_range(i).enumerate() {
                    let (act, inv) = &artifact.design.circuits[k];
                    let at = format!("{granularity:?}, layer {i}, pair {k}");
                    assert_eq!(bits(&act.eta), bits(&layer.eta_act[j]), "act η, {at}");
                    assert_eq!(bits(&inv.eta), bits(&layer.eta_inv[j]), "inv η, {at}");
                    seen[k] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{granularity:?}: a pair is unused");
        }
    }

    #[test]
    fn non_finite_artifact_is_rejected_at_load_time() {
        let pnn = quick_pnn();
        let mut artifact = PnnArtifact::from_pnn(&pnn, "unit").expect("exports");
        artifact.layers[0].w_pos[0] = f64::NAN;
        // The vendored JSON layer writes non-finite floats as `null` and
        // reads them back as NaN — exactly how a diverged fit's corruption
        // survives a round trip. Loading must still reject it.
        let json = artifact.to_json().expect("serializes");
        match PnnArtifact::from_json(&json) {
            Err(PnnError::Artifact { detail }) => {
                assert!(
                    detail.contains("non-finite"),
                    "should name the defect: {detail}"
                )
            }
            other => panic!("NaN weight must be an Artifact error, got {other:?}"),
        }

        // Same for a poisoned η and a poisoned embedded design.
        let mut bad_eta = PnnArtifact::from_pnn(&pnn, "unit").expect("exports");
        bad_eta.layers[0].eta_act[0][1] = f64::INFINITY;
        assert!(matches!(bad_eta.validate(), Err(PnnError::Artifact { .. })));
        let mut bad_design = PnnArtifact::from_pnn(&pnn, "unit").expect("exports");
        bad_design.design.circuits[0].0.eta[0] = f64::NAN;
        assert!(matches!(
            bad_design.validate(),
            Err(PnnError::Artifact { .. })
        ));
    }

    #[test]
    fn inconsistent_artifact_shapes_are_rejected() {
        let pnn = quick_pnn();
        let good = PnnArtifact::from_pnn(&pnn, "unit").expect("exports");

        let mut wrong_version = good.clone();
        wrong_version.format_version = 99;
        assert!(wrong_version.validate().is_err(), "unknown version");

        let mut empty_name = good.clone();
        empty_name.name.clear();
        assert!(empty_name.validate().is_err(), "empty name");

        let mut truncated = good.clone();
        truncated.layers[1].w_neg.pop();
        assert!(truncated.validate().is_err(), "truncated weights");

        let mut broken_chain = good.clone();
        broken_chain.layers[1].in_dim += 1;
        assert!(broken_chain.validate().is_err(), "broken layer chain");

        // (in+2)*out would wrap to out_dim without overflow checks.
        let mut overflowing = good.clone();
        let out_dim = overflowing.layers[0].out_dim;
        overflowing.in_dim = usize::MAX;
        overflowing.layers[0].in_dim = usize::MAX;
        overflowing.layers[0].w_pos.truncate(out_dim);
        overflowing.layers[0].w_neg.truncate(out_dim);
        assert!(
            matches!(overflowing.validate(), Err(PnnError::Artifact { .. })),
            "overflowing weight shape"
        );

        let mut no_layers = good;
        no_layers.layers.clear();
        assert!(no_layers.validate().is_err(), "no layers");
    }
}
