use crate::{
    CircuitDataset, DesignSpace, EtaBounds, Mlp, SurrogateError, EXTENDED_DIM, OMEGA_DIM,
    PAPER_LAYER_SIZES,
};
use pnc_autodiff::{Adam, Graph, Var};
use pnc_linalg::{stats, Matrix};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// What one traced η prediction keeps for its backward pass: the ω it
/// saw and every MLP layer's output, plus scratch rows. Reused across
/// predictions, so a long run allocates it once.
#[derive(Debug, Clone, Default)]
pub struct EtaTrace {
    omega: [f64; OMEGA_DIM],
    acts: Vec<f64>,
    grad: Vec<f64>,
    scratch: Vec<f64>,
}

/// Training configuration for the surrogate network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Hidden architecture (defaults to the paper's 13-layer network).
    pub layer_sizes: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Maximum number of full-batch epochs.
    pub max_epochs: usize,
    /// Early-stopping patience, in epochs without validation improvement.
    pub patience: usize,
    /// Seed for the split shuffle and weight initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            layer_sizes: PAPER_LAYER_SIZES.to_vec(),
            learning_rate: 3e-3,
            max_epochs: 3000,
            patience: 300,
            seed: 0,
        }
    }
}

/// Quality metrics of a trained surrogate, one MSE/R² pair per split —
/// the scalar content of Fig. 4 (right).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean squared error on the training split (normalized η units).
    pub train_mse: f64,
    /// Mean squared error on the validation split.
    pub val_mse: f64,
    /// Mean squared error on the test split.
    pub test_mse: f64,
    /// R² of predicted vs. true normalized η, pooled over all 4 components,
    /// on the test split.
    pub test_r2: f64,
    /// Epochs actually run (early stopping included).
    pub epochs_run: usize,
}

/// A trained, deployable surrogate: normalization constants and network.
///
/// This is the blue box of Fig. 3 — the differentiable stand-in for
/// SPICE that lets the pNN training loop treat the physical parameters ω of
/// the nonlinear circuits as ordinary learnable weights.
///
/// # Examples
///
/// ```no_run
/// use pnc_surrogate::{build_dataset, train_surrogate, DatasetConfig, TrainConfig};
///
/// let data = build_dataset(&DatasetConfig::new(500, 41), None)?;
/// let (model, _report) = train_surrogate(&data, &TrainConfig::default())?;
/// let eta = model.predict_eta(&data.entries[0].omega);
/// // η parameterizes the tanh-like activation curve of this circuit.
/// assert!(eta.iter().all(|v| v.is_finite()));
/// # Ok::<(), pnc_surrogate::SurrogateError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateModel {
    /// The design space used for input normalization.
    pub space: DesignSpace,
    /// η normalization bounds (saved for denormalization, per Sec. III-A).
    pub eta_bounds: EtaBounds,
    mlp: Mlp,
}

impl SurrogateModel {
    /// Predicts the curve parameters η for physical parameters ω.
    pub fn predict_eta(&self, omega: &[f64; OMEGA_DIM]) -> [f64; 4] {
        let norm = self.space.normalize_omega(omega);
        let out = self.mlp.predict(&norm);
        let mut eta_norm = [0.0; 4];
        eta_norm.copy_from_slice(&out);
        self.eta_bounds.denormalize(&eta_norm)
    }

    /// [`SurrogateModel::predict_eta`] that keeps what
    /// [`SurrogateModel::omega_grad`] needs in `trace`; the same bits.
    pub fn predict_eta_traced(&self, omega: &[f64; OMEGA_DIM], trace: &mut EtaTrace) -> [f64; 4] {
        trace.omega = *omega;
        let norm = self.space.normalize_omega(omega);
        self.mlp.forward_keep(&norm, &mut trace.acts);
        let mut eta_norm = [0.0; 4];
        eta_norm.copy_from_slice(&trace.acts[trace.acts.len() - 4..]);
        self.eta_bounds.denormalize(&eta_norm)
    }

    /// `∂L/∂ω` of the prediction [`SurrogateModel::predict_eta_traced`]
    /// left in `trace`, from `eta_grad` = `∂L/∂η`.
    ///
    /// Hand-derived, it runs the backward pass `Graph::backward_seeded`
    /// runs over [`SurrogateModel::predict_eta_graph`] in the tape's order,
    /// with the tape's formulas: the denormalizing `mul` (`g·range`), the
    /// MLP ([`Mlp`]'s input gradient), the normalizing `div` (`g / range`)
    /// and `sub`, then the `concat_cols` of ω with the ratios
    /// `R₂/R₁`, `R₄/R₃`, `W/L` — each `div`'s `g / b` and `g·(−a/b²)` — and
    /// last the zero-padded `1×7` gradients of the six `slice_cols` of ω,
    /// added in reverse order of recording. The bits are the tape's.
    pub fn omega_grad(&self, trace: &mut EtaTrace, eta_grad: &[f64; 4]) -> [f64; OMEGA_DIM] {
        let g = &mut trace.grad;
        g.clear();
        g.extend(
            eta_grad
                .iter()
                .zip(self.eta_bounds.lo.iter().zip(&self.eta_bounds.hi))
                .map(|(&gk, (&l, &h))| gk * (h - l)),
        );
        self.mlp.input_grad(&trace.acts, g, &mut trace.scratch);
        let (lo, hi) = (self.space.extended_lo(), self.space.extended_hi());
        let mut ext_g = [0.0; EXTENDED_DIM];
        for (k, e) in ext_g.iter_mut().enumerate() {
            *e = g[k] / (hi[k] - lo[k]);
        }
        let omega = &trace.omega;
        let mut omega_g = [0.0; OMEGA_DIM];
        omega_g.copy_from_slice(&ext_g[..OMEGA_DIM]);
        // The three ratios, last recorded first: (numerator, denominator)
        // columns of ω and the ratio's gradient.
        let mut slice_g = [0.0; OMEGA_DIM];
        for (num, den, g_ratio) in [(5, 6, ext_g[9]), (3, 2, ext_g[8]), (1, 0, ext_g[7])] {
            let (a, b) = (omega[num], omega[den]);
            slice_g[num] = g_ratio / b;
            slice_g[den] = g_ratio * (-a / (b * b));
        }
        // The slices of R₁, R₂, R₃, R₄, W, L were recorded in that order.
        for col in [6, 5, 3, 2, 1, 0] {
            for (k, acc) in omega_g.iter_mut().enumerate() {
                *acc += if k == col { slice_g[col] } else { 0.0 };
            }
        }
        omega_g
    }

    /// Graph version of [`SurrogateModel::predict_eta`]: takes a `1×7` node
    /// of physical ω values and returns a `1×4` node of denormalized η, with
    /// gradients flowing back to ω. Its value is bit-identical to
    /// `predict_eta`, which runs the same operations in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::Autodiff`] on shape mismatches.
    pub fn predict_eta_graph(&self, g: &mut Graph, omega: Var) -> Result<Var, SurrogateError> {
        let norm = self.space.normalize_omega_graph(g, omega)?;
        let eta_norm = self.mlp.forward_const(g, norm)?;
        // Denormalize: η = lo + η̃·(hi − lo).
        let lo = g.constant(Matrix::row_vector(&self.eta_bounds.lo));
        let range: Vec<f64> = self
            .eta_bounds
            .lo
            .iter()
            .zip(&self.eta_bounds.hi)
            .map(|(&l, &h)| h - l)
            .collect();
        let range = g.constant(Matrix::row_vector(&range));
        let scaled = g.mul(eta_norm, range)?;
        Ok(g.add(scaled, lo)?)
    }

    /// The underlying network (read access, e.g. for reporting size).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Saves the model as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::Io`] / [`SurrogateError::Serde`] on failure.
    pub fn save(&self, path: &Path) -> Result<(), SurrogateError> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads a model saved by [`SurrogateModel::save`] and checks it with
    /// [`SurrogateModel::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::Io`] / [`SurrogateError::Serde`] on failure,
    /// and [`SurrogateError::BadModel`] for a model that does not validate.
    pub fn load(path: &Path) -> Result<Self, SurrogateError> {
        let json = std::fs::read_to_string(path)?;
        let model: SurrogateModel = serde_json::from_str(&json)?;
        model.validate()?;
        Ok(model)
    }

    /// Checks what deserialization cannot: the network runs from the
    /// `EXTENDED_DIM` normalized features to the 4 curve parameters η with
    /// consistent weight and bias shapes, and its parameters and η bounds
    /// are finite. Every loader calls this, so a tampered or mismatched
    /// model file is a typed error rather than a panic on first use.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::BadModel`] naming the first violation.
    pub fn validate(&self) -> Result<(), SurrogateError> {
        self.mlp
            .check(EXTENDED_DIM, 4)
            .map_err(|detail| SurrogateError::BadModel { detail })?;
        let mut bounds = self.eta_bounds.lo.iter().chain(&self.eta_bounds.hi);
        if !bounds.all(|v| v.is_finite()) {
            return Err(SurrogateError::BadModel {
                detail: format!("non-finite eta bounds {:?}", self.eta_bounds),
            });
        }
        Ok(())
    }

    /// Loads the model cached at `path`, or runs the full pipeline
    /// (characterize the design space, train the network) and caches the
    /// result there.
    ///
    /// The examples and the experiment harness share one surrogate artifact
    /// through this entry point, so the expensive SPICE sweep runs once per
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates dataset-build, training and I/O failures. A corrupt cache
    /// file is rebuilt rather than reported.
    pub fn load_or_train(
        path: &Path,
        dataset_config: &crate::DatasetConfig,
        train_config: &TrainConfig,
    ) -> Result<(Self, Option<TrainReport>), SurrogateError> {
        if path.exists() {
            if let Ok(model) = Self::load(path) {
                return Ok((model, None));
            }
        }
        let data = crate::build_dataset(dataset_config, None)?;
        let (model, report) = train_surrogate(&data, train_config)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        model.save(path)?;
        Ok((model, Some(report)))
    }
}

/// Directory where cached artifacts live: `$PNC_ARTIFACT_DIR`, default
/// `artifacts/` at the workspace root.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("PNC_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts"))
}

/// The default surrogate model: 2000 QMC design points with 61-point
/// sweeps and the paper's 13-layer network. Trains once (about 5 s in
/// release mode on 2 vCPUs) and is cached at `surrogate-default.json` in
/// [`artifact_dir`] afterwards.
///
/// # Errors
///
/// Propagates pipeline and I/O failures.
pub fn default_surrogate() -> Result<SurrogateModel, SurrogateError> {
    let path = artifact_dir().join("surrogate-default.json");
    let (model, report) = SurrogateModel::load_or_train(
        &path,
        &crate::DatasetConfig::new(2000, 61),
        &TrainConfig {
            max_epochs: 4000,
            patience: 400,
            ..TrainConfig::default()
        },
    )?;
    if let Some(r) = report {
        eprintln!(
            "trained surrogate (cached at {}): val mse {:.5}, test R2 {:.3}",
            path.display(),
            r.val_mse,
            r.test_r2
        );
    }
    Ok(model)
}

/// A small, fast surrogate for tests and smoke runs: 300 design points and
/// a shallow network, cached at `surrogate-quick.json` in [`artifact_dir`].
///
/// # Errors
///
/// Propagates pipeline and I/O failures.
pub fn quick_surrogate() -> Result<SurrogateModel, SurrogateError> {
    let (model, _) = SurrogateModel::load_or_train(
        &artifact_dir().join("surrogate-quick.json"),
        &crate::DatasetConfig::new(300, 41),
        &TrainConfig {
            layer_sizes: vec![10, 9, 7, 5, 4],
            max_epochs: 1500,
            patience: 300,
            ..TrainConfig::default()
        },
    )?;
    Ok(model)
}

/// Assembles the normalized input/target matrices for a set of entry
/// indices.
fn matrices(data: &CircuitDataset, idx: &[usize]) -> (Matrix, Matrix) {
    let x = Matrix::from_fn(idx.len(), EXTENDED_DIM, |i, j| {
        data.space.normalize_omega(&data.entries[idx[i]].omega)[j]
    });
    let y = Matrix::from_fn(idx.len(), 4, |i, j| {
        data.eta_bounds.normalize(&data.entries[idx[i]].eta)[j]
    });
    (x, y)
}

/// Mean squared error of the network's batched forward on `x` against
/// `y`, the squares summed in row-major order.
fn mse_of(mlp: &Mlp, x: &Matrix, y: &Matrix) -> f64 {
    let pred = mlp.predict_rows(x.as_slice());
    let mut se = 0.0;
    for (p, t) in pred.iter().zip(y.as_slice()) {
        se += (p - t).powi(2);
    }
    se / (x.rows() * y.cols()) as f64
}

/// Trains the surrogate network on a characterized dataset with the paper's
/// split (70/20/10), full-batch Adam, and early stopping on validation MSE.
///
/// Returns the best-by-validation model together with a [`TrainReport`].
///
/// # Errors
///
/// Returns [`SurrogateError::BadDataset`] for datasets too small to split and
/// propagates autodiff failures.
pub fn train_surrogate(
    data: &CircuitDataset,
    config: &TrainConfig,
) -> Result<(SurrogateModel, TrainReport), SurrogateError> {
    if data.entries.len() < 10 {
        return Err(SurrogateError::BadDataset {
            detail: format!("{} entries is too few to train on", data.entries.len()),
        });
    }
    let (train_idx, val_idx, test_idx) = data.split(config.seed);
    let (x_train, y_train) = matrices(data, &train_idx);
    let (x_val, y_val) = matrices(data, &val_idx);
    let (x_test, y_test) = matrices(data, &test_idx);

    let mut mlp = Mlp::new(&config.layer_sizes, config.seed.wrapping_add(1));
    let mut opt = Adam::new(config.learning_rate);

    let mut best = mlp.clone();
    let mut best_val = f64::INFINITY;
    let mut stale = 0usize;
    let mut epochs_run = 0usize;

    for epoch in 0..config.max_epochs {
        epochs_run = epoch + 1;
        let mut g = Graph::new();
        let x = g.constant(&x_train);
        let t = g.constant(&y_train);
        let (pred, vars) = mlp.forward_train(&mut g, x)?;
        let diff = g.sub(pred, t)?;
        let sq = g.powi(diff, 2);
        let loss = g.mean(sq);
        let grads = g.backward(loss)?;
        let mut params = mlp.parameters_mut();
        opt.step(&mut params, &vars, &grads);

        let val = mse_of(&mlp, &x_val, &y_val);
        if val < best_val {
            best_val = val;
            best = mlp.clone();
            stale = 0;
        } else {
            stale += 1;
            if stale >= config.patience {
                break;
            }
        }
    }

    // Pooled test R² over all four components, row-major.
    let test_preds = best.predict_rows(x_test.as_slice());

    let report = TrainReport {
        train_mse: mse_of(&best, &x_train, &y_train),
        val_mse: best_val,
        test_mse: mse_of(&best, &x_test, &y_test),
        test_r2: stats::r_squared(y_test.as_slice(), &test_preds),
        epochs_run,
    };
    let model = SurrogateModel {
        space: data.space.clone(),
        eta_bounds: data.eta_bounds,
        mlp: best,
    };
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_dataset, DatasetConfig};

    fn quick_config() -> TrainConfig {
        TrainConfig {
            // A shallower net trains fast enough for unit tests while the
            // paper architecture is exercised in the bench harness.
            layer_sizes: vec![10, 8, 6, 4],
            learning_rate: 5e-3,
            max_epochs: 800,
            patience: 200,
            seed: 0,
        }
    }

    fn trained() -> (CircuitDataset, SurrogateModel, TrainReport) {
        let data = build_dataset(&DatasetConfig::new(150, 31), None).unwrap();
        let (model, report) = train_surrogate(&data, &quick_config()).unwrap();
        (data, model, report)
    }

    #[test]
    fn surrogate_learns_the_mapping() {
        let (_, _, report) = trained();
        assert!(
            report.test_mse < 0.05,
            "test mse too high: {}",
            report.test_mse
        );
        assert!(report.test_r2 > 0.5, "test R² too low: {}", report.test_r2);
        // No gross overfitting: test within a factor of a few of train.
        assert!(report.test_mse < report.train_mse * 10.0 + 0.02);
    }

    #[test]
    fn predictions_approximate_fitted_eta() {
        let (data, model, _) = trained();
        // On training entries, predictions should be in the right ballpark
        // in normalized units.
        let mut errs = Vec::new();
        for e in data.entries.iter().take(30) {
            let pred = model.predict_eta(&e.omega);
            let pn = data.eta_bounds.normalize(&pred);
            let tn = data.eta_bounds.normalize(&e.eta);
            for k in 0..4 {
                errs.push((pn[k] - tn[k]).abs());
            }
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.2, "mean normalized error {mean_err}");
    }

    /// `predict_eta` and `predict_eta_graph` agree bit for bit, not merely
    /// closely: both run the same IEEE operations in the same order —
    /// normalize ω, then per layer sum `h·w` from `0.0` with the input
    /// index ascending (the order the matmul kernel sums in), add the bias,
    /// apply `tanh`, and finally denormalize.
    #[test]
    fn graph_prediction_matches_plain() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
        let omegas = DesignSpace::paper().sample(512).unwrap();
        let mut g = Graph::new();
        for name in ["surrogate-default.json", "surrogate-quick.json"] {
            let model = SurrogateModel::load(&dir.join(name)).unwrap();
            for omega in &omegas {
                let plain = model.predict_eta(omega);
                g.reset();
                let node = g.leaf(Matrix::row_vector(omega));
                let eta = model.predict_eta_graph(&mut g, node).unwrap();
                let graph = g.value(eta).as_slice();
                assert_eq!(
                    plain.map(f64::to_bits).as_slice(),
                    graph.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{name} at ω = {omega:?}"
                );
            }
        }
    }

    #[test]
    fn graph_prediction_is_differentiable_wrt_omega() {
        let (data, model, _) = trained();
        let omega = data.entries[0].omega;
        // Use relative steps appropriate to each component's scale.
        let report = pnc_autodiff::gradcheck::check_gradients(
            &[Matrix::row_vector(&omega)],
            1.0, // resistances are O(1e2..1e5); geometry handled by looseness
            |g, vars| {
                let eta = model.predict_eta_graph(g, vars[0]).unwrap();
                g.sum(eta)
            },
        );
        // The W/L entries get a huge relative step here, so only require the
        // check not to be wildly off; exact gradcheck is done at the
        // normalized level elsewhere.
        assert!(report.max_abs_error.is_finite());
    }

    #[test]
    fn save_load_round_trip() {
        let (data, model, _) = trained();
        let path = std::env::temp_dir().join("pnc_surrogate_test_model.json");
        model.save(&path).unwrap();
        let back = SurrogateModel::load(&path).unwrap();
        let omega = data.entries[3].omega;
        for (a, b) in model
            .predict_eta(&omega)
            .iter()
            .zip(back.predict_eta(&omega))
        {
            // JSON float round trips are exact to ~1 ULP in this environment.
            assert!((a - b).abs() < 1e-9);
        }
        std::fs::remove_file(&path).ok();
    }

    /// An untrained model over the paper's design space.
    fn untrained(sizes: &[usize]) -> SurrogateModel {
        SurrogateModel {
            space: DesignSpace::paper(),
            eta_bounds: EtaBounds {
                lo: [0.0; 4],
                hi: [1.0; 4],
            },
            mlp: Mlp::new(sizes, 0),
        }
    }

    /// Writes `json` to a scratch file in the temp directory, loads it
    /// back and deletes the file.
    fn load_json(json: &str, name: &str) -> Result<SurrogateModel, SurrogateError> {
        let path =
            std::env::temp_dir().join(format!("pnc_surrogate_{}_{name}.json", std::process::id()));
        std::fs::write(&path, json).unwrap();
        let loaded = SurrogateModel::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn load_rejects_networks_that_do_not_map_features_to_eta() {
        let good = serde_json::to_string(&untrained(&[EXTENDED_DIM, 8, 4])).unwrap();
        load_json(&good, "good").unwrap();

        // The first 1×8 zero matrix in the file is the first bias's value;
        // `null` is how the JSON codec writes, and reads back, a NaN.
        let bias = format!(r#"{{"rows":1,"cols":8,"data":[{}]}}"#, ["0"; 8].join(","));
        assert!(good.contains(&bias));
        let tampered = |from: &str, to: &str| good.replacen(from, to, 1);
        let wide = format!(r#"{{"rows":1,"cols":5,"data":[{}]}}"#, ["0"; 5].join(","));
        let short = format!(r#"{{"rows":1,"cols":8,"data":[{}]}}"#, ["0"; 7].join(","));
        let nan = format!(
            r#"{{"rows":1,"cols":8,"data":[null,{}]}}"#,
            ["0"; 7].join(",")
        );
        for (name, json) in [
            (
                "wrong_chain",
                serde_json::to_string(&untrained(&[7, 3])).unwrap(),
            ),
            ("wide_bias", tampered(&bias, &wide)),
            ("short_bias", tampered(&bias, &short)),
            ("nan_bias", tampered(&bias, &nan)),
            (
                "nan_eta_bound",
                tampered(r#""lo":[0,0,0,0]"#, r#""lo":[0,null,0,0]"#),
            ),
            (
                "missing_layer",
                tampered(r#""sizes":[10,8,4]"#, r#""sizes":[10,8,6,4]"#),
            ),
        ] {
            assert_ne!(json, good, "{name} must tamper with the file");
            let loaded = load_json(&json, name);
            assert!(
                matches!(loaded, Err(SurrogateError::BadModel { .. })),
                "{name}: {:?}",
                loaded.err()
            );
        }
    }

    #[test]
    fn committed_surrogates_validate() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
        for name in ["surrogate-default.json", "surrogate-quick.json"] {
            SurrogateModel::load(&dir.join(name)).unwrap();
        }
    }

    #[test]
    fn train_rejects_tiny_dataset() {
        let data = CircuitDataset {
            space: DesignSpace::paper(),
            entries: vec![],
            eta_bounds: EtaBounds {
                lo: [0.0; 4],
                hi: [1.0; 4],
            },
            failures: vec![],
        };
        assert!(train_surrogate(&data, &quick_config()).is_err());
    }
}
