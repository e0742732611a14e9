//! The Tab. II experiment grid: 13 datasets × {fixed, learnable} ×
//! {nominal, variation-aware} × test variation ∈ {5 %, 10 %}.

use pnc_core::{
    mc_evaluate, train_best_of_seeds, LabeledData, McStats, PnnConfig, PnnError, TrainConfig,
    VariationModel,
};
use pnc_datasets::Dataset;
use pnc_surrogate::SurrogateModel;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// The experiment budget. [`Budget::scaled`] is sized for a single-core
/// machine; [`Budget::paper`] reproduces Sec. IV-A exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Budget {
    /// Random seeds; the best-by-validation network is selected (Sec. IV-C).
    pub seeds: Vec<u64>,
    /// Maximum training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Monte-Carlo samples per training step (`N_train`).
    pub n_train_mc: usize,
    /// Monte-Carlo samples for the validation loss.
    pub n_val_mc: usize,
    /// Monte-Carlo samples at test time (`N_test`).
    pub n_test: usize,
    /// Seed of the test-time Monte-Carlo noise.
    pub mc_seed: u64,
    /// Split seed for the 60/20/20 train/val/test partition.
    pub split_seed: u64,
}

impl Budget {
    /// Reduced budget: 3 seeds, 200 epochs, `N_train` = 5, `N_test` = 50.
    pub fn scaled() -> Self {
        Budget {
            seeds: vec![1, 2, 3],
            max_epochs: 200,
            patience: 80,
            n_train_mc: 5,
            n_val_mc: 3,
            n_test: 50,
            mc_seed: 0xEC0,
            split_seed: 42,
        }
    }

    /// The paper's budget (Sec. IV-A): seeds 1..=10, patience 5000,
    /// `N_train` = 20, `N_test` = 100.
    pub fn paper() -> Self {
        Budget {
            seeds: (1..=10).collect(),
            max_epochs: 50_000,
            patience: 5_000,
            n_train_mc: 20,
            n_val_mc: 5,
            n_test: 100,
            mc_seed: 0xEC0,
            split_seed: 42,
        }
    }

    /// Parses the command line: `--full` switches to the paper budget;
    /// `--seeds N`, `--epochs N`, `--ntest N` override individual knobs.
    pub fn from_args(args: &[String]) -> Self {
        let mut budget = if args.iter().any(|a| a == "--full") {
            Budget::paper()
        } else {
            Budget::scaled()
        };
        let value_of = |flag: &str| -> Option<usize> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
        };
        if let Some(n) = value_of("--seeds") {
            budget.seeds = (1..=n as u64).collect();
        }
        if let Some(n) = value_of("--epochs") {
            budget.max_epochs = n;
            budget.patience = budget.patience.min(n);
        }
        if let Some(n) = value_of("--ntest") {
            budget.n_test = n;
        }
        budget
    }
}

/// One training setup of the ablation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arm {
    /// Learnable nonlinear circuits (the paper's contribution) vs fixed.
    pub learnable: bool,
    /// Variation-aware vs nominal training.
    pub variation_aware: bool,
}

impl Arm {
    /// All four ablation arms, baseline first.
    pub const ALL: [Arm; 4] = [
        Arm {
            learnable: false,
            variation_aware: false,
        },
        Arm {
            learnable: false,
            variation_aware: true,
        },
        Arm {
            learnable: true,
            variation_aware: false,
        },
        Arm {
            learnable: true,
            variation_aware: true,
        },
    ];

    /// Human-readable label.
    pub fn label(&self) -> String {
        format!(
            "{} nonlinear circuit, {} training",
            if self.learnable { "learnable" } else { "fixed" },
            if self.variation_aware {
                "variation-aware"
            } else {
                "nominal"
            }
        )
    }
}

/// One cell of Tab. II: an arm evaluated at one test variation level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The training setup.
    pub arm: Arm,
    /// Training variation level (0 for nominal training).
    pub train_epsilon: f64,
    /// Test variation level.
    pub test_epsilon: f64,
    /// Monte-Carlo accuracy statistics.
    pub stats: McStats,
}

/// The test variation levels of Tab. II's columns.
pub const TEST_EPSILONS: [f64; 2] = [0.05, 0.10];

/// One dataset row of Tab. II (8 cells).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetRow {
    /// Dataset name.
    pub dataset: String,
    /// The 8 cells in the paper's column order: fixed-nominal@5/@10,
    /// fixed-VA@5/@10, learnable-nominal@5/@10, learnable-VA@5/@10.
    pub cells: Vec<CellResult>,
}

impl DatasetRow {
    /// The cell of `arm` tested at `test_epsilon`, if the row has one.
    pub fn cell(&self, arm: Arm, test_epsilon: f64) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.arm == arm && (c.test_epsilon - test_epsilon).abs() < 1e-12)
    }
}

/// Why [`Table2::load`] refused a file.
#[derive(Debug)]
#[non_exhaustive]
pub enum Table2Error {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not a serialized [`Table2`].
    Json(serde_json::Error),
    /// A dataset row lacks one of the 8 (arm × test ε) cells.
    MissingCell {
        /// The row's dataset name.
        dataset: String,
        /// The arm of the missing cell.
        arm: Arm,
        /// The test variation level of the missing cell.
        test_epsilon: f64,
    },
}

impl std::fmt::Display for Table2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Table2Error::Io(e) => write!(f, "reading the Tab. II grid failed: {e}"),
            Table2Error::Json(e) => write!(f, "parsing the Tab. II grid failed: {e}"),
            Table2Error::MissingCell {
                dataset,
                arm,
                test_epsilon,
            } => write!(
                f,
                "Tab. II row {dataset:?} has no cell for the {} arm at test eps {test_epsilon}",
                arm.label()
            ),
        }
    }
}

impl std::error::Error for Table2Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Table2Error::Io(e) => Some(e),
            Table2Error::Json(e) => Some(e),
            Table2Error::MissingCell { .. } => None,
        }
    }
}

/// The full Tab. II result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// The budget the grid was run with.
    pub budget: Budget,
    /// One row per dataset.
    pub rows: Vec<DatasetRow>,
}

impl Table2 {
    /// Saves as JSON (consumed by the `table3` binary).
    ///
    /// # Errors
    ///
    /// Returns I/O or serialization failures.
    pub fn save(&self, path: &Path) -> Result<(), Box<dyn std::error::Error>> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, serde_json::to_string(self)?)?;
        Ok(())
    }

    /// Loads a result saved by [`Table2::save`], checking that every row
    /// carries all 8 (arm × test ε) cells that [`summarize`](crate::summarize)
    /// reads.
    ///
    /// # Errors
    ///
    /// Returns [`Table2Error::Io`] or [`Table2Error::Json`] for an unreadable
    /// file, and [`Table2Error::MissingCell`] for a row that lacks a cell.
    pub fn load(path: &Path) -> Result<Self, Table2Error> {
        let text = std::fs::read_to_string(path).map_err(Table2Error::Io)?;
        let table: Table2 = serde_json::from_str(&text).map_err(Table2Error::Json)?;
        for row in &table.rows {
            for arm in Arm::ALL {
                for test_epsilon in TEST_EPSILONS {
                    if row.cell(arm, test_epsilon).is_none() {
                        return Err(Table2Error::MissingCell {
                            dataset: row.dataset.clone(),
                            arm,
                            test_epsilon,
                        });
                    }
                }
            }
        }
        Ok(table)
    }
}

/// Loads (or trains and caches) the production surrogate shared by the
/// experiment binaries.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn default_surrogate() -> Result<Arc<SurrogateModel>, pnc_surrogate::SurrogateError> {
    let dir = std::env::var_os("PNC_ARTIFACT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../artifacts")
                .to_path_buf()
        });
    let (model, report) = SurrogateModel::load_or_train(
        &dir.join("surrogate-default.json"),
        &pnc_surrogate::DatasetConfig {
            samples: 2000,
            sweep_points: 61,
        },
        &pnc_surrogate::TrainConfig {
            max_epochs: 4000,
            patience: 400,
            ..pnc_surrogate::TrainConfig::default()
        },
    )?;
    if let Some(r) = report {
        eprintln!(
            "trained surrogate: val mse {:.5}, test R2 {:.3}",
            r.val_mse, r.test_r2
        );
    }
    Ok(Arc::new(model))
}

/// Trains one arm on one dataset (best of the budget's seeds) and evaluates
/// it at the given test variation.
///
/// Nominal arms train once and are evaluated at whatever `test_epsilon` is
/// requested; variation-aware arms train at `train_epsilon == test_epsilon`,
/// as the paper prescribes (Sec. IV-C).
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_cell(
    dataset: &Dataset,
    arm: Arm,
    train_epsilon: f64,
    test_epsilon: f64,
    surrogate: Arc<SurrogateModel>,
    budget: &Budget,
) -> Result<CellResult, PnnError> {
    let (train, val, test) = dataset.split(budget.split_seed);
    let train_d = LabeledData::new(&train.features, &train.labels)?;
    let val_d = LabeledData::new(&val.features, &val.labels)?;
    let test_d = LabeledData::new(&test.features, &test.labels)?;

    let mut config = PnnConfig::for_dataset(dataset.num_features(), dataset.num_classes);
    if !arm.learnable {
        config = config.with_fixed_nonlinearity();
    }
    let train_config = TrainConfig {
        lr_omega: if arm.learnable { 0.005 } else { 0.0 },
        variation: if arm.variation_aware {
            VariationModel::Uniform {
                epsilon: train_epsilon,
            }
        } else {
            VariationModel::None
        },
        vary_nonlinear: arm.learnable,
        n_train_mc: budget.n_train_mc,
        n_val_mc: budget.n_val_mc,
        max_epochs: budget.max_epochs,
        patience: budget.patience,
        ..TrainConfig::default()
    };

    let (pnn, _) = train_best_of_seeds(
        &config,
        surrogate,
        &train_config,
        train_d,
        val_d,
        &budget.seeds,
    )?;
    let stats = mc_evaluate(
        &pnn,
        test_d,
        &VariationModel::Uniform {
            epsilon: test_epsilon,
        },
        budget.n_test,
        budget.mc_seed,
    )?;
    Ok(CellResult {
        arm,
        train_epsilon: if arm.variation_aware {
            train_epsilon
        } else {
            0.0
        },
        test_epsilon,
        stats,
    })
}

/// Runs one dataset row of Tab. II: 6 trainings, 8 evaluations.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_dataset_row(
    dataset: &Dataset,
    surrogate: Arc<SurrogateModel>,
    budget: &Budget,
) -> Result<DatasetRow, PnnError> {
    let mut cells = Vec::with_capacity(8);
    for learnable in [false, true] {
        // Nominal arm: one training, tested at both 5 % and 10 %.
        let arm = Arm {
            learnable,
            variation_aware: false,
        };
        for test_eps in TEST_EPSILONS {
            cells.push(run_cell(
                dataset,
                arm,
                0.0,
                test_eps,
                surrogate.clone(),
                budget,
            )?);
        }
        // Variation-aware arm: trained at the matching ε.
        let arm = Arm {
            learnable,
            variation_aware: true,
        };
        for eps in TEST_EPSILONS {
            cells.push(run_cell(dataset, arm, eps, eps, surrogate.clone(), budget)?);
        }
    }
    // Reorder into the paper's column layout: fixed-nominal@5/@10,
    // fixed-VA@5/@10, learnable-nominal@5/@10, learnable-VA@5/@10 — which is
    // exactly the insertion order above.
    Ok(DatasetRow {
        dataset: dataset.name.clone(),
        cells,
    })
}

/// Runs the complete Tab. II grid over `datasets`.
///
/// Progress is reported on stderr per dataset (the grid takes minutes at the
/// scaled budget and hours at the paper budget).
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_table2(
    datasets: &[Dataset],
    surrogate: Arc<SurrogateModel>,
    budget: &Budget,
) -> Result<Table2, PnnError> {
    let mut rows = Vec::with_capacity(datasets.len());
    for (i, dataset) in datasets.iter().enumerate() {
        let start = std::time::Instant::now();
        let row = run_dataset_row(dataset, surrogate.clone(), budget)?;
        eprintln!(
            "[{}/{}] {} done in {:.1}s",
            i + 1,
            datasets.len(),
            dataset.name,
            start.elapsed().as_secs_f64()
        );
        rows.push(row);
    }
    Ok(Table2 {
        budget: budget.clone(),
        rows,
    })
}

/// Like [`run_table2`], but fans the datasets out over a rayon thread pool.
///
/// Every dataset row is computed by the same deterministic procedure as the
/// sequential runner, so the result is identical — only wall-clock time (on
/// multi-core machines) and progress-line ordering differ.
///
/// # Errors
///
/// Propagates the first training or evaluation failure.
pub fn run_table2_parallel(
    datasets: &[Dataset],
    surrogate: Arc<SurrogateModel>,
    budget: &Budget,
) -> Result<Table2, PnnError> {
    use rayon::prelude::*;
    let rows: Result<Vec<DatasetRow>, PnnError> = datasets
        .par_iter()
        .map(|dataset| {
            let start = std::time::Instant::now();
            let row = run_dataset_row(dataset, surrogate.clone(), budget)?;
            eprintln!(
                "{} done in {:.1}s",
                dataset.name,
                start.elapsed().as_secs_f64()
            );
            Ok(row)
        })
        .collect();
    Ok(Table2 {
        budget: budget.clone(),
        rows: rows?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_from_args() {
        let scaled = Budget::from_args(&[]);
        assert_eq!(scaled, Budget::scaled());
        let full = Budget::from_args(&["--full".into()]);
        assert_eq!(full.seeds.len(), 10);
        assert_eq!(full.patience, 5000);
        let custom = Budget::from_args(&[
            "--seeds".into(),
            "2".into(),
            "--epochs".into(),
            "50".into(),
            "--ntest".into(),
            "7".into(),
        ]);
        assert_eq!(custom.seeds, vec![1, 2]);
        assert_eq!(custom.max_epochs, 50);
        assert_eq!(custom.patience, 50);
        assert_eq!(custom.n_test, 7);
    }

    #[test]
    fn arms_enumerate_the_ablation() {
        assert_eq!(Arm::ALL.len(), 4);
        assert!(Arm::ALL[0].label().contains("fixed"));
        assert!(Arm::ALL[3].label().contains("learnable"));
        assert!(Arm::ALL[3].label().contains("variation-aware"));
    }

    #[test]
    fn table2_round_trips_through_json() {
        let cells = Arm::ALL
            .into_iter()
            .flat_map(|arm| {
                TEST_EPSILONS.map(|eps| CellResult {
                    arm,
                    train_epsilon: if arm.variation_aware { eps } else { 0.0 },
                    test_epsilon: eps,
                    stats: McStats {
                        mean: 0.9,
                        std: 0.01,
                        accuracies: vec![0.9, 0.9],
                    },
                })
            })
            .collect();
        let t = Table2 {
            budget: Budget::scaled(),
            rows: vec![DatasetRow {
                dataset: "toy".into(),
                cells,
            }],
        };
        let path = std::env::temp_dir().join("pnc_bench_table2_test.json");
        t.save(&path).unwrap();
        let back = Table2::load(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }
}
