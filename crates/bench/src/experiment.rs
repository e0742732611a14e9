//! The Tab. II experiment grid: 13 datasets × {fixed, learnable} ×
//! {nominal, variation-aware} × test variation ∈ {5 %, 10 %}.

use crate::runner::{Markdown, Report};
use pnc_core::{
    mc_evaluate, train_best_of_seeds, LabeledData, McStats, Pnn, PnnConfig, PnnError, TrainConfig,
    VariationModel,
};
use pnc_datasets::Dataset;
use pnc_surrogate::SurrogateModel;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The experiment budget shared by every training experiment.
/// [`Budget::scaled`] is the default; [`Budget::paper`] reproduces
/// Sec. IV-A exactly.
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

    /// The network of this arm on `dataset`: the paper's topology, with
    /// the nonlinear circuits fixed unless the arm learns them.
    pub fn pnn_config(&self, dataset: &Dataset) -> PnnConfig {
        let config = PnnConfig::for_dataset(dataset.num_features(), dataset.num_classes);
        if self.learnable {
            config
        } else {
            config.with_fixed_nonlinearity()
        }
    }

    /// The training setup of this arm under `budget`. Variation-aware arms
    /// train at `train_epsilon`; nominal arms ignore it.
    pub fn train_config(&self, train_epsilon: f64, budget: &Budget) -> TrainConfig {
        TrainConfig {
            lr_omega: if self.learnable { 0.005 } else { 0.0 },
            variation: if self.variation_aware {
                VariationModel::Uniform {
                    epsilon: train_epsilon,
                }
            } else {
                VariationModel::None
            },
            vary_nonlinear: self.learnable,
            n_train_mc: budget.n_train_mc,
            n_val_mc: budget.n_val_mc,
            max_epochs: budget.max_epochs,
            patience: budget.patience,
            ..TrainConfig::default()
        }
    }

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
    /// No grid has been saved at this path yet.
    Missing(PathBuf),
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
            Table2Error::Missing(path) => write!(
                f,
                "no Tab. II grid at {}: run `experiments table2` first",
                path.display()
            ),
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
            Table2Error::Missing(_) | Table2Error::MissingCell { .. } => None,
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
    /// Loads the grid the `table2` experiment saved, checking that every row
    /// carries all 8 (arm × test ε) cells that [`summarize`](crate::summarize)
    /// reads.
    ///
    /// # Errors
    ///
    /// Returns [`Table2Error::Missing`] if no file exists at `path`,
    /// [`Table2Error::Io`] or [`Table2Error::Json`] for an unreadable file,
    /// and [`Table2Error::MissingCell`] for a row that lacks a cell.
    pub fn load(path: &Path) -> Result<Self, Table2Error> {
        let text = std::fs::read_to_string(path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Table2Error::Missing(path.to_path_buf()),
            _ => Table2Error::Io(e),
        })?;
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

/// `mean ± std` with three decimals, the way every report prints accuracy.
pub(crate) fn fmt_stats(stats: &McStats) -> String {
    format!("{:.3} ± {:.3}", stats.mean, stats.std)
}

impl Report for Table2 {
    fn table(&self) -> Markdown {
        let mut header = vec!["dataset".to_string()];
        for arm in Arm::ALL {
            for eps in TEST_EPSILONS {
                header.push(format!(
                    "{} / {} @{:.0}%",
                    if arm.learnable { "learnable" } else { "fixed" },
                    if arm.variation_aware { "VA" } else { "nominal" },
                    eps * 100.0
                ));
            }
        }
        let rows = self.rows.iter().map(|row| {
            let cells = row.cells.iter().map(|c| fmt_stats(&c.stats));
            std::iter::once(row.dataset.clone()).chain(cells).collect()
        });
        Markdown {
            title: format!(
                "Tab. II: accuracy ± std on {} datasets (VA = variation-aware training; {} seeds, \
                 {} max epochs, N_train = {}, N_test = {}; averages: `table3`)",
                self.rows.len(),
                self.budget.seeds.len(),
                self.budget.max_epochs,
                self.budget.n_train_mc,
                self.budget.n_test
            ),
            header,
            rows: rows.collect(),
        }
    }
}

/// One dataset prepared for training experiments: its 60/20/20
/// train/validation/test split under the budget's split seed, plus the
/// surrogate and the budget that every training and evaluation uses.
#[derive(Debug, Clone)]
pub(crate) struct Setup<'a> {
    dataset: &'a Dataset,
    train: Dataset,
    val: Dataset,
    test: Dataset,
    surrogate: Arc<SurrogateModel>,
    budget: &'a Budget,
}

fn labeled(d: &Dataset) -> LabeledData<'_> {
    LabeledData {
        features: &d.features,
        labels: &d.labels,
    }
}

impl<'a> Setup<'a> {
    /// Splits `dataset` with the budget's split seed.
    pub(crate) fn new(
        dataset: &'a Dataset,
        surrogate: Arc<SurrogateModel>,
        budget: &'a Budget,
    ) -> Self {
        let (train, val, test) = dataset.split(budget.split_seed);
        Setup {
            dataset,
            train,
            val,
            test,
            surrogate,
            budget,
        }
    }

    /// The test split as labeled data.
    pub(crate) fn test_data(&self) -> LabeledData<'_> {
        labeled(&self.test)
    }

    /// Trains one network per budget seed and keeps the best by validation
    /// loss (Sec. IV-C).
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub(crate) fn train(
        &self,
        config: &PnnConfig,
        train_config: &TrainConfig,
    ) -> Result<Pnn, PnnError> {
        let (pnn, _) = train_best_of_seeds(
            config,
            self.surrogate.clone(),
            train_config,
            labeled(&self.train),
            labeled(&self.val),
            &self.budget.seeds,
        )?;
        Ok(pnn)
    }

    /// [`Setup::train`] with the arm's own network and training setup.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub(crate) fn train_arm(&self, arm: Arm, train_epsilon: f64) -> Result<Pnn, PnnError> {
        let train_config = arm.train_config(train_epsilon, self.budget);
        self.train(&arm.pnn_config(self.dataset), &train_config)
    }

    /// Monte-Carlo accuracy on the test split: the budget's `N_test` draws
    /// from its test seed.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub(crate) fn evaluate(
        &self,
        pnn: &Pnn,
        variation: &VariationModel,
    ) -> Result<McStats, PnnError> {
        let (n_test, seed) = (self.budget.n_test, self.budget.mc_seed);
        mc_evaluate(pnn, self.test_data(), variation, n_test, seed)
    }

    /// The Tab. II cell of an `arm` network trained at `train_epsilon` and
    /// tested at `test_epsilon`.
    fn cell(
        &self,
        pnn: &Pnn,
        arm: Arm,
        train_epsilon: f64,
        test_epsilon: f64,
    ) -> Result<CellResult, PnnError> {
        let variation = VariationModel::Uniform {
            epsilon: test_epsilon,
        };
        Ok(CellResult {
            arm,
            train_epsilon: if arm.variation_aware {
                train_epsilon
            } else {
                0.0
            },
            test_epsilon,
            stats: self.evaluate(pnn, &variation)?,
        })
    }
}

/// Trains one arm on one dataset (best of the budget's seeds) and evaluates
/// it at the given test variation.
///
/// Nominal arms ignore `train_epsilon`; variation-aware arms train at it.
/// The paper trains them at `train_epsilon == test_epsilon` (Sec. IV-C).
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
    let setup = Setup::new(dataset, surrogate, budget);
    let pnn = setup.train_arm(arm, train_epsilon)?;
    setup.cell(&pnn, arm, train_epsilon, test_epsilon)
}

/// Runs one dataset row of Tab. II: 6 trainings, 8 evaluations. Each
/// nominal arm trains once and is tested at both levels; each
/// variation-aware arm trains at the level it is tested at. The cells equal
/// the per-cell [`run_cell`] results, in the paper's column order.
///
/// # Errors
///
/// Propagates training and evaluation failures.
pub fn run_dataset_row(
    dataset: &Dataset,
    surrogate: Arc<SurrogateModel>,
    budget: &Budget,
) -> Result<DatasetRow, PnnError> {
    let setup = Setup::new(dataset, surrogate, budget);
    let mut cells = Vec::with_capacity(8);
    for arm in Arm::ALL {
        if arm.variation_aware {
            for eps in TEST_EPSILONS {
                cells.push(setup.cell(&setup.train_arm(arm, eps)?, arm, eps, eps)?);
            }
        } else {
            let pnn = setup.train_arm(arm, 0.0)?;
            for eps in TEST_EPSILONS {
                cells.push(setup.cell(&pnn, arm, 0.0, eps)?);
            }
        }
    }
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
        rows.push(run_dataset_row(dataset, surrogate.clone(), budget)?);
        eprintln!(
            "[{}/{}] {}: 6 trainings, 8 evaluations in {:.1}s",
            i + 1,
            datasets.len(),
            dataset.name,
            start.elapsed().as_secs_f64()
        );
    }
    Ok(Table2 {
        budget: budget.clone(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        crate::write_report(&path, &t).unwrap();
        let back = Table2::load(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }
}
