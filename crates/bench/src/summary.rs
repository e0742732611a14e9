//! Tab. III: per-arm averages over all datasets and the headline
//! improvement numbers.

use crate::experiment::{Arm, Table2, TEST_EPSILONS};
use crate::runner::{Markdown, Report};
use pnc_linalg::stats;
use serde::{Deserialize, Serialize};

/// One Tab. III row: an arm's accuracy mean ± std averaged over the
/// datasets, per test variation level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// The training setup.
    pub arm: Arm,
    /// Average accuracy at 5 % test variation.
    pub mean_5: f64,
    /// Average accuracy std at 5 %.
    pub std_5: f64,
    /// Average accuracy at 10 % test variation.
    pub mean_10: f64,
    /// Average accuracy std at 10 %.
    pub std_10: f64,
}

/// The ablation summary (Tab. III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3 {
    /// Rows in the paper's order: full method first, baseline last.
    pub rows: Vec<SummaryRow>,
}

/// Averages a Tab. II result into Tab. III.
///
/// # Panics
///
/// Panics if a row lacks one of the 8 cells. Tables from
/// [`run_table2`](crate::run_table2) and [`Table2::load`] always have them.
pub fn summarize(table2: &Table2) -> Table3 {
    // Arm::ALL runs baseline first; Tab. III runs full method first.
    let rows = Arm::ALL
        .into_iter()
        .rev()
        .map(|arm| {
            let collect = |eps: f64| -> (f64, f64) {
                let mut means = Vec::new();
                let mut stds = Vec::new();
                for row in &table2.rows {
                    let cell = row
                        .cell(arm, eps)
                        // pnc-lint: allow(no-panic-in-lib) — bench-internal: documented `# Panics` contract; `run_table2` builds all 8 cells and `Table2::load` rejects a row missing one
                        // pnc-lint: allow(panic-reachability) — rows come from `run_table2` or from `Table2::load`, which returns `Table2Error::MissingCell` for a file lacking a cell
                        .expect("8-cell row layout");
                    means.push(cell.stats.mean);
                    stds.push(cell.stats.std);
                }
                (stats::mean(&means), stats::mean(&stds))
            };
            let [(mean_5, std_5), (mean_10, std_10)] = TEST_EPSILONS.map(collect);
            SummaryRow {
                arm,
                mean_5,
                std_5,
                mean_10,
                std_10,
            }
        })
        .collect();
    Table3 { rows }
}

/// The paper's headline numbers (Sec. IV-D): relative accuracy improvement
/// and relative robustness (std reduction) of the full method over the
/// baseline, at 5 % and 10 % variation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// Relative mean-accuracy improvement at 5 % (paper: ≈ +19 %).
    pub accuracy_gain_5: f64,
    /// Relative mean-accuracy improvement at 10 % (paper: ≈ +26 %).
    pub accuracy_gain_10: f64,
    /// Relative std reduction at 5 % (paper: ≈ 73 %).
    pub std_reduction_5: f64,
    /// Relative std reduction at 10 % (paper: ≈ 75 %).
    pub std_reduction_10: f64,
}

/// Computes the headline improvements from a Tab. III summary.
///
/// A degenerate baseline cell (zero or non-finite, as produced by an empty
/// result set) yields `0.0` for the affected ratio rather than letting
/// `inf`/NaN leak into serialized artifacts.
///
/// # Panics
///
/// Panics if the summary does not contain both the full-method and baseline
/// rows.
pub fn headline_improvements(table3: &Table3) -> Headline {
    let full = table3
        .rows
        .iter()
        .find(|r| r.arm.learnable && r.arm.variation_aware)
        // pnc-lint: allow(no-panic-in-lib) — bench-internal: documented `# Panics` contract; Table 3 always includes the full arm
        // pnc-lint: allow(panic-reachability) — `headline_improvements` is bench tooling with a documented `# Panics` contract on self-produced tables
        .expect("full-method row");
    let base = table3
        .rows
        .iter()
        .find(|r| !r.arm.learnable && !r.arm.variation_aware)
        // pnc-lint: allow(no-panic-in-lib) — bench-internal: documented `# Panics` contract; Table 3 always includes the baseline arm
        // pnc-lint: allow(panic-reachability) — `headline_improvements` is bench tooling with a documented `# Panics` contract on self-produced tables
        .expect("baseline row");
    let ratio = |num: f64, den: f64| -> f64 {
        let r = num / den;
        if r.is_finite() {
            r
        } else {
            0.0
        }
    };
    Headline {
        accuracy_gain_5: ratio(full.mean_5 - base.mean_5, base.mean_5),
        accuracy_gain_10: ratio(full.mean_10 - base.mean_10, base.mean_10),
        std_reduction_5: ratio(base.std_5 - full.std_5, base.std_5),
        std_reduction_10: ratio(base.std_10 - full.std_10, base.std_10),
    }
}

/// The `table3` report: Tab. III and the headline improvements derived
/// from one Tab. II grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Per-arm averages over the grid's datasets.
    pub table3: Table3,
    /// The full method's improvements over the baseline.
    pub headline: Headline,
}

impl Summary {
    /// Summarizes `table2`; see [`summarize`] for the panic contract.
    pub fn of(table2: &Table2) -> Self {
        let table3 = summarize(table2);
        let headline = headline_improvements(&table3);
        Summary { table3, headline }
    }
}

impl Report for Summary {
    fn table(&self) -> Markdown {
        let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
        let pct = |x: f64| format!("{:.1} %", x * 100.0);
        let mut rows: Vec<Vec<String>> = self
            .table3
            .rows
            .iter()
            .map(|r| {
                vec![
                    yes_no(r.arm.learnable),
                    yes_no(r.arm.variation_aware),
                    format!("{:.3} ± {:.3}", r.mean_5, r.std_5),
                    format!("{:.3} ± {:.3}", r.mean_10, r.std_10),
                ]
            })
            .collect();
        let h = &self.headline;
        rows.push(vec![
            "accuracy gain".into(),
            "(paper: 19 % / 26 %)".into(),
            pct(h.accuracy_gain_5),
            pct(h.accuracy_gain_10),
        ]);
        rows.push(vec![
            "std reduction".into(),
            "(paper: ≈73 % / ≈75 %)".into(),
            pct(h.std_reduction_5),
            pct(h.std_reduction_10),
        ]);
        Markdown {
            title: "Tab. III: ablation summary over the Tab. II datasets, then the full method's \
                    improvement over the baseline (Sec. IV-D)"
                .into(),
            header: [
                "learnable circuit",
                "variation-aware",
                "ε_test = 5 %",
                "ε_test = 10 %",
            ]
            .map(String::from)
            .to_vec(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Budget, CellResult, DatasetRow};
    use pnc_core::McStats;

    fn cell(arm: Arm, eps: f64, mean: f64, std: f64) -> CellResult {
        CellResult {
            arm,
            train_epsilon: if arm.variation_aware { eps } else { 0.0 },
            test_epsilon: eps,
            stats: McStats {
                mean,
                std,
                accuracies: vec![mean],
            },
        }
    }

    fn synthetic_table() -> Table2 {
        // Mimics the paper's Tab. III values as a single-"dataset" average,
        // as (learnable, variation-aware, test ε, mean, std).
        let paper = [
            (false, false, 0.05, 0.678, 0.085),
            (false, false, 0.10, 0.626, 0.118),
            (false, true, 0.05, 0.731, 0.053),
            (false, true, 0.10, 0.691, 0.080),
            (true, false, 0.05, 0.752, 0.095),
            (true, false, 0.10, 0.697, 0.130),
            (true, true, 0.05, 0.809, 0.023),
            (true, true, 0.10, 0.786, 0.029),
        ];
        let cells = paper
            .into_iter()
            .map(|(learnable, variation_aware, eps, mean, std)| {
                let arm = Arm {
                    learnable,
                    variation_aware,
                };
                cell(arm, eps, mean, std)
            })
            .collect();
        Table2 {
            budget: Budget::scaled(),
            rows: vec![DatasetRow {
                dataset: "avg".into(),
                cells,
            }],
        }
    }

    #[test]
    fn summarize_reproduces_paper_layout() {
        let t3 = summarize(&synthetic_table());
        assert_eq!(t3.rows.len(), 4);
        // Full method first.
        assert!(t3.rows[0].arm.learnable && t3.rows[0].arm.variation_aware);
        assert!((t3.rows[0].mean_5 - 0.809).abs() < 1e-12);
        // Baseline last.
        assert!(!t3.rows[3].arm.learnable && !t3.rows[3].arm.variation_aware);
        assert!((t3.rows[3].std_10 - 0.118).abs() < 1e-12);
    }

    #[test]
    fn headline_stays_finite_on_degenerate_baseline() {
        // An empty result set yields all-zero summary cells; the headline
        // ratios must degrade to 0.0, never to inf/NaN in JSON artifacts.
        let mut t3 = summarize(&synthetic_table());
        for row in &mut t3.rows {
            if !row.arm.learnable && !row.arm.variation_aware {
                row.mean_5 = 0.0;
                row.std_10 = 0.0;
            }
        }
        let h = headline_improvements(&t3);
        for v in [
            h.accuracy_gain_5,
            h.accuracy_gain_10,
            h.std_reduction_5,
            h.std_reduction_10,
        ] {
            assert!(v.is_finite(), "{h:?}");
        }
        assert_eq!(h.accuracy_gain_5, 0.0);
        assert_eq!(h.std_reduction_10, 0.0);
    }

    #[test]
    fn headline_matches_paper_arithmetic() {
        // Feeding the paper's own Tab. III numbers must reproduce its
        // claimed improvements: +19 % / +26 % accuracy, −73 % / −75 % std.
        let h = headline_improvements(&summarize(&synthetic_table()));
        assert!((h.accuracy_gain_5 - 0.19).abs() < 0.01, "{h:?}");
        assert!((h.accuracy_gain_10 - 0.26).abs() < 0.01, "{h:?}");
        assert!((h.std_reduction_5 - 0.73).abs() < 0.01, "{h:?}");
        assert!((h.std_reduction_10 - 0.75).abs() < 0.01, "{h:?}");
    }
}
