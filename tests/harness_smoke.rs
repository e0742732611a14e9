//! End-to-end smoke test of the experiment harness: a miniature Tab. II /
//! Tab. III pipeline over two datasets, exercising the same code paths as
//! the `table2`/`table3` binaries.

use pnc_bench::{headline_improvements, run_table2, summarize, Arm, Budget, Table2Error};
use printed_neuromorphic::artifacts;
use printed_neuromorphic::datasets::generators::{acute_inflammation, iris};
use std::sync::Arc;

#[test]
fn miniature_grid_produces_well_formed_tables() {
    let surrogate = Arc::new(artifacts::quick_surrogate().expect("quick surrogate"));
    let datasets = vec![acute_inflammation(), iris()];
    let budget = Budget {
        seeds: vec![1],
        max_epochs: 40,
        patience: 40,
        n_train_mc: 2,
        n_val_mc: 2,
        n_test: 10,
        mc_seed: 0,
        split_seed: 42,
    };

    let table2 = run_table2(&datasets, surrogate, &budget).expect("grid runs");
    assert_eq!(table2.rows.len(), 2);
    for row in &table2.rows {
        // The paper's 8-column layout, in order.
        assert_eq!(row.cells.len(), 8);
        let expected_arms = [
            (
                Arm {
                    learnable: false,
                    variation_aware: false,
                },
                0.05,
            ),
            (
                Arm {
                    learnable: false,
                    variation_aware: false,
                },
                0.10,
            ),
            (
                Arm {
                    learnable: false,
                    variation_aware: true,
                },
                0.05,
            ),
            (
                Arm {
                    learnable: false,
                    variation_aware: true,
                },
                0.10,
            ),
            (
                Arm {
                    learnable: true,
                    variation_aware: false,
                },
                0.05,
            ),
            (
                Arm {
                    learnable: true,
                    variation_aware: false,
                },
                0.10,
            ),
            (
                Arm {
                    learnable: true,
                    variation_aware: true,
                },
                0.05,
            ),
            (
                Arm {
                    learnable: true,
                    variation_aware: true,
                },
                0.10,
            ),
        ];
        for (cell, (arm, eps)) in row.cells.iter().zip(expected_arms) {
            assert_eq!(cell.arm, arm);
            assert!((cell.test_epsilon - eps).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&cell.stats.mean), "{:?}", cell.stats);
            assert!(cell.stats.std >= 0.0);
            assert_eq!(cell.stats.accuracies.len(), budget.n_test);
            // Variation-aware arms train at the tested level; nominal at 0.
            if arm.variation_aware {
                assert!((cell.train_epsilon - eps).abs() < 1e-12);
            } else {
                assert_eq!(cell.train_epsilon, 0.0);
            }
        }
    }

    let table3 = summarize(&table2);
    assert_eq!(table3.rows.len(), 4);
    let headline = headline_improvements(&table3);
    assert!(headline.accuracy_gain_10.is_finite());
    assert!(headline.std_reduction_10.is_finite());

    // Round trip the artifact the binaries exchange.
    let path = std::env::temp_dir().join("pnc_harness_smoke_table2.json");
    table2.save(&path).expect("saves");
    let back = pnc_bench::Table2::load(&path).expect("loads");
    assert_eq!(back.rows.len(), table2.rows.len());

    // A cached grid with a cell dropped is refused with a typed error, not
    // left for `summarize` to panic on.
    let mut torn = table2.clone();
    let dropped = torn.rows[0].cells.remove(3);
    torn.save(&path).expect("saves");
    match pnc_bench::Table2::load(&path) {
        Err(Table2Error::MissingCell {
            dataset,
            arm,
            test_epsilon,
        }) => {
            assert_eq!(dataset, torn.rows[0].dataset);
            assert_eq!(arm, dropped.arm);
            assert_eq!(test_epsilon, dropped.test_epsilon);
        }
        other => panic!("expected MissingCell, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}
