//! End-to-end smoke test of the experiment harness: a miniature Tab. II /
//! Tab. III pipeline over two datasets, exercising the same code paths as
//! the `table2`/`table3` experiments.
//!
//! The metric registry is process-global, so the tests in this binary
//! serialize through one mutex.

use pnc_bench::{
    headline_improvements, run_cell, run_dataset_row, run_table2, summarize, write_report, Arm,
    Budget, Table2, Table2Error, EXPERIMENTS,
};
use printed_neuromorphic::artifacts;
use printed_neuromorphic::datasets::generators::{acute_inflammation, iris};
use printed_neuromorphic::obs;
use std::sync::{Arc, Mutex, MutexGuard};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn miniature_budget() -> Budget {
    Budget {
        seeds: vec![1],
        max_epochs: 40,
        patience: 40,
        n_train_mc: 2,
        n_val_mc: 2,
        n_test: 10,
        mc_seed: 0,
        split_seed: 42,
    }
}

#[test]
fn dataset_row_trains_six_times_and_equals_the_per_cell_path() {
    let _lock = test_lock();
    let surrogate = Arc::new(artifacts::quick_surrogate().expect("quick surrogate"));
    let dataset = iris();
    let budget = Budget {
        seeds: vec![1, 2],
        ..miniature_budget()
    };

    let runs = || obs::snapshot().counter("core.train.runs").unwrap_or(0);
    let before = runs();
    let row = run_dataset_row(&dataset, surrogate.clone(), &budget).expect("row runs");
    assert_eq!(runs() - before, 6 * budget.seeds.len() as u64);

    assert_eq!(row.cells.len(), 8);
    for cell in &row.cells {
        let alone = run_cell(
            &dataset,
            cell.arm,
            cell.train_epsilon,
            cell.test_epsilon,
            surrogate.clone(),
            &budget,
        )
        .expect("cell runs");
        assert_eq!(&alone, cell, "{}", cell.arm.label());
    }
}

#[test]
fn unknown_experiment_names_list_the_valid_ones() {
    let err = pnc_bench::run("table4", &Budget::scaled()).expect_err("unknown name");
    assert!(err.to_string().starts_with("unknown experiment \"table4\""));
    for name in EXPERIMENTS {
        assert!(err.to_string().contains(name), "{err}");
    }
}

#[test]
fn miniature_grid_produces_well_formed_tables() {
    let _lock = test_lock();
    let surrogate = Arc::new(artifacts::quick_surrogate().expect("quick surrogate"));
    let datasets = vec![acute_inflammation(), iris()];
    let budget = miniature_budget();

    let table2 = run_table2(&datasets, surrogate, &budget).expect("grid runs");
    assert_eq!(table2.rows.len(), 2);
    for row in &table2.rows {
        // The paper's 8-column layout, in order.
        assert_eq!(row.cells.len(), 8);
        // (learnable, variation-aware, test ε) per column.
        let columns = [
            (false, false, 0.05),
            (false, false, 0.10),
            (false, true, 0.05),
            (false, true, 0.10),
            (true, false, 0.05),
            (true, false, 0.10),
            (true, true, 0.05),
            (true, true, 0.10),
        ];
        let expected_arms = columns.map(|(learnable, variation_aware, eps)| {
            let arm = Arm {
                learnable,
                variation_aware,
            };
            (arm, eps)
        });
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

    // Round trip the artifact the experiments exchange.
    let path = std::env::temp_dir().join("pnc_harness_smoke_table2.json");
    write_report(&path, &table2).expect("saves");
    let back = Table2::load(&path).expect("loads");
    assert_eq!(back.rows.len(), table2.rows.len());

    // A cached grid with a cell dropped is refused with a typed error, not
    // left for `summarize` to panic on.
    let mut torn = table2.clone();
    let dropped = torn.rows[0].cells.remove(3);
    write_report(&path, &torn).expect("saves");
    match Table2::load(&path) {
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
    // With no grid saved, `table3` says which experiment to run first.
    std::fs::remove_file(&path).ok();
    match Table2::load(&path) {
        Err(e @ Table2Error::Missing(_)) => assert!(e.to_string().contains("experiments table2")),
        other => panic!("expected Missing, got {other:?}"),
    }
}
