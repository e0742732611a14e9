//! Parity contract of the compiled inference plan (DESIGN.md §12),
//! exercised on the paper's network topology across the full 13-dataset
//! benchmark suite: the f64 [`InferencePlan`] is **bit-identical** to the
//! autodiff-graph forward — exact `assert_eq!`, at every batch chunking and
//! at 1/2/8 threads, on trained and freshly initialized networks alike.

use pnc_core::{
    InferencePlan, LabeledData, NonlinearityGranularity, Pnn, PnnConfig, TrainConfig, Trainer,
    VariationModel,
};
use pnc_datasets::{benchmark_suite, Dataset};
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_surrogate::{
    build_dataset, train_surrogate, DatasetConfig, SurrogateModel, TrainConfig as SurrogateTrain,
};
use std::sync::{Arc, OnceLock};

fn surrogate() -> Arc<SurrogateModel> {
    static CELL: OnceLock<Arc<SurrogateModel>> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = build_dataset(&DatasetConfig {
            samples: 150,
            sweep_points: 31,
        })
        .expect("builds");
        Arc::new(
            train_surrogate(
                &data,
                &SurrogateTrain {
                    layer_sizes: vec![10, 8, 4],
                    max_epochs: 300,
                    patience: 100,
                    ..SurrogateTrain::default()
                },
            )
            .expect("trains")
            .0,
        )
    })
    .clone()
}

/// A network with the paper's `#input-3-#output` topology for a dataset,
/// briefly trained when `epochs > 0` (enough to move every parameter off
/// its initialization, so the plans face *trained* weights and circuits).
fn network_for(ds: &Dataset, train: &Dataset, val: &Dataset, seed: u64, epochs: usize) -> Pnn {
    let config = PnnConfig::for_dataset(ds.num_features(), ds.num_classes).with_seed(seed);
    let mut pnn = Pnn::new(config, surrogate()).expect("valid config");
    if epochs > 0 {
        Trainer::new(TrainConfig {
            variation: VariationModel::None,
            n_train_mc: 1,
            n_val_mc: 1,
            max_epochs: epochs,
            patience: epochs,
            parallel: ParallelConfig::serial(),
            ..TrainConfig::default()
        })
        .train(
            &mut pnn,
            LabeledData::new(&train.features, &train.labels).expect("train data"),
            LabeledData::new(&val.features, &val.labels).expect("val data"),
        )
        .expect("trains");
    }
    pnn
}

/// Small datasets get real training epochs; the larger ones ride along
/// untrained (same forward math, keeps the suite's runtime bounded).
fn training_epochs(ds: &Dataset) -> usize {
    if ds.len() <= 200 {
        6
    } else {
        0
    }
}

#[test]
fn f64_plan_is_bit_identical_on_all_13_datasets() {
    let mut checked = 0;
    for (i, ds) in benchmark_suite().iter().enumerate() {
        let (train, val, test) = ds.split(7);
        let pnn = network_for(ds, &train, &val, 40 + i as u64, training_epochs(ds));
        let graph_out = pnn.infer(&test.features, None).expect("graph forward");
        let mut plan = InferencePlan::compile(&pnn).expect("compiles");
        let plan_out = plan.infer(&test.features).expect("plan forward");
        assert_eq!(graph_out, plan_out, "{}: plan vs graph differ", ds.name);
        assert_eq!(
            pnn.predict(&test.features, None).expect("graph predict"),
            plan.predict(&test.features).expect("plan predict"),
            "{}: predictions differ",
            ds.name
        );
        checked += 1;
    }
    assert_eq!(checked, 13, "the suite must cover all 13 datasets");
}

#[test]
fn f64_plan_is_bit_identical_at_1_2_8_threads_and_any_chunking() {
    let suite = benchmark_suite();
    // Three datasets spanning small/medium feature counts keep this fast;
    // thread count and chunking cannot interact with the data anyway (the
    // forward has no cross-row coupling).
    for ds in suite.iter().take(3) {
        let (train, val, test) = ds.split(11);
        let pnn = network_for(ds, &train, &val, 5, training_epochs(ds));
        let graph_out = pnn.infer(&test.features, None).expect("graph forward");
        for capacity in [1, 3, 64] {
            let mut plan = InferencePlan::compile_with_capacity(&pnn, capacity).expect("compiles");
            assert_eq!(
                graph_out,
                plan.infer(&test.features).expect("plan forward"),
                "{}: capacity {capacity} chunking changed bits",
                ds.name
            );
            for threads in [1, 2, 8] {
                let par = plan
                    .infer_parallel(&test.features, &ParallelConfig::with_threads(threads))
                    .expect("parallel forward");
                assert_eq!(
                    graph_out, par,
                    "{}: {threads} threads / capacity {capacity} changed bits",
                    ds.name
                );
            }
        }
    }
}

#[test]
fn f64_plan_covers_every_granularity_and_headless_output() {
    let ds = &benchmark_suite()[0];
    let (_, _, test) = ds.split(3);
    for granularity in [
        NonlinearityGranularity::Shared,
        NonlinearityGranularity::PerLayer,
        NonlinearityGranularity::PerNeuron,
    ] {
        for activation_on_output in [true, false] {
            let mut config = PnnConfig::for_dataset(ds.num_features(), ds.num_classes);
            config.granularity = granularity;
            config.activation_on_output = activation_on_output;
            let pnn = Pnn::new(config, surrogate()).expect("valid config");
            let graph_out = pnn.infer(&test.features, None).expect("graph forward");
            let mut plan = InferencePlan::compile(&pnn).expect("compiles");
            assert_eq!(
                graph_out,
                plan.infer(&test.features).expect("plan forward"),
                "{granularity:?} / activation_on_output={activation_on_output}"
            );
        }
    }
}

/// Micro-batch chunking edge cases: an empty batch (0 rows — a serving
/// micro-batcher flushing an empty queue), and row counts sitting exactly
/// on, one under, and one over the capacity boundary. Chunking must never
/// panic and never change bits.
#[test]
fn empty_and_capacity_boundary_batches_chunk_correctly_in_f64() {
    let ds = &benchmark_suite()[0];
    let (train, val, test) = ds.split(29);
    let pnn = network_for(ds, &train, &val, 3, training_epochs(ds));
    let graph_all = pnn.infer(&test.features, None).expect("graph forward");

    for capacity in [1, 3, 4] {
        let mut plan64 = InferencePlan::compile_with_capacity(&pnn, capacity).expect("f64");

        // 0 rows: must succeed with a 0-row output, not panic.
        let empty = Matrix::zeros(0, ds.num_features());
        assert_eq!(
            plan64.infer(&empty).expect("f64 empty").shape(),
            (0, ds.num_classes),
            "f64 empty batch"
        );
        assert_eq!(
            plan64.predict(&empty).expect("f64 empty predict"),
            Vec::<usize>::new()
        );
        // The parallel path must also tolerate 0 rows.
        for threads in [1, 2] {
            let par = ParallelConfig::with_threads(threads);
            assert_eq!(
                plan64
                    .infer_parallel(&empty, &par)
                    .expect("f64 par empty")
                    .shape(),
                (0, ds.num_classes)
            );
        }

        // capacity-1, capacity, and capacity+1 rows: the exact boundary at
        // which the chunk loop rolls over. Bits must match the graph's
        // full-batch rows.
        for rows in [capacity.saturating_sub(1), capacity, capacity + 1] {
            let rows = rows.min(test.features.rows());
            let x = Matrix::from_fn(rows, ds.num_features(), |i, j| test.features[(i, j)]);
            let out64 = plan64.infer(&x).expect("f64 boundary");
            for i in 0..rows {
                assert_eq!(
                    out64.row(i),
                    graph_all.row(i),
                    "f64 cap {capacity} rows {rows}"
                );
            }
        }
    }
}

#[test]
fn plan_rejects_wrong_input_width_and_output_shape() {
    let ds = &benchmark_suite()[0];
    let pnn = Pnn::new(
        PnnConfig::for_dataset(ds.num_features(), ds.num_classes),
        surrogate(),
    )
    .expect("valid config");
    let mut plan = InferencePlan::compile(&pnn).expect("compiles");
    let bad = Matrix::zeros(2, ds.num_features() + 1);
    assert!(plan.infer(&bad).is_err(), "wrong width must be rejected");
    let good = Matrix::zeros(2, ds.num_features());
    let mut wrong_out = Matrix::zeros(3, ds.num_classes);
    assert!(
        plan.infer_into(&good, &mut wrong_out).is_err(),
        "wrong output shape must be rejected"
    );
}
