//! End-to-end serving contract: train a real Iris pNN, export it through
//! `pnc-core`'s artifact seam, load it back through the [`ModelRegistry`],
//! and serve concurrent traffic — at 1, 2, and 8 worker threads, through
//! the in-process path and the framed-TCP path.
//!
//! The load-bearing assertion is **byte identity**: every served response
//! must carry exactly the f64 bits a direct single-sample
//! [`InferencePlan`] call produces, regardless of how the micro-batcher
//! coalesced the traffic or which worker ran the batch.

use pnc_core::{
    InferencePlan, LabeledData, Pnn, PnnArtifact, PnnConfig, TrainConfig, Trainer, VariationModel,
};
use pnc_datasets::generators::iris;
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_serve::{wire, ModelRegistry, ServeConfig, ServeError, Server};
use pnc_surrogate::{
    build_dataset, train_surrogate, DatasetConfig, SurrogateModel, TrainConfig as SurrogateTrain,
};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn surrogate() -> Arc<SurrogateModel> {
    static CELL: OnceLock<Arc<SurrogateModel>> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = build_dataset(&DatasetConfig::new(150, 31), None).expect("builds");
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

/// A briefly-trained Iris network, its exported artifact, and the held-out
/// feature rows to serve — built once, shared by every test.
struct Fixture {
    artifact: PnnArtifact,
    test_rows: Vec<Vec<f64>>,
    /// Reference bits from direct single-sample plan calls.
    reference: Vec<(Vec<u64>, usize)>,
}

fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = iris();
        let (train, val, test) = data.split(7);
        let config = PnnConfig::for_dataset(data.num_features(), data.num_classes).with_seed(13);
        let mut pnn = Pnn::new(config, surrogate()).expect("valid config");
        Trainer::new(TrainConfig {
            variation: VariationModel::None,
            n_train_mc: 1,
            n_val_mc: 1,
            max_epochs: 6,
            patience: 6,
            parallel: ParallelConfig::serial(),
            ..TrainConfig::default()
        })
        .train(
            &mut pnn,
            LabeledData::new(&train.features, &train.labels).expect("train data"),
            LabeledData::new(&val.features, &val.labels).expect("val data"),
        )
        .expect("trains");

        let artifact = PnnArtifact::from_pnn(&pnn, "Iris").expect("exports");

        // Reference: direct single-sample plan calls — one row per infer,
        // the exact path serving must be indistinguishable from.
        let mut plan = InferencePlan::compile_artifact(&artifact).expect("compiles");
        let rows = test.features.rows();
        let mut test_rows = Vec::with_capacity(rows);
        let mut reference = Vec::with_capacity(rows);
        for i in 0..rows {
            let row: Vec<f64> = test.features.row(i).to_vec();
            let x = Matrix::from_fn(1, row.len(), |_, j| row[j]);
            let out = plan.infer(&x).expect("single-sample infer");
            let class = plan.predict(&x).expect("single-sample predict")[0];
            reference.push((out.row(0).iter().map(|v| v.to_bits()).collect(), class));
            test_rows.push(row);
        }
        Fixture {
            artifact,
            test_rows,
            reference,
        }
    })
}

/// A unique scratch directory per test (no tempfile dependency).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pnc-serve-e2e-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn registry_from_disk(tag: &str) -> ModelRegistry {
    let fx = fixture();
    let dir = scratch_dir(tag);
    fx.artifact.save(&dir.join("iris.json")).expect("saves");
    let mut registry = ModelRegistry::new(pnc_core::PlanPrecision::F64, 32);
    let loaded = registry.load_dir(&dir).expect("loads");
    assert_eq!(loaded, 1);
    assert_eq!(registry.names().collect::<Vec<_>>(), vec!["Iris"]);
    registry
}

fn serving_config(worker_threads: usize) -> ServeConfig {
    ServeConfig {
        // A small max_batch forces real coalescing *and* real partial
        // batches under the concurrent load below.
        max_batch: 4,
        queue_capacity: 256,
        worker_threads,
    }
}

/// The tentpole contract: at every worker count, hammered by 8 client
/// threads at once, every response is byte-identical to the direct
/// single-sample plan call.
#[test]
fn concurrent_serving_is_byte_identical_at_1_2_8_worker_threads() {
    let fx = fixture();
    let registry = registry_from_disk("inproc");
    for worker_threads in [1usize, 2, 8] {
        let server = Arc::new(Server::start(&registry, serving_config(worker_threads)));
        let mut clients = Vec::new();
        for c in 0..8u64 {
            let server = Arc::clone(&server);
            clients.push(std::thread::spawn(move || {
                let fx = fixture();
                // Each client walks the rows from a different offset so
                // batches mix unrelated requests.
                let n = fx.test_rows.len();
                for step in 0..2 * n {
                    let i = (step + c as usize * 3) % n;
                    let scored = server
                        .classify("Iris", &fx.test_rows[i])
                        .expect("classify succeeds");
                    let bits: Vec<u64> = scored.scores.iter().map(|v| v.to_bits()).collect();
                    let (ref_bits, ref_class) = &fx.reference[i];
                    assert_eq!(
                        &bits, ref_bits,
                        "row {i}: served scores differ from direct plan bits \
                         at {worker_threads} worker threads"
                    );
                    assert_eq!(scored.class, *ref_class, "row {i}: class differs");
                }
            }));
        }
        for client in clients {
            client.join().expect("client thread");
        }
        server.shutdown();
        // After shutdown: typed rejection, not a hang or a panic.
        assert!(matches!(
            server.classify("Iris", &fx.test_rows[0]),
            Err(pnc_serve::ServeError::ShuttingDown)
        ));
    }
}

/// The same contract through the framed-TCP front door.
#[test]
fn tcp_round_trip_preserves_bit_identity() {
    let fx = fixture();
    let registry = registry_from_disk("tcp");
    let server = Arc::new(Server::start(&registry, serving_config(2)));
    let tcp = wire::TcpServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let addr = tcp.local_addr();

    let mut clients = Vec::new();
    for c in 0..4u64 {
        clients.push(std::thread::spawn(move || {
            let fx = fixture();
            let mut client = wire::WireClient::connect(addr).expect("connects");
            let n = fx.test_rows.len();
            for step in 0..n {
                let i = (step + c as usize * 5) % n;
                let scored = client
                    .classify("Iris", &fx.test_rows[i])
                    .expect("tcp classify");
                let bits: Vec<u64> = scored.scores.iter().map(|v| v.to_bits()).collect();
                let (ref_bits, ref_class) = &fx.reference[i];
                assert_eq!(&bits, ref_bits, "row {i}: TCP hop changed f64 bits");
                assert_eq!(scored.class, *ref_class, "row {i}: TCP class differs");
            }
        }));
    }
    for client in clients {
        client.join().expect("tcp client thread");
    }

    // Typed errors cross the wire with their kinds intact.
    let mut client = wire::WireClient::connect(addr).expect("connects");
    assert!(matches!(
        client.classify("NoSuchModel", &fx.test_rows[0]),
        Err(pnc_serve::ServeError::UnknownModel { .. })
    ));
    assert!(matches!(
        client.classify("Iris", &[1.0]),
        Err(pnc_serve::ServeError::BadRequest { .. })
    ));

    tcp.shutdown();
    server.shutdown();
}

/// Sequential round trips on one connection take the serving time, not a
/// Nagle/delayed-ACK stall: a frame written as two writes without
/// `TCP_NODELAY` waits up to 40 ms for the peer's ACK, each way.
#[test]
fn sequential_tcp_round_trips_do_not_stall() {
    let fx = fixture();
    let registry = registry_from_disk("stall");
    let server = Arc::new(Server::start(&registry, serving_config(1)));
    let tcp = wire::TcpServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut client = wire::WireClient::connect(tcp.local_addr()).expect("connects");
    let start = Instant::now();
    for step in 0..50 {
        let i = step % fx.test_rows.len();
        let scored = client
            .classify("Iris", &fx.test_rows[i])
            .expect("tcp classify");
        assert_eq!(
            scored.class, fx.reference[i].1,
            "row {i}: TCP class differs"
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 sequential round trips took {elapsed:?}"
    );
    tcp.shutdown();
    server.shutdown();
}

/// Registry-level rejection paths: corrupt artifacts never become servable,
/// duplicates never shadow each other.
#[test]
fn registry_rejects_corrupt_and_duplicate_artifacts() {
    let fx = fixture();
    let mut registry = ModelRegistry::new(pnc_core::PlanPrecision::F64, 8);
    registry.insert(fx.artifact.clone()).expect("first insert");
    let err = registry
        .insert(fx.artifact.clone())
        .expect_err("duplicate name must be rejected");
    assert_eq!(err.kind(), "config");

    // A non-finite weight (as a corrupt JSON round trip would produce it)
    // is rejected at load time with the artifact kind.
    let mut corrupt = fx.artifact.clone();
    corrupt.name = "IrisCorrupt".to_string();
    corrupt.layers[0].w_pos[0] = f64::NAN;
    let err = registry
        .insert(corrupt)
        .expect_err("non-finite artifact must be rejected");
    assert_eq!(err.kind(), "artifact");

    // A hostile shape whose (in+2)*out length wraps around usize must be
    // a typed artifact error, not a panic while sizing the plan buffers.
    let mut overflowing = fx.artifact.clone();
    overflowing.name = "IrisOverflow".to_string();
    let out_dim = overflowing.layers[0].out_dim;
    overflowing.in_dim = usize::MAX;
    overflowing.layers[0].in_dim = usize::MAX;
    overflowing.layers[0].w_pos.truncate(out_dim);
    overflowing.layers[0].w_neg.truncate(out_dim);
    let err = registry
        .insert(overflowing)
        .expect_err("overflowing artifact must be rejected");
    assert!(matches!(err, ServeError::Artifact(_)), "got {err:?}");
    assert_eq!(
        registry.len(),
        1,
        "rejected artifacts must not be half-loaded"
    );
}

/// Overload backpressure under the smallest possible queue: some requests
/// are rejected with the typed overload error, and every accepted request
/// still gets the bit-exact answer.
///
/// Without a dwell a worker frees the 1-deep queue as soon as it can, so
/// whether any single round overloads depends on scheduling. Rounds repeat
/// until one sheds load, within a time budget.
#[test]
fn overload_rejections_are_typed_and_accepted_requests_stay_exact() {
    let registry = registry_from_disk("overload");
    let config = ServeConfig {
        max_batch: 1,
        queue_capacity: 1,
        worker_threads: 1,
    };
    let server = Arc::new(Server::start(&registry, config));
    let budget = Instant::now() + Duration::from_secs(20);
    let mut rejected = 0usize;
    while rejected == 0 && Instant::now() < budget {
        let mut clients = Vec::new();
        for _ in 0..8 {
            let server = Arc::clone(&server);
            clients.push(std::thread::spawn(move || {
                let fx = fixture();
                let mut overloaded = 0usize;
                for i in 0..50 {
                    let i = i % fx.test_rows.len();
                    match server.classify("Iris", &fx.test_rows[i]) {
                        Ok(scored) => {
                            let bits: Vec<u64> =
                                scored.scores.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(
                                &bits, &fx.reference[i].0,
                                "accepted answer must stay exact"
                            );
                        }
                        Err(pnc_serve::ServeError::Overloaded { model }) => {
                            assert_eq!(model, "Iris");
                            overloaded += 1;
                        }
                        Err(other) => panic!("only overload rejections are acceptable: {other}"),
                    }
                }
                overloaded
            }));
        }
        rejected += clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .sum::<usize>();
    }
    assert!(
        rejected > 0,
        "a 1-deep queue under 8 hammering clients must shed load"
    );
    server.shutdown();
}

/// Sequential in-process requests are answered as soon as a worker is
/// free: nothing waits for companions that will never come. A 200 µs dwell
/// per request would need at least 200 ms here. The best of three rounds
/// counts, so a round slowed by the other tests' load does not fail it.
#[test]
fn sequential_inproc_requests_do_not_dwell() {
    let fx = fixture();
    let registry = registry_from_disk("dwell");
    let server = Server::start(&registry, ServeConfig::default());
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        for step in 0..1_000 {
            let i = step % fx.test_rows.len();
            let scored = server
                .classify("Iris", &fx.test_rows[i])
                .expect("classify succeeds");
            assert_eq!(scored.class, fx.reference[i].1, "row {i}: class differs");
        }
        best = best.min(start.elapsed());
    }
    assert!(
        best < Duration::from_millis(100),
        "1000 sequential requests took {best:?} at best"
    );
    server.shutdown();
}

/// Non-finite features are rejected as bad requests, in process and over
/// the wire, instead of being served as NaN scores.
#[test]
fn non_finite_features_are_rejected() {
    let fx = fixture();
    let registry = registry_from_disk("nonfinite");
    let server = Arc::new(Server::start(&registry, serving_config(1)));
    let tcp = wire::TcpServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut client = wire::WireClient::connect(tcp.local_addr()).expect("connects");
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut row = fx.test_rows[0].clone();
        row[1] = bad;
        assert!(
            matches!(
                server.classify("Iris", &row),
                Err(pnc_serve::ServeError::BadRequest { .. })
            ),
            "in-process {bad} must be a bad request"
        );
        assert!(
            matches!(
                client.classify("Iris", &row),
                Err(pnc_serve::ServeError::BadRequest { .. })
            ),
            "wire {bad} must be a bad request"
        );
    }
    // The connection stays usable after a rejection.
    let scored = client
        .classify("Iris", &fx.test_rows[0])
        .expect("tcp classify");
    assert_eq!(scored.class, fx.reference[0].1);
    tcp.shutdown();
    server.shutdown();
}
