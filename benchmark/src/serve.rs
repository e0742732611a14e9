//! `serve_closed` and `serve_open`: the serving front as a client sees it,
//! over the framed-TCP protocol.
//!
//! Set-up trains three small networks (Iris, Seeds, Cardiotocography; 20
//! nominal epochs against the committed default surrogate), exports them,
//! loads the artifacts into a `ModelRegistry` and starts a `Server` with
//! the default `ServeConfig` behind a `TcpServer`. Load then comes from
//! this process on a seeded model/row mix:
//!
//! * closed loop — [`CLIENTS`] `WireClient` connections, each sending its
//!   next request when the previous answer arrives;
//! * open loop — one pipelined connection (the protocol echoes each
//!   request's `id`), a sender thread writing at Poisson due times and a
//!   receiver thread reading; latency runs from the due time.

use crate::counters::{ratio, Window};
use crate::stats::{self, SplitMix64};
use crate::trace::Recorder;
use crate::{labeled, Outcome, RunArgs, THREADS};
use pnc_core::{
    CompiledPnn, InferencePlan, PlanPrecision, Pnn, PnnArtifact, PnnConfig, TrainConfig, Trainer,
    VariationModel,
};
use pnc_datasets::generators::{cardiotocography, iris, seeds};
use pnc_linalg::{Matrix, ParallelConfig};
use pnc_serve::wire::{read_frame, write_frame, TcpServer, WireClient, WireRequest, WireResponse};
use pnc_serve::{ModelRegistry, Scored, ServeConfig, Server};
use pnc_surrogate::SurrogateModel;
use serde::Value;
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    Closed,
    Open,
}

/// The committed surrogate every served network is trained against.
const SURROGATE_ARTIFACT: &str = "artifacts/surrogate-default.json";
const TRAIN_EPOCHS: usize = 20;
const SETUP_REPEATS: usize = 9;
/// Traffic before the measured window, so connections and workers are warm.
const WARMUP_S: f64 = 1.0;
/// Closed-loop connections (and client threads).
const CLIENTS: usize = 2;
/// Open-loop arrival rate, requests per second.
const OPEN_RATE: f64 = 2000.0;
/// Tail percentile of the TCP latency. The closed loop's few hundred
/// requests per run support p90; the open loop's p99 swings with the odd
/// 40 ms delayed-ACK stall from run to run, so it reports p90 as well.
const TAIL: f64 = 90.0;
/// How long the open-loop receiver waits for a response before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
const PROBE_S: f64 = 1.0;

/// A served model, its plan compiled directly from the exported artifact,
/// and the answers that plan gives for the test rows one at a time.
struct Model {
    name: &'static str,
    rows: Vec<Vec<f64>>,
    plan: InferencePlan,
    reference: Vec<Scored>,
}

struct Deployment {
    models: Vec<Model>,
    server: Arc<Server>,
    tcp: TcpServer,
}

impl Deployment {
    fn start(seed: u64) -> Result<Deployment, String> {
        let surrogate = Arc::new(
            SurrogateModel::load(Path::new(SURROGATE_ARTIFACT))
                .map_err(|e| format!("{SURROGATE_ARTIFACT}: {e}"))?,
        );
        let config = ServeConfig::default();
        let mut registry = ModelRegistry::new(PlanPrecision::F64, config.max_batch);
        let mut models = Vec::new();
        for (name, ds) in [
            ("Iris", iris()),
            ("Seeds", seeds()),
            ("Cardiotocography", cardiotocography()),
        ] {
            let (train, val, test) = ds.split(seed);
            let mut pnn = Pnn::new(
                PnnConfig::for_dataset(ds.num_features(), ds.num_classes).with_seed(seed),
                Arc::clone(&surrogate),
            )
            .map_err(|e| e.to_string())?;
            Trainer::new(TrainConfig {
                variation: VariationModel::None,
                n_train_mc: 1,
                n_val_mc: 1,
                max_epochs: TRAIN_EPOCHS,
                patience: TRAIN_EPOCHS,
                seed,
                parallel: ParallelConfig::with_threads(THREADS),
                ..TrainConfig::default()
            })
            .train(&mut pnn, labeled(&train)?, labeled(&val)?)
            .map_err(|e| e.to_string())?;
            let artifact = PnnArtifact::from_pnn(&pnn, name).map_err(|e| e.to_string())?;
            let mut plan = InferencePlan::compile_artifact(&artifact).map_err(|e| e.to_string())?;
            let rows: Vec<Vec<f64>> = (0..test.features.rows())
                .map(|i| test.features.row(i).to_vec())
                .collect();
            let reference = rows
                .iter()
                .map(|row| {
                    let x = Matrix::from_fn(1, row.len(), |_, j| row[j]);
                    let scores = plan.infer(&x)?.row(0).to_vec();
                    let class = plan.predict(&x)?[0];
                    Ok(Scored { scores, class })
                })
                .collect::<Result<Vec<_>, pnc_core::PnnError>>()
                .map_err(|e| e.to_string())?;
            registry.insert(artifact).map_err(|e| e.to_string())?;
            models.push(Model {
                name,
                rows,
                plan,
                reference,
            });
        }
        let server = Arc::new(Server::start(&registry, config));
        let tcp =
            TcpServer::start(Arc::clone(&server), "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Deployment {
            models,
            server,
            tcp,
        })
    }

    fn stop(self) {
        self.tcp.shutdown();
        self.server.shutdown();
    }

    /// Cardiotocography: 21 features, the largest requests of the mix.
    fn widest(&self) -> &Model {
        self.models.last().expect("three models")
    }

    /// The next `(model, row)` of a seeded mix: model uniform, then row
    /// uniform among that model's test rows.
    fn pick(&self, rng: &mut SplitMix64) -> (usize, usize) {
        let m = rng.below(self.models.len());
        (m, rng.below(self.models[m].rows.len()))
    }
}

/// Whether a served answer is bit-identical to the direct plan call.
fn matches(reference: &Scored, served: &Scored) -> bool {
    reference.class == served.class
        && reference.scores.len() == served.scores.len()
        && reference
            .scores
            .iter()
            .zip(&served.scores)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Requests of one measured window. A failed request counts as an
/// infinitely slow one, so it misses every latency limit.
#[derive(Default)]
struct Traffic {
    latency_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    wrong: usize,
    /// When the last measured request completed.
    last_done: Option<Instant>,
    /// From the start of the measured window to `last_done`.
    seconds: f64,
    gen_late_us: Vec<f64>,
    backlog_max: usize,
    /// Each client thread's spans, when traced.
    spans: Vec<Value>,
}

impl Traffic {
    fn merge(&mut self, other: Traffic) {
        self.latency_ms.extend(other.latency_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.last_done = self.last_done.max(other.last_done);
    }

    fn answered(&self) -> usize {
        self.attempted - self.failed
    }
}

fn closed_loop(
    dep: &Deployment,
    seed: u64,
    warmup: f64,
    seconds: f64,
    traced: bool,
) -> Result<Traffic, String> {
    let addr = dep.tcp.local_addr();
    let start = Instant::now();
    let from = start + Duration::from_secs_f64(warmup);
    let until = from + Duration::from_secs_f64(seconds);
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<(Traffic, Recorder), String> {
                    let mut client = WireClient::connect(addr).map_err(|e| e.to_string())?;
                    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37).wrapping_add(c as u64));
                    let mut rec = if traced {
                        Recorder::new()
                    } else {
                        Recorder::disabled()
                    };
                    let mut traffic = Traffic::default();
                    while Instant::now() < until {
                        let (m, r) = dep.pick(&mut rng);
                        let model = &dep.models[m];
                        let t = Instant::now();
                        let result = rec.span("serve.request", |_| {
                            client.classify(model.name, &model.rows[r])
                        });
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        let ok = result
                            .as_ref()
                            .is_ok_and(|s| matches(&model.reference[r], s));
                        if result.is_ok() && !ok {
                            traffic.wrong += 1;
                        }
                        if t >= from {
                            traffic.last_done = Some(Instant::now());
                            traffic.attempted += 1;
                            if result.is_err() {
                                traffic.failed += 1;
                            }
                            traffic.latency_ms.push(if result.is_ok() {
                                latency_ms
                            } else {
                                f64::INFINITY
                            });
                        }
                    }
                    Ok((traffic, rec))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut traffic = Traffic::default();
    for (t, rec) in per_client {
        traffic.merge(t);
        traffic.spans.push(rec.to_json());
    }
    traffic.seconds = traffic
        .last_done
        .map_or(seconds, |t| (t - from).as_secs_f64());
    Ok(traffic)
}

fn open_loop(
    dep: &Deployment,
    seed: u64,
    warmup: f64,
    seconds: f64,
    traced: bool,
) -> Result<Traffic, String> {
    let due = stats::poisson_schedule(seed, OPEN_RATE, warmup + seconds);
    let mut rng = SplitMix64::new(seed ^ 0x0be7_0be7);
    let picks: Vec<(usize, usize)> = due.iter().map(|_| dep.pick(&mut rng)).collect();
    let stream = TcpStream::connect(dep.tcp.local_addr()).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream;
    let received = AtomicUsize::new(0);
    let start = Instant::now();
    let at = |i: usize| start + Duration::from_secs_f64(due[i]);

    let (sent, (mut traffic, late)) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut rec = if traced {
                Recorder::new()
            } else {
                Recorder::disabled()
            };
            let mut traffic = Traffic::default();
            let mut answered = vec![false; due.len()];
            for _ in 0..due.len() {
                let Ok(raw) = rec.span("wire.read", |_| read_frame(&mut reader)) else {
                    break;
                };
                let now = Instant::now();
                let parsed = rec.span("serve.decode", |_| {
                    std::str::from_utf8(&raw)
                        .ok()
                        .and_then(|text| serde_json::from_str::<WireResponse>(text).ok())
                });
                received.fetch_add(1, Ordering::SeqCst);
                let Some(response) = parsed else {
                    traffic.wrong += 1;
                    continue;
                };
                let Some(i) = (response.id as usize)
                    .checked_sub(1)
                    .filter(|&i| i < due.len() && !answered[i])
                else {
                    traffic.wrong += 1;
                    continue;
                };
                answered[i] = true;
                let (m, r) = picks[i];
                let served = Scored {
                    scores: response.scores,
                    class: response.class,
                };
                if response.ok && !matches(&dep.models[m].reference[r], &served) {
                    traffic.wrong += 1;
                }
                if due[i] >= warmup {
                    traffic.last_done = Some(now);
                    traffic.latency_ms.push(if response.ok {
                        (now - at(i)).as_secs_f64() * 1e3
                    } else {
                        f64::INFINITY
                    });
                }
            }
            (traffic, rec)
        });
        let mut rec = if traced {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let mut late_us = Vec::with_capacity(due.len());
        let mut backlog_max = 0;
        let mut sent = 0;
        for (i, &(m, r)) in picks.iter().enumerate() {
            let when = at(i);
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            late_us.push(when.elapsed().as_secs_f64() * 1e6);
            backlog_max = backlog_max.max(i - received.load(Ordering::SeqCst));
            let model = &dep.models[m];
            let payload = rec.span("serve.encode", |_| {
                serde_json::to_string(&WireRequest {
                    id: i as u64 + 1,
                    model: model.name.to_string(),
                    features: model.rows[r].clone(),
                })
                .expect("infallible")
            });
            if rec
                .span("wire.write", |_| {
                    write_frame(&mut writer, payload.as_bytes())
                })
                .is_err()
            {
                break;
            }
            sent += 1;
        }
        let (mut traffic, received_spans) = receiver.join().expect("receiver thread panicked");
        traffic.spans = vec![rec.to_json(), received_spans.to_json()];
        (sent, (traffic, (late_us, backlog_max)))
    });
    let _ = writer.shutdown(Shutdown::Both);
    let measured = due.iter().filter(|&&d| d >= warmup).count();
    let sent_measured = due.iter().take(sent).filter(|&&d| d >= warmup).count();
    // Requests never sent or never answered are failures of the window.
    traffic.failed = measured - traffic.latency_ms.iter().filter(|l| l.is_finite()).count();
    traffic.attempted = measured;
    let from = start + Duration::from_secs_f64(warmup);
    traffic.seconds = traffic
        .last_done
        .map_or(seconds, |t| (t - from).as_secs_f64());
    let (late_us, backlog_max) = late;
    traffic.gen_late_us = late_us;
    traffic.backlog_max = backlog_max;
    if sent_measured < measured {
        eprintln!(
            "open loop: {} of {measured} requests were never sent",
            measured - sent_measured
        );
    }
    Ok(traffic)
}

pub fn run(args: &RunArgs, load: Load) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = deployment.take() {
            old.stop();
        }
        let t = Instant::now();
        deployment = Some(Deployment::start(args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let dep = deployment.expect("SETUP_REPEATS > 0");
    let result = measure(args, load, &dep, setup_s, &mut outcome);
    dep.stop();
    result.map(|()| outcome)
}

fn drive(
    load: Load,
    dep: &Deployment,
    seed: u64,
    warmup: f64,
    seconds: f64,
    traced: bool,
) -> Result<Traffic, String> {
    match load {
        Load::Closed => closed_loop(dep, seed, warmup, seconds, traced),
        Load::Open => open_loop(dep, seed, warmup, seconds, traced),
    }
}

fn verify(traffic: &Traffic, outcome: &mut Outcome) {
    outcome.attempted += traffic.attempted as u64;
    outcome.failed += traffic.failed as u64;
    outcome.check(traffic.wrong == 0, || {
        format!(
            "{} responses differ from the direct plan call or carry a wrong id",
            traffic.wrong
        )
    });
}

fn measure(
    args: &RunArgs,
    load: Load,
    dep: &Deployment,
    setup_s: Vec<f64>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let window = Window::open();
    let plain = drive(load, dep, args.seed, WARMUP_S, args.seconds, false)?;
    let delta = window.close();
    let peak_rss_mb = crate::peak_rss_mb()?;
    verify(&plain, outcome);
    let p50_ms = stats::median(&plain.latency_ms);

    if !args.trace {
        outcome.set(
            "throughput",
            plain.answered() as f64 / plain.seconds,
            plain.answered(),
        );
        outcome.set("latency_p50_ms", p50_ms, plain.latency_ms.len());
        crate::report_setup(outcome, &setup_s);
        outcome.set("peak_rss_mb", peak_rss_mb, 1);
        outcome
            .detail
            .push(("latency_ms", crate::quantile_detail(&plain.latency_ms)));
        outcome.detail.push((
            "settings",
            crate::object(vec![
                ("open_rate_per_s", Value::F64(OPEN_RATE)),
                ("clients", Value::U64(CLIENTS as u64)),
            ]),
        ));
        return Ok(());
    }

    // The traced pass runs half as long: it only prices the tracing.
    let traced = drive(load, dep, args.seed, 0.0, args.seconds / 2.0, true)?;
    verify(&traced, outcome);
    let inproc = probe_inproc(dep, args.seed)?;
    let codec_us = probe_codec(dep)?;
    let p50_us = p50_ms * 1e3;
    let inproc_us = stats::median(&inproc) * 1e3;
    outcome.set("serve.tcp_p50_us", p50_us, plain.latency_ms.len());
    outcome.set(
        "serve.tcp_p90_us",
        stats::tail_percentile(&plain.latency_ms, TAIL)? * 1e3,
        plain.latency_ms.len(),
    );
    outcome.set("serve.inproc_p50_us", inproc_us, inproc.len());
    outcome.set("serve.codec_us", codec_us, 1);
    // Whatever the request spends beyond serving and the codec is the
    // transport's: sockets, framing, and any Nagle/delayed-ACK stall.
    outcome.set(
        "serve.wire_us",
        p50_us - inproc_us - codec_us,
        plain.latency_ms.len(),
    );
    outcome.set(
        "serve.batch_size_mean",
        ratio(
            delta.counter("serve.responses"),
            delta.counter("serve.batches"),
        ),
        delta.counter("serve.batches") as usize,
    );
    outcome.set(
        "serve.queue_depth_mean",
        delta.histogram_mean("serve.queue_depth"),
        delta.counter("serve.requests") as usize,
    );
    outcome.set(
        "serve.server_latency_p50_us",
        delta.histogram_quantile("serve.latency_seconds", 0.5) * 1e6,
        delta.counter("serve.responses") as usize,
    );
    if load == Load::Open {
        outcome.set(
            "serve.gen_late_p99_us",
            stats::tail_percentile(&plain.gen_late_us, 99.0)?,
            plain.gen_late_us.len(),
        );
        outcome.set(
            "serve.backlog_max",
            plain.backlog_max as f64,
            plain.gen_late_us.len(),
        );
    }
    let widest = dep.widest();
    let test = Matrix::from_fn(widest.rows.len(), widest.rows[0].len(), |i, j| {
        widest.rows[i][j]
    });
    let (plan_us, calls) =
        crate::pipeline::probe_plan(&CompiledPnn::F64(widest.plan.clone()), &test)?;
    outcome.set("core.plan_infer_us", plan_us, calls);
    // The serve ledger is a residual decomposition of the median request:
    // nothing is left unattributed by construction.
    outcome.set("ledger.unattributed_frac", 0.0, plain.latency_ms.len());
    outcome.set(
        "trace_overhead_frac",
        stats::median(&traced.latency_ms) / p50_ms - 1.0,
        traced.latency_ms.len(),
    );
    outcome.detail.push(("spans", Value::Array(traced.spans)));
    Ok(())
}

/// Milliseconds per in-process `Server::classify` under the same mix from
/// [`CLIENTS`] threads: the serving layer without the wire.
fn probe_inproc(dep: &Deployment, seed: u64) -> Result<Vec<f64>, String> {
    let until = Instant::now() + Duration::from_secs_f64(PROBE_S);
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed.wrapping_add(0x1000 + c as u64));
                    let mut ms = Vec::new();
                    while Instant::now() < until {
                        let (m, r) = dep.pick(&mut rng);
                        let model = &dep.models[m];
                        let t = Instant::now();
                        let served = dep.server.classify(model.name, &model.rows[r]);
                        ms.push(t.elapsed().as_secs_f64() * 1e3);
                        if !served.is_ok_and(|s| matches(&model.reference[r], &s)) {
                            return Err(format!(
                                "in-process answer for {} row {r} is wrong",
                                model.name
                            ));
                        }
                    }
                    Ok(ms)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(per_thread.concat())
}

/// Median microseconds to encode and decode one request and one response
/// of the widest model.
fn probe_codec(dep: &Deployment) -> Result<f64, String> {
    const ROUNDS: usize = 2000;
    let model = dep.widest();
    let request = WireRequest {
        id: 1,
        model: model.name.to_string(),
        features: model.rows[0].clone(),
    };
    let response = WireResponse::success(1, model.reference[0].clone());
    let mut us = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let req = serde_json::to_string(&request).map_err(|e| e.to_string())?;
        let back: WireRequest = serde_json::from_str(&req).map_err(|e| e.to_string())?;
        let resp = serde_json::to_string(&response).map_err(|e| e.to_string())?;
        let again: WireResponse = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((back, again));
    }
    Ok(stats::median(&us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_response_fails_the_check() {
        let reference = Scored {
            scores: vec![0.25, 0.75, 0.125],
            class: 1,
        };
        assert!(matches(&reference, &reference.clone()));
        let mut flipped = reference.clone();
        flipped.scores[2] = f64::from_bits(flipped.scores[2].to_bits() ^ 1);
        assert!(!matches(&reference, &flipped), "one flipped bit");
        let wrong_class = Scored {
            class: 2,
            ..reference.clone()
        };
        assert!(!matches(&reference, &wrong_class));
        let truncated = Scored {
            scores: vec![0.25, 0.75],
            class: 1,
        };
        assert!(!matches(&reference, &truncated));
    }
}
