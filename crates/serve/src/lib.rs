//! Batched serving layer over compiled inference plans.
//!
//! The paper's pitch is bespoke-per-task pNNs; at production scale that
//! means a fleet of tiny compiled models answering heavy concurrent
//! traffic. This crate is the front door:
//!
//! * [`ModelRegistry`] — loads exported [`pnc_core::PnnArtifact`] files
//!   (the deployment output of `pnc-core`'s export seam), validates them,
//!   and compiles each into a [`pnc_core::InferencePlan`].
//! * [`Server`] — per-model micro-batching workers: concurrent requests
//!   coalesce into chunked plan batch calls (each free worker takes
//!   whatever is queued, up to `max_batch`, without waiting for more),
//!   with bounded queues, explicit typed overload rejection
//!   ([`ServeError::Overloaded`]), and graceful drain on shutdown.
//! * [`wire`] — a zero-dependency framed-TCP request path
//!   (length-prefixed JSON), [`wire::TcpServer`].
//!
//! **Determinism contract** (DESIGN.md §13): a response is bit-identical
//! to a direct single-sample [`pnc_core::InferencePlan`] call on the same
//! model — regardless of how requests were batched, which worker served
//! them, or how many workers ran. Batching amortizes per-call overhead;
//! it never touches the numbers. Traffic *shape* (queue depths, batch
//! sizes, latencies) is inherently scheduling-dependent and excluded from
//! the bit-identity contract; payloads are not.
//!
//! Everything is instrumented through `pnc-obs` (`serve.*` counters and
//! histograms — see `docs/METRICS.md`), and the `serving` bench bin plus
//! `scripts/check_bench_serving.sh` gate the throughput floor in CI.
//!
//! # Examples
//!
//! ```no_run
//! use pnc_core::PlanPrecision;
//! use pnc_serve::{ModelRegistry, ServeConfig, Server};
//!
//! # fn main() -> Result<(), pnc_serve::ServeError> {
//! let config = ServeConfig::from_env()?;
//! let mut registry = ModelRegistry::new(PlanPrecision::F64, config.max_batch);
//! registry.load_dir(std::path::Path::new("artifacts/models"))?;
//! let server = Server::start(&registry, config);
//! let scored = server.classify("Iris", &[0.1, 0.5, 0.3, 0.2])?;
//! println!("class {} scores {:?}", scored.class, scored.scores);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod error;
mod registry;
mod server;
pub mod wire;

pub use batcher::Scored;
pub use error::ServeError;
pub use registry::{ModelEntry, ModelRegistry};
pub use server::Server;

use pnc_obs::{Counter, Histogram};

// Observability: serving traffic. Catalogued in docs/METRICS.md. Traffic
// metrics are load- and scheduling-dependent (unlike the numeric crates'
// counters they describe real concurrent events, not reproducible work).
pub(crate) static OBS_MODELS_LOADED: Counter = Counter::new("serve.models_loaded");
pub(crate) static OBS_REQUESTS: Counter = Counter::new("serve.requests");
pub(crate) static OBS_RESPONSES: Counter = Counter::new("serve.responses");
pub(crate) static OBS_REJECT_OVERLOAD: Counter = Counter::new("serve.rejects.overload");
pub(crate) static OBS_REJECT_BAD_REQUEST: Counter = Counter::new("serve.rejects.bad_request");
pub(crate) static OBS_BATCHES: Counter = Counter::new("serve.batches");
pub(crate) static OBS_BATCH_SIZE: Histogram = Histogram::new("serve.batch_size");
pub(crate) static OBS_QUEUE_DEPTH: Histogram = Histogram::new("serve.queue_depth");
pub(crate) static OBS_LATENCY: Histogram = Histogram::new("serve.latency_seconds");

pub(crate) fn obs_register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        OBS_MODELS_LOADED.register();
        OBS_REQUESTS.register();
        OBS_RESPONSES.register();
        OBS_REJECT_OVERLOAD.register();
        OBS_REJECT_BAD_REQUEST.register();
        OBS_BATCHES.register();
        OBS_BATCH_SIZE.register();
        OBS_QUEUE_DEPTH.register();
        OBS_LATENCY.register();
    });
}

/// Environment variable: micro-batch size cap (rows per plan call).
pub const MAX_BATCH_ENV_VAR: &str = "PNC_SERVE_MAX_BATCH";
/// Environment variable: bounded per-model queue capacity.
pub const QUEUE_ENV_VAR: &str = "PNC_SERVE_QUEUE";
/// Environment variable: worker threads per model.
pub const THREADS_ENV_VAR: &str = "PNC_SERVE_THREADS";

/// Serving policy: batching and backpressure.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most queued rows a worker coalesces into one plan call (≥ 1;
    /// default 32). A worker never waits for a batch to fill: it runs
    /// whatever is queued when it becomes free.
    pub max_batch: usize,
    /// Bounded per-model queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`] (≥ 1; default 1024).
    pub queue_capacity: usize,
    /// Batch workers per model, each owning its own plan clone (≥ 1;
    /// default 1). Results are worker-count-independent by the determinism
    /// contract.
    pub worker_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_capacity: 1024,
            worker_threads: 1,
        }
    }
}

fn env_usize(var: &str, default: usize, min: usize) -> Result<usize, ServeError> {
    match std::env::var(var) {
        Ok(raw) => {
            let value: usize = raw.trim().parse().map_err(|_| ServeError::Config {
                detail: format!("invalid {var}={raw:?} (expected a non-negative integer)"),
            })?;
            if value < min {
                return Err(ServeError::Config {
                    detail: format!("invalid {var}={raw:?} (minimum {min})"),
                });
            }
            Ok(value)
        }
        Err(_) => Ok(default),
    }
}

impl ServeConfig {
    /// Reads the config from the environment, starting from
    /// [`Self::default`]: `PNC_SERVE_MAX_BATCH`, `PNC_SERVE_QUEUE` and
    /// `PNC_SERVE_THREADS`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] on any unparsable or out-of-range
    /// value — a typo'd deployment variable fails startup loudly instead
    /// of silently serving defaults.
    pub fn from_env() -> Result<ServeConfig, ServeError> {
        let defaults = ServeConfig::default();
        Ok(ServeConfig {
            max_batch: env_usize(MAX_BATCH_ENV_VAR, defaults.max_batch, 1)?,
            queue_capacity: env_usize(QUEUE_ENV_VAR, defaults.queue_capacity, 1)?,
            worker_threads: env_usize(THREADS_ENV_VAR, defaults.worker_threads, 1)?,
        })
    }
}
