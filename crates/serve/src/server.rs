//! The in-process serving front: per-model worker pools over the registry.
//!
//! [`Server::classify`] is the whole request path — validate, enqueue,
//! block on the rendezvous channel until a batch worker answers. It is
//! `&self` and thread-safe, so any number of client threads (or TCP
//! connection handlers, see [`crate::wire`]) share one server.

use crate::batcher::{run_worker, ModelQueue, Pending, PushError, Scored};
use crate::{
    ModelRegistry, ServeConfig, ServeError, OBS_LATENCY, OBS_REJECT_BAD_REQUEST,
    OBS_REJECT_OVERLOAD, OBS_REQUESTS,
};
use pnc_obs::Span;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

struct ModelHandle {
    queue: Arc<ModelQueue>,
    in_dim: usize,
}

/// A running serving instance: every registry model gets a bounded queue
/// and `worker_threads` batch workers, each owning its own plan clone.
///
/// Dropping the server shuts it down gracefully (equivalent to calling
/// [`Self::shutdown`]): queues close, workers drain every accepted request,
/// threads join.
pub struct Server {
    models: BTreeMap<String, ModelHandle>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Server {
    /// Spawns the worker pool for every model in `registry` under the
    /// batching policy in `config`.
    pub fn start(registry: &ModelRegistry, config: ServeConfig) -> Server {
        crate::obs_register();
        let max_batch = config.max_batch.max(1);
        let mut models = BTreeMap::new();
        let mut workers = Vec::new();
        for (name, entry) in registry.entries() {
            let queue = Arc::new(ModelQueue::new(config.queue_capacity));
            for _ in 0..config.worker_threads.max(1) {
                let plan = entry.plan().clone();
                let queue = Arc::clone(&queue);
                workers.push(std::thread::spawn(move || {
                    run_worker(plan, queue, max_batch);
                }));
            }
            models.insert(
                name.clone(),
                ModelHandle {
                    queue,
                    in_dim: entry.plan().in_dim(),
                },
            );
        }
        Server {
            models,
            workers: Mutex::new(workers),
            stopped: AtomicBool::new(false),
        }
    }

    /// Classifies one feature row against a model, blocking until a batch
    /// worker answers. The response is bit-identical to a direct
    /// single-sample plan call on the same model — the determinism
    /// contract batching must uphold.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered id,
    /// [`ServeError::BadRequest`] on a feature-width mismatch or a
    /// non-finite feature (NaN or ±∞),
    /// [`ServeError::Overloaded`] when the model's bounded queue is full
    /// (the backpressure signal — retry with backoff),
    /// [`ServeError::ShuttingDown`] after [`Self::shutdown`] began, and
    /// [`ServeError::Internal`] if the worker pool failed mid-request.
    pub fn classify(&self, model: &str, features: &[f64]) -> Result<Scored, ServeError> {
        OBS_REQUESTS.increment();
        let handle = self
            .models
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
            })?;
        if features.len() != handle.in_dim {
            OBS_REJECT_BAD_REQUEST.increment();
            return Err(ServeError::BadRequest {
                detail: format!(
                    "model {model:?} expects {} features, got {}",
                    handle.in_dim,
                    features.len()
                ),
            });
        }
        if let Some((j, v)) = features.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            OBS_REJECT_BAD_REQUEST.increment();
            return Err(ServeError::BadRequest {
                detail: format!("feature {j} is {v}, not a finite number"),
            });
        }
        let span = Span::new(&OBS_LATENCY);
        let (reply, response) = sync_channel(1);
        let pending = Pending {
            features: features.to_vec(),
            reply,
        };
        match handle.queue.push(pending) {
            Ok(()) => {}
            Err(PushError::Full) => {
                OBS_REJECT_OVERLOAD.increment();
                return Err(ServeError::Overloaded {
                    model: model.to_string(),
                });
            }
            Err(PushError::Closed) => return Err(ServeError::ShuttingDown),
        }
        let result = response.recv().map_err(|_| ServeError::Internal {
            detail: format!("worker pool for model {model:?} exited before answering"),
        })?;
        drop(span);
        result
    }

    /// Model names this server answers for, in sorted order.
    pub fn model_names(&self) -> impl Iterator<Item = &str> {
        self.models.keys().map(String::as_str)
    }

    /// Graceful drain: closes every queue (new requests get
    /// [`ServeError::ShuttingDown`]), lets workers finish every accepted
    /// request, and joins the worker threads. Idempotent.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for handle in self.models.values() {
            handle.queue.close();
        }
        let workers = {
            let mut guard = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for worker in workers {
            // A worker that panicked already failed its in-flight requests
            // via the dropped reply channels; nothing more to do here.
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
