//! Per-model micro-batching: a bounded queue and batch workers that
//! coalesce concurrent requests into one plan call.
//!
//! The batching policy is drain-what-is-queued: a worker blocks until the
//! first request arrives, then takes every request already waiting (never
//! more than `max_batch` rows) and runs them at once, with no deadline.
//! Requests that arrive while a worker runs a batch queue up and coalesce
//! into its next one, so batches grow with load on their own. Because the
//! compiled plans have no cross-row coupling (DESIGN.md §12), coalescing is
//! purely an overhead amortization — every response is bit-identical to a
//! single-sample plan call, whatever the batch composition.
//!
//! Backpressure is explicit: the queue is bounded, and a full queue rejects
//! the *new* request with a typed overload error instead of growing without
//! bound or silently dropping queued work. Shutdown is a graceful drain —
//! a closed queue accepts nothing new but workers keep pulling until it is
//! empty, so every accepted request gets a response.

use crate::{ServeError, OBS_BATCHES, OBS_BATCH_SIZE, OBS_QUEUE_DEPTH, OBS_RESPONSES};
use pnc_core::CompiledPnn;
use pnc_linalg::Matrix;
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};

/// One classification result: the output voltages and the argmax class,
/// exactly as a direct [`pnc_core::InferencePlan`] `infer` + `predict` pair
/// would produce them.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// Output voltages, one per class, in f64 bits straight out of the plan.
    pub scores: Vec<f64>,
    /// Argmax over `scores` with the plan's exact tie-breaking (last
    /// maximum under IEEE total order).
    pub class: usize,
}

/// One accepted request waiting for a worker: validated features plus the
/// rendezvous channel its submitter is blocked on.
pub(crate) struct Pending {
    pub(crate) features: Vec<f64>,
    pub(crate) reply: SyncSender<Result<Scored, ServeError>>,
}

/// Why a push was refused — mapped to [`ServeError`] by the caller, which
/// knows the model name.
pub(crate) enum PushError {
    /// The bounded queue is at capacity.
    Full,
    /// The queue is closed (server draining).
    Closed,
}

struct QueueState {
    items: VecDeque<Pending>,
    open: bool,
}

/// The bounded per-model request queue shared by submitters and workers.
pub(crate) struct ModelQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

impl ModelQueue {
    pub(crate) fn new(capacity: usize) -> ModelQueue {
        ModelQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a request, rejecting instead of blocking when full.
    pub(crate) fn push(&self, pending: Pending) -> Result<(), PushError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.open {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(pending);
        OBS_QUEUE_DEPTH.observe(state.items.len() as f64);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Closes the queue: no new pushes, workers drain what remains and then
    /// see `None` from [`Self::next_batch`].
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.open = false;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks for the next micro-batch: waits for a first request, then
    /// drains at most `max_batch` of whatever is queued, without waiting
    /// for more. Returns `None` only when the queue is closed *and* empty —
    /// the worker's signal to exit after a complete drain.
    pub(crate) fn next_batch(&self, max_batch: usize) -> Option<Vec<Pending>> {
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.items.is_empty() {
            if !state.open {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        let take = state.items.len().min(max_batch);
        Some(state.items.drain(..take).collect())
    }
}

/// The plan's argmax, replicated operation-for-operation (IEEE total order,
/// last maximum wins on ties) so served `class` fields are byte-identical
/// to [`pnc_core::InferencePlan::predict`].
fn argmax_row(row: &[f64]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(j, _)| j)
        .unwrap_or(0)
}

/// A batch worker's main loop: pull micro-batches until the queue drains
/// closed, run each through this worker's own plan clone, and answer every
/// request in the batch.
pub(crate) fn run_worker(mut plan: CompiledPnn, queue: Arc<ModelQueue>, max_batch: usize) {
    let (in_dim, out_dim) = (plan.in_dim(), plan.out_dim());
    while let Some(batch) = queue.next_batch(max_batch) {
        let rows = batch.len();
        OBS_BATCHES.increment();
        OBS_BATCH_SIZE.observe(rows as f64);
        // pnc-lint: allow(panic-reachability) — i < rows = batch.len() by Matrix::from_fn; features.len() == in_dim was validated at enqueue in Server::classify
        let x = Matrix::from_fn(rows, in_dim, |i, j| batch[i].features[j]);
        let mut out = Matrix::zeros(rows, out_dim);
        match plan.infer_into(&x, &mut out) {
            Ok(()) => {
                for (i, pending) in batch.into_iter().enumerate() {
                    let scores = out.row(i).to_vec();
                    let class = argmax_row(&scores);
                    // A disconnected submitter (client gave up) is not an
                    // error for the batch.
                    let _ = pending.reply.send(Ok(Scored { scores, class }));
                    OBS_RESPONSES.increment();
                }
            }
            Err(e) => {
                for pending in batch {
                    let _ = pending.reply.send(Err(ServeError::Internal {
                        detail: format!("batch inference failed: {e}"),
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::time::Duration;

    fn pending() -> (
        Pending,
        std::sync::mpsc::Receiver<Result<Scored, ServeError>>,
    ) {
        let (tx, rx) = sync_channel(1);
        (
            Pending {
                features: vec![0.0],
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn full_queue_rejects_new_requests_not_queued_ones() {
        let q = ModelQueue::new(2);
        let (p1, _r1) = pending();
        let (p2, _r2) = pending();
        let (p3, _r3) = pending();
        assert!(q.push(p1).is_ok());
        assert!(q.push(p2).is_ok());
        assert!(matches!(q.push(p3), Err(PushError::Full)));
        // The two accepted requests are still there, in order.
        let batch = q.next_batch(8).expect("open queue");
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_fully() {
        let q = ModelQueue::new(8);
        let (p1, _r1) = pending();
        let (p2, _r2) = pending();
        assert!(q.push(p1).is_ok());
        assert!(q.push(p2).is_ok());
        q.close();
        let (p3, _r3) = pending();
        assert!(matches!(q.push(p3), Err(PushError::Closed)));
        // Graceful drain: one item per batch at max_batch=1, then None.
        assert_eq!(q.next_batch(1).expect("first").len(), 1);
        assert_eq!(q.next_batch(1).expect("second").len(), 1);
        assert!(q.next_batch(1).is_none());
    }

    #[test]
    fn next_batch_respects_max_batch() {
        let q = ModelQueue::new(16);
        let mut receivers = Vec::new();
        for _ in 0..5 {
            let (p, r) = pending();
            assert!(q.push(p).is_ok());
            receivers.push(r);
        }
        assert_eq!(q.next_batch(3).expect("batch").len(), 3);
        assert_eq!(q.next_batch(3).expect("rest").len(), 2);
    }

    #[test]
    fn blocked_worker_wakes_on_close() {
        let q = Arc::new(ModelQueue::new(4));
        let worker_q = Arc::clone(&q);
        let worker = std::thread::spawn(move || worker_q.next_batch(4));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(worker.join().expect("worker exits").is_none());
    }

    #[test]
    fn argmax_matches_plan_tie_breaking() {
        // Last maximum wins on exact ties, and positive NaN sorts above
        // every number under IEEE total order — the plan's exact semantics
        // (NaN can't occur in served scores, but the tie-breaking must
        // match bit-for-bit regardless).
        assert_eq!(argmax_row(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax_row(&[2.0, 2.0, 1.0]), 1);
        assert_eq!(argmax_row(&[f64::NAN, 0.0]), 0);
        assert_eq!(argmax_row(&[0.0, -0.0]), 0, "+0 beats -0 in total order");
        assert_eq!(argmax_row(&[]), 0);
    }
}
