//! Structured observability for the printed-neuromorphic workspace.
//!
//! Every crate in the workspace instruments its hot paths through this one
//! zero-dependency crate, so a single substrate answers "what is the system
//! doing": Newton iteration counts, recovery-rung usage, Levenberg–Marquardt
//! damping escalations, per-epoch Monte-Carlo losses, dataset-build
//! throughput. Three primitives:
//!
//! * [`Counter`] / [`Histogram`] — named, process-global metrics backed by
//!   atomic integers. Aggregation is **thread-merged and deterministic**:
//!   every stored quantity is a `u64` (counts, bucket tallies) or an
//!   order-independent extremum (min/max), so totals are bit-identical no
//!   matter how worker threads interleave — the same invariant the parallel
//!   substrate guarantees for numeric results (`DESIGN.md` §7).
//! * [`Span`] — an RAII wall-clock timer recording its elapsed time into a
//!   histogram on drop. Wall time is inherently nondeterministic, so
//!   duration histograms are *excluded* from the determinism contract
//!   (their `count` is still deterministic).
//! * [`Gauge`] — a named running-maximum measurement for environment
//!   readings such as peak RSS ([`record_peak_rss`]). Like wall time,
//!   gauge *values* come from the operating system and sit outside the
//!   determinism contract; names and registration stay deterministic.
//! * [`sink`] — an opt-in JSON-lines event stream, selected with the
//!   `PNC_OBS` environment variable (`jsonl:<path>` or `stderr`). Off by
//!   default: a disabled sink is one relaxed atomic load per [`sink::emit`]
//!   call and writes nothing.
//!
//! Metric snapshots serialize to JSON with [`snapshot`] /
//! [`MetricsSnapshot::to_json`] / [`write_summary`]; the `fig4` binary and
//! the pipeline example call [`write_summary`] at end of run so their
//! outputs carry solver-effort and robustness columns. The full catalogue of metric names,
//! units and emitting sites lives in `docs/METRICS.md` at the workspace
//! root; the design contract is `DESIGN.md` §9.
//!
//! # Examples
//!
//! ```
//! use pnc_obs::{Counter, Histogram};
//!
//! static SOLVES: Counter = Counter::new("example.solves");
//! static RESIDUAL: Histogram = Histogram::new("example.residual");
//!
//! SOLVES.add(3);
//! RESIDUAL.observe(1.5e-10);
//! let snap = pnc_obs::snapshot();
//! assert_eq!(snap.counter("example.solves"), Some(3));
//! assert!(snap.to_json().contains("example.residual"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod metrics;
mod process;
pub mod sink;
mod span;

pub use metrics::{
    reset, snapshot, write_summary, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use process::{peak_rss_bytes, record_peak_rss};
pub use sink::FieldValue;
pub use span::Span;
