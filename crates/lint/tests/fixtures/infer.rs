//! Fixture: the compiled-inference observability surface, checked against
//! the REAL workspace docs (not inline fixture tables). Every name here
//! ships in `pnc-core::infer`, so the doc/code consistency rules must stay
//! completely quiet — a finding on this file means docs/METRICS.md lost a
//! row the code still carries.

use pnc_obs::Counter;

/// Plans compiled over the process lifetime.
pub static PLANS_COMPILED: Counter = Counter::new("infer.plans_compiled");

/// Rows pushed through any compiled plan.
pub static SAMPLES: Counter = Counter::new("infer.samples");

/// Batched inference calls.
pub static BATCHES: Counter = Counter::new("infer.batches");
