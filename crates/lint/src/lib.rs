//! # pnc-lint — workspace-invariant static analysis
//!
//! A from-scratch, zero-dependency, token-level static analyzer for this
//! workspace's own source. It enforces the three contracts the paper
//! reproduction depends on and that `cargo test` can only spot-check at
//! runtime:
//!
//! * **Determinism** — results are bit-identical at any `PNC_NUM_THREADS`.
//!   Statically that means: no wall-clock reads in numeric paths
//!   (`no-wallclock`), no hash-ordered iteration in numeric crates
//!   (`no-hash-iteration`), and no rayon outside the one ordered helper,
//!   `ParallelConfig::ordered_par_map` (`rayon-confinement`).
//! * **Panic-freedom** — shipping code returns `Result` instead of
//!   aborting (`no-panic-in-lib`), and every crate keeps
//!   `#![forbid(unsafe_code)]` (`forbid-unsafe-kept`).
//! * **Doc/code consistency** — metric names match `docs/METRICS.md` 1:1
//!   (`metric-key-drift`) and every `PNC_…` environment variable read is in
//!   the README table (`env-var-registry`).
//!
//! On top of the flat token rules, a structural layer ([`scope`],
//! [`callgraph`], [`structural`]) adds two rules that reason about extents
//! instead of lines:
//!
//! * **`panic-reachability`** — walks the workspace call graph from every
//!   `pub` library fn to residual panic sites (including `[]` indexing in
//!   the input-facing crates) and reports the shortest call path.
//! * **`lock-across-blocking`** — a `MutexGuard` live across TCP/file I/O
//!   or `Condvar::wait` in `pnc-serve`.
//!
//! The analyzer lexes (never fully parses) Rust: a small lexer
//! distinguishes code from comments, strings, raw strings, char literals,
//! and lifetimes; a brace-matched scope parser recovers fn/impl/mod
//! extents; and the rules are explicit token-pattern matches. That keeps
//! the whole subsystem dependency-free (no `syn`), fast, and simple to
//! audit. False positives are handled with inline suppressions that must
//! carry a reason; stale suppressions are themselves findings.
//!
//! The rule catalogue with examples lives in `docs/LINTS.md`; the
//! architecture notes are DESIGN.md §10. Run it as:
//!
//! ```text
//! cargo run -p pnc-lint -- check    # gate: nonzero exit on any unsuppressed finding
//! cargo run -p pnc-lint -- report   # everything, including suppressed
//! cargo run -p pnc-lint -- rules    # list rule ids and summaries
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod diag;
pub mod docs;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod source;
pub mod structural;
pub mod workspace;

pub use diag::{Finding, Status};
pub use source::{FileKind, SourceFile};
