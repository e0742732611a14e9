//! Experiment harness for the paper's evaluation section.
//!
//! Each table and figure has a binary that regenerates it:
//!
//! | target | paper content |
//! |---|---|
//! | `table1` | Tab. I — feasible design space of the nonlinear circuit |
//! | `fig2` | Fig. 2 — characteristic curves of ptanh / negative-weight circuits |
//! | `fig4` | Fig. 4 — curve fitting (left) and surrogate parity (right) |
//! | `table2` | Tab. II — accuracy ± std on the 13 benchmark datasets |
//! | `table3` | Tab. III — ablation summary and headline improvements |
//!
//! These binaries default to a **scaled-down budget** sized for a single-core
//! machine (documented in `EXPERIMENTS.md`); pass `--full` for the paper's
//! settings (10 seeds, patience 5000, `N_train` = 20, `N_test` = 100 — hours
//! of CPU time).
//!
//! The `claims` binary checks the four measured performance claims
//! (streamed-build memory, sparse LU, compiled inference, serving
//! batching) and prints one `PASS`/`FAIL` line per claim. The
//! paper's pipeline itself is measured end to end by the outside-in
//! benchmark in `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod summary;

pub use experiment::{
    default_surrogate, run_table2, run_table2_parallel, Arm, Budget, CellResult, DatasetRow,
    Table2, Table2Error,
};
pub use summary::{headline_improvements, summarize, Table3};
