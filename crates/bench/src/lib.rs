//! Experiment harness for the paper's evaluation section.
//!
//! One runner regenerates every table and figure, plus four extensions
//! beyond the paper:
//!
//! ```sh
//! cargo run --release -p pnc-bench --bin experiments -- <name>... [--full]
//! ```
//!
//! | name | content |
//! |---|---|
//! | `table1` | Tab. I — feasible design space of the nonlinear circuit |
//! | `fig2` | Fig. 2 — characteristic curves of ptanh / negative-weight circuits |
//! | `fig4` | Fig. 4 — curve fitting (left) and surrogate parity (right) |
//! | `fig5` | Fig. 5 — the learnable-parameter chain, stage by stage |
//! | `table2` | Tab. II — accuracy ± std on the 13 benchmark datasets |
//! | `table3` | Tab. III — ablation summary and headline improvements |
//! | `robustness_sweep` | accuracy vs ε, with a Gaussian-noise ablation |
//! | `aging` | lifetime accuracy and aging-aware training |
//! | `ablations` | circuit-sharing granularity and loss choice |
//! | `latency` | transient settling of the printed circuit |
//!
//! Each experiment returns a report; the runner prints it as one
//! markdown table and writes it to `artifacts/<name>.json`. Every training
//! experiment runs under one [`Budget`]: [`Budget::scaled`] by default,
//! [`Budget::paper`] with `--full` (10 seeds, patience 5000,
//! `N_train` = 20, `N_test` = 100 — hours of CPU time).
//!
//! The `claims` binary checks the three measured performance claims
//! (streamed-build memory, compiled inference, serving batching) and
//! prints one `PASS`/`FAIL` line per claim. The
//! paper's pipeline itself is measured end to end by the outside-in
//! benchmark in `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
mod extensions;
mod figures;
pub mod runner;
pub mod summary;

pub use experiment::{
    run_cell, run_dataset_row, run_table2, Arm, Budget, CellResult, DatasetRow, Table2, Table2Error,
};
pub use runner::{run, unknown_experiment, write_report, Markdown, EXPERIMENTS};
pub use summary::{headline_improvements, summarize, Summary, Table3};
