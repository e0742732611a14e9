//! Runs the paper's experiments and the extensions by name; each prints one
//! markdown table and writes `artifacts/<name>.json`.
//!
//! ```sh
//! cargo run --release -p pnc-bench --bin experiments -- <name>... [--full]
//! ```
//!
//! The names are [`EXPERIMENTS`]. Every training experiment runs under the
//! scaled budget, or under the paper's (Sec. IV-A) with `--full`.

use pnc_bench::{run, unknown_experiment, Budget, EXPERIMENTS};
use std::error::Error;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    match run_all() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_all() -> Result<(), Box<dyn Error>> {
    let mut budget = Budget::scaled();
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            budget = Budget::paper();
        } else if EXPERIMENTS.contains(&arg.as_str()) {
            names.push(arg);
        } else {
            return Err(unknown_experiment(&arg));
        }
    }
    if names.is_empty() {
        return Err(format!("name at least one experiment: {}", EXPERIMENTS.join(", ")).into());
    }
    for name in names {
        let start = Instant::now();
        println!("{}", run(&name, &budget)?);
        eprintln!("{name}: {:.1} s", start.elapsed().as_secs_f64());
    }
    Ok(())
}
