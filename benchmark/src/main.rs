//! Outside-in benchmark of the printed-neuromorphic system: the paper's
//! flow (characterize → fit → surrogate → variation-aware training →
//! compile) and the serving front, timed through the crates' public API the
//! way a user drives them.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare <dir-a> <dir-b>
//! ```
//!
//! One workload runs per process, so peak RSS and the `pnc-obs` counter
//! deltas belong to that workload alone. Every metric is printed by name
//! with its unit and sample count; the last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). The full
//! record, and with `--trace 1` the spans, go to a file under `--out`.
//! `benchmark/README.md` documents the workloads and metrics.

mod characterize;
mod compare;
mod counters;
mod pipeline;
mod serve;
mod spec;
mod stats;
mod trace;

use serde::Value;
use spec::Workload;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;

/// Threads of every parallel compute section. Fixed, never read from the
/// machine or the environment, so runs on different hosts do the same work
/// in the same order.
pub const THREADS: usize = 1;

/// Where result files go unless `--out` says otherwise.
const DEFAULT_OUT: &str = "target/benchmark/results";

/// Where runs keep the stores they write; removed by the run that made them.
const SCRATCH_DIR: &str = "target/benchmark/tmp";

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

impl RunArgs {
    /// A per-process scratch path for a store called `name`.
    pub fn scratch_file(&self, name: &str) -> Result<PathBuf, String> {
        std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("{SCRATCH_DIR}: {e}"))?;
        Ok(PathBuf::from(SCRATCH_DIR).join(format!("{}-{name}.pncds", std::process::id())))
    }
}

/// One metric value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: usize,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (design points, flows, requests).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; empty when every checked output was right.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Reading>,
    /// Extra fields for the result file: ledgers, spans, settings.
    pub detail: Vec<(&'static str, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Reading { value, samples });
    }

    /// Records `problem` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Names of the `PNC_*` variables in `vars`. The libraries read several of
/// them (`PNC_NUM_THREADS` overrides every explicit thread count), so a run
/// with any of them set could measure a different program than it names.
fn pnc_vars(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Vec<String> {
    vars.into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("PNC_"))
        .collect()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: Workload::Characterize,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let raw = value()?;
                workload = Some(Workload::parse(raw).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {raw:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds.is_finite() && run.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => run.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn labeled(ds: &pnc_datasets::Dataset) -> Result<pnc_core::LabeledData<'_>, String> {
    pnc_core::LabeledData::new(&ds.features, &ds.labels).map_err(|e| e.to_string())
}

/// Nearest-rank p50 … p99.9 of `values`, for the result file: the shape of
/// a run's per-operation latency beyond its median.
pub fn quantile_detail(values: &[f64]) -> Value {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at =
        |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1];
    object(
        [
            ("p50", 0.5),
            ("p75", 0.75),
            ("p90", 0.9),
            ("p95", 0.95),
            ("p99", 0.99),
            ("p99.9", 0.999),
        ]
        .into_iter()
        .map(|(k, q)| (k, Value::F64(at(q))))
        .collect(),
    )
}

/// Reports the median of a run's set-ups as `setup_s`, keeping every
/// set-up's time in the result file.
pub fn report_setup(outcome: &mut Outcome, setup_s: &[f64]) {
    outcome.set("setup_s", stats::median(setup_s), setup_s.len());
    outcome.detail.push((
        "setup_runs_s",
        Value::Array(setup_s.iter().map(|&s| Value::F64(s)).collect()),
    ));
}

/// The process's peak resident set so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    pnc_obs::record_peak_rss()
        .map(|bytes| bytes as f64 / (1024.0 * 1024.0))
        .ok_or_else(|| "peak RSS is unreadable (no /proc/self/status)".to_string())
}

/// Largest share of a traced total that the span ledger may fail to
/// account for, or leave to its explicit unattributed row.
const LEDGER_TOLERANCE: f64 = 0.05;

/// The self times of a traced run, with `unattributed` the self time of
/// its container spans, must add up to `total` and leave little to the
/// containers.
pub fn check_ledger(
    outcome: &mut Outcome,
    self_times: &BTreeMap<&'static str, f64>,
    unattributed: f64,
    total: f64,
) {
    let accounted: f64 = self_times.values().sum();
    outcome.check(
        (accounted - total).abs() <= LEDGER_TOLERANCE * total,
        || format!("span self times add to {accounted} s of a {total} s total"),
    );
    outcome.check(unattributed <= LEDGER_TOLERANCE * total, || {
        format!("{unattributed} s of a {total} s traced total is unattributed")
    });
    outcome.detail.push((
        "ledger_self_s",
        Value::Object(
            self_times
                .iter()
                .map(|(k, v)| (k.to_string(), Value::F64(*v)))
                .collect(),
        ),
    ));
}

/// Checks the metric set against the spec, prints every metric, writes the
/// result file and prints the summary line. Exits non-zero on any
/// correctness failure.
fn finish(run: &RunArgs, mut outcome: Outcome) -> ExitCode {
    let expected: Vec<(&'static str, &'static str)> = if run.trace {
        spec::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for name in outcome.metrics.keys() {
        assert!(
            expected.iter().any(|(n, _)| n == name),
            "workload reported {name}, which the spec does not list"
        );
    }
    let mut lines = Vec::new();
    let mut summary = Vec::new();
    let mut record = Vec::new();
    for (name, unit) in expected {
        let reading = match outcome.metrics.get(name) {
            Some(r) => *r,
            // A layer this workload never enters did no work.
            None if run.trace => Reading {
                value: 0.0,
                samples: 0,
            },
            None => panic!("workload did not report {name}"),
        };
        if !reading.value.is_finite() {
            outcome
                .problems
                .push(format!("{name} is not finite ({})", reading.value));
        }
        lines.push(format!(
            "{name} = {} {unit} (n={})",
            reading.value, reading.samples
        ));
        summary.push((
            name,
            object(vec![
                ("value", Value::F64(reading.value)),
                ("unit", Value::Str(unit.into())),
            ]),
        ));
        record.push((
            name,
            object(vec![
                ("value", Value::F64(reading.value)),
                ("unit", Value::Str(unit.into())),
                ("samples", Value::U64(reading.samples as u64)),
            ]),
        ));
    }
    let correct = outcome.problems.is_empty();
    for problem in &outcome.problems {
        eprintln!("INCORRECT: {problem}");
    }

    let mut file = vec![
        ("workload", Value::Str(run.workload.name().into())),
        ("seed", Value::U64(run.seed)),
        ("seconds", Value::F64(run.seconds)),
        ("trace", Value::Bool(run.trace)),
        ("threads", Value::U64(THREADS as u64)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        (
            "problems",
            Value::Array(outcome.problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", object(record)),
    ];
    file.append(&mut outcome.detail);
    let path = run.out.join(format!(
        "{}-s{}{}.json",
        run.workload.name(),
        run.seed,
        if run.trace { "-trace" } else { "" }
    ));
    let written = std::fs::create_dir_all(&run.out).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&object(file)).expect("infallible"),
        )
    });
    match written {
        Ok(()) => eprintln!("result written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    for line in lines {
        println!("{line}");
    }
    let last = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        ("metrics", object(summary)),
    ]);
    println!("{}", serde_json::to_string(&last).expect("infallible"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let set = pnc_vars(std::env::vars_os());
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: the libraries read PNC_* variables, \
             so the run would not measure the configuration it names",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let run = match parse_run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} for {} s, trace {}, {THREADS} compute threads",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let result = match run.workload {
        Workload::Characterize => characterize::run(&run),
        Workload::Pipeline => pipeline::run(&run),
        Workload::ServeClosed => serve::run(&run, serve::Load::Closed),
        Workload::ServeOpen => serve::run(&run, serve::Load::Open),
    };
    match result {
        Ok(outcome) => finish(&run, outcome),
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(OsString, OsString)> {
        pairs
            .iter()
            .map(|(k, v)| (OsString::from(k), OsString::from(v)))
            .collect()
    }

    #[test]
    fn env_guard_names_every_pnc_variable() {
        let found = pnc_vars(vars(&[
            ("PATH", "/usr/bin"),
            ("PNC_NUM_THREADS", "4"),
            ("XPNC_NOT_OURS", "1"),
            ("PNC_SERVE_MAX_WAIT_US", "0"),
        ]));
        assert_eq!(found, ["PNC_NUM_THREADS", "PNC_SERVE_MAX_WAIT_US"]);
        assert!(pnc_vars(vars(&[("HOME", "/home/user")])).is_empty());
    }

    #[test]
    fn run_arguments_parse_strictly() {
        let args: Vec<String> = "--workload serve_open --seed 7 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let run = parse_run(&args).expect("parses");
        assert_eq!(run.workload, Workload::ServeOpen);
        assert_eq!((run.seed, run.seconds, run.trace), (7, 2.5, true));
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload pipeline --trace yes",
            "--workload pipeline --seconds 0",
            "--workload pipeline --bogus 1",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_run(&args).is_err(), "{bad}");
        }
    }
}
