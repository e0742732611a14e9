//! CLI for pnc-lint. See `pnc-lint help` or the crate docs.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use pnc_lint::diag::Status;
use pnc_lint::{engine, report, rules, workspace};
use pnc_obs::{Counter, Histogram, Span};

/// Files scanned per invocation (satellite of the observability contract:
/// every subsystem reports through pnc-obs, the linter included).
static OBS_FILES: Counter = Counter::new("lint.files");
/// Findings produced (all statuses) per invocation.
static OBS_FINDINGS: Counter = Counter::new("lint.findings");
/// Rules executed per invocation (the registry plus suppression hygiene).
static OBS_RULES_RUN: Counter = Counter::new("lint.rules_run");
/// Wall time of the analyze+report pipeline.
static OBS_DURATION: Histogram = Histogram::new("lint.duration_seconds");

const USAGE: &str = "\
pnc-lint — workspace-invariant static analysis

USAGE:
    pnc-lint <COMMAND> [OPTIONS]

COMMANDS:
    check     Fail (exit 1) on any unsuppressed finding
    report    Print every finding, including suppressed ones
    rules     List rule ids and one-line summaries
    help      Show this message

OPTIONS:
    --root <DIR>        Workspace root (default: auto-detected from cwd)
    --report <PATH>     JSON report path (default: <root>/artifacts/lint_report.json)
    --no-report         Skip writing the JSON report
";

struct Options {
    command: String,
    root: Option<PathBuf>,
    report: Option<PathBuf>,
    no_report: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: String::new(),
        root: None,
        report: None,
        no_report: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" | "--report" => {
                let value = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                let path = Some(PathBuf::from(value));
                if arg == "--root" {
                    opts.root = path;
                } else {
                    opts.report = path;
                }
            }
            "--no-report" => opts.no_report = true,
            cmd if !cmd.starts_with('-') && opts.command.is_empty() => {
                opts.command = cmd.to_string();
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if opts.command.is_empty() {
        opts.command = "help".to_string();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    match opts.command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        "rules" => {
            for rule in rules::RULES {
                println!("{:<26} {}", rule.id, rule.summary);
            }
            println!(
                "{:<26} engine hygiene: malformed/unknown/unused suppressions (not suppressible)",
                rules::SUPPRESSION_RULE
            );
            return Ok(ExitCode::SUCCESS);
        }
        "check" | "report" => {}
        other => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }

    let span = Span::new(&OBS_DURATION);
    let root = match &opts.root {
        Some(root) => root.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            workspace::find_root(&cwd)
                .ok_or("no workspace root found (no ancestor Cargo.toml with [workspace])")?
        }
    };
    let ws = workspace::load(&root).map_err(|e| format!("loading workspace: {e}"))?;
    OBS_FILES.add(ws.files.len() as u64);

    let findings = engine::analyze(&ws.files, &ws.docs);
    OBS_FINDINGS.add(findings.len() as u64);
    OBS_RULES_RUN.add(rules::RULES.len() as u64 + 1);

    if !opts.no_report {
        let report_path = opts
            .report
            .clone()
            .unwrap_or_else(|| root.join("artifacts").join("lint_report.json"));
        if let Some(parent) = report_path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
        std::fs::write(&report_path, report::render(&findings, ws.files.len()))
            .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
    }
    drop(span);

    let show_all = opts.command == "report";
    let mut new = 0usize;
    let mut suppressed = 0usize;
    for f in &findings {
        match &f.status {
            Status::New => {
                new += 1;
                println!("{f}");
            }
            Status::Suppressed(reason) => {
                suppressed += 1;
                if show_all {
                    println!("{f} (suppressed: {reason})");
                }
            }
        }
    }
    println!(
        "pnc-lint: {} files, {} new, {} suppressed",
        ws.files.len(),
        new,
        suppressed
    );
    if opts.command == "check" && new > 0 {
        println!(
            "check failed: fix the findings above, suppress with \
             `// pnc-lint: allow(<rule>) — <reason>`, or see docs/LINTS.md"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
