//! The flat (token-pattern) workspace-invariant rules, plus the registry
//! of every rule the engine runs. The structural rules themselves live in
//! [`crate::structural`].
//!
//! Per-file rules take one [`SourceFile`]; workspace rules additionally see
//! every file and the loaded [`Docs`]. All rules are token-level
//! over-approximations chosen so that (a) real violations cannot hide in
//! comments or strings, and (b) a deliberate, justified exception is one
//! inline suppression away. `docs/LINTS.md` is the user-facing catalogue.

use crate::diag::Finding;
use crate::docs::{self, Docs};
use crate::lexer::{Token, TokenKind};
use crate::source::{FileKind, SourceFile};

/// Static description of one rule, for `pnc-lint rules` and docs drift.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id used in findings and `allow(...)` suppressions.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Rule id of the engine's own suppression-hygiene diagnostics (malformed,
/// unknown-rule, or unused `allow(...)` comments). Not suppressible.
pub const SUPPRESSION_RULE: &str = "suppression-hygiene";

/// Every rule the engine runs, in documentation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-wallclock",
        summary: "Instant::now/SystemTime only in pnc-obs, pnc-bench, tests, benches, examples",
    },
    RuleInfo {
        id: "no-hash-iteration",
        summary: "HashMap/HashSet banned in numeric crates (iteration order is nondeterministic)",
    },
    RuleInfo {
        id: "rayon-confinement",
        summary:
            "rayon is named only in crates/linalg/src/parallel.rs (ParallelConfig::ordered_par_map)",
    },
    RuleInfo {
        id: "no-panic-in-lib",
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! banned in shipping code",
    },
    RuleInfo {
        id: "forbid-unsafe-kept",
        summary: "every crate root must retain #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "metric-key-drift",
        summary: "Counter/Histogram name literals and docs/METRICS.md must match 1:1",
    },
    RuleInfo {
        id: "env-var-registry",
        summary: "every std::env::var(\"PNC_…\") read must be documented in the README table",
    },
    RuleInfo {
        id: "panic-reachability",
        summary: "no pub library API may reach a residual panic site; shortest call path reported",
    },
    RuleInfo {
        id: "lock-across-blocking",
        summary: "MutexGuard live across Condvar::wait or TCP/file I/O in pnc-serve",
    },
];

/// True when `id` names a rule (including the engine's hygiene pseudo-rule,
/// which exists so reports can name it — it still cannot be suppressed).
pub fn is_known_rule(id: &str) -> bool {
    id == SUPPRESSION_RULE || RULES.iter().any(|r| r.id == id)
}

/// Crates whose numeric results must be bit-identical across thread counts;
/// hash-ordered iteration is banned here outright.
const NUMERIC_CRATES: &[&str] = &[
    "pnc-linalg",
    "pnc-autodiff",
    "pnc-spice",
    "pnc-fit",
    "pnc-core",
    "pnc-surrogate",
    "pnc-qmc",
];

/// Crates allowed to read the wall clock: timing is the purpose of
/// `pnc-obs` and `pnc-bench`.
const WALLCLOCK_CRATES: &[&str] = &["pnc-obs", "pnc-bench"];

/// The one file allowed to name rayon: it implements
/// `ParallelConfig::ordered_par_map`, the helper everything else calls.
const RAYON_FILE: &str = "crates/linalg/src/parallel.rs";

/// Rayon combinators that start a parallel chain.
const PAR_ITER_IDENTS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_windows",
    "par_bridge",
];

/// Runs every per-file rule on `file`.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    no_wallclock(file, &mut findings);
    no_hash_iteration(file, &mut findings);
    rayon_confinement(file, &mut findings);
    no_panic_in_lib(file, &mut findings);
    forbid_unsafe_kept(file, &mut findings);
    findings
}

/// Runs the workspace-level doc/code consistency rules.
pub fn check_workspace(files: &[SourceFile], docs: &Docs) -> Vec<Finding> {
    let mut findings = Vec::new();
    metric_key_drift(files, docs, &mut findings);
    env_var_registry(files, docs, &mut findings);
    findings
}

/// Code tokens (comments dropped) of a file, borrowed.
fn code(file: &SourceFile) -> Vec<&Token> {
    file.tokens.iter().filter(|t| t.is_code()).collect()
}

fn no_wallclock(file: &SourceFile, out: &mut Vec<Finding>) {
    if WALLCLOCK_CRATES.contains(&file.crate_name.as_str()) || !file.kind.is_shipping() {
        return;
    }
    let toks = code(file);
    for (i, tok) in toks.iter().enumerate() {
        if file.is_test_line(tok.line) {
            continue;
        }
        let hit = if tok.is_ident("SystemTime") {
            true
        } else if tok.is_ident("Instant") {
            toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        } else {
            false
        };
        if hit {
            out.push(Finding::new(
                "no-wallclock",
                &file.path,
                tok.line,
                tok.col,
                format!(
                    "wall-clock read `{}` in deterministic code; time belongs in pnc-obs spans, \
                     pnc-bench, or tests",
                    tok.text
                ),
            ));
        }
    }
}

fn no_hash_iteration(file: &SourceFile, out: &mut Vec<Finding>) {
    if !NUMERIC_CRATES.contains(&file.crate_name.as_str()) || !file.kind.is_shipping() {
        return;
    }
    for tok in file.tokens.iter().filter(|t| t.is_code()) {
        if (tok.is_ident("HashMap") || tok.is_ident("HashSet")) && !file.is_test_line(tok.line) {
            out.push(Finding::new(
                "no-hash-iteration",
                &file.path,
                tok.line,
                tok.col,
                format!(
                    "`{}` in numeric crate `{}`: iteration order varies run-to-run; use \
                     BTreeMap/BTreeSet or a Vec (suppress only for proven lookup-only use)",
                    tok.text, file.crate_name
                ),
            ));
        }
    }
}

fn rayon_confinement(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.kind.is_shipping() || file.path == RAYON_FILE {
        return;
    }
    for tok in file.tokens.iter().filter(|t| t.is_code()) {
        let named = tok.kind == TokenKind::Ident
            && (tok.text == "rayon" || PAR_ITER_IDENTS.contains(&tok.text.as_str()));
        if named && !file.is_test_line(tok.line) {
            out.push(Finding::new(
                "rayon-confinement",
                &file.path,
                tok.line,
                tok.col,
                format!(
                    "`{}` outside {RAYON_FILE}: parallelize through \
                     ParallelConfig::ordered_par_map, which returns results in input order at \
                     every thread count, and reduce them serially",
                    tok.text
                ),
            ));
        }
    }
}

fn no_panic_in_lib(file: &SourceFile, out: &mut Vec<Finding>) {
    // Library code only: binaries may abort on setup failure (their panics
    // surface as a nonzero exit, not a corrupted long computation).
    if !matches!(file.kind, FileKind::CrateRoot | FileKind::Lib) {
        return;
    }
    let toks = code(file);
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.is_test_line(tok.line) {
            continue;
        }
        let method_call =
            matches!(tok.text.as_str(), "unwrap" | "expect") && i > 0 && toks[i - 1].is_punct('.');
        let macro_call = matches!(
            tok.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if method_call || macro_call {
            let display = if macro_call {
                format!("{}!", tok.text)
            } else {
                format!(".{}()", tok.text)
            };
            out.push(Finding::new(
                "no-panic-in-lib",
                &file.path,
                tok.line,
                tok.col,
                format!(
                    "`{display}` in shipping code can abort the process; return a Result \
                     (or suppress with the invariant that makes it unreachable)"
                ),
            ));
        }
    }
}

fn forbid_unsafe_kept(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::CrateRoot {
        return;
    }
    let toks = code(file);
    let found = toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !found {
        out.push(Finding::new(
            "forbid-unsafe-kept",
            &file.path,
            1,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`; every workspace crate keeps it"
                .to_string(),
        ));
    }
}

/// A metric-name literal found in code: `Counter::new("…")`,
/// `Histogram::new("…")` or `Gauge::new("…")` outside test code.
#[derive(Debug)]
struct MetricUse {
    name: String,
    path: String,
    line: u32,
    col: u32,
}

fn collect_metric_uses(files: &[SourceFile]) -> Vec<MetricUse> {
    let mut uses = Vec::new();
    for file in files {
        if !file.kind.is_shipping() {
            continue;
        }
        let toks = code(file);
        for w in toks.windows(6) {
            if (w[0].is_ident("Counter") || w[0].is_ident("Histogram") || w[0].is_ident("Gauge"))
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("new")
                && w[4].is_punct('(')
                && w[5].kind == TokenKind::Str
                && !file.is_test_line(w[0].line)
            {
                uses.push(MetricUse {
                    name: w[5].text.clone(),
                    path: file.path.clone(),
                    line: w[5].line,
                    col: w[5].col,
                });
            }
        }
    }
    uses
}

fn metric_key_drift(files: &[SourceFile], docs: &Docs, out: &mut Vec<Finding>) {
    let uses = collect_metric_uses(files);
    let Some(metrics_md) = &docs.metrics else {
        if !uses.is_empty() {
            let first = &uses[0];
            out.push(Finding::new(
                "metric-key-drift",
                &first.path,
                first.line,
                first.col,
                "metrics are constructed but docs/METRICS.md was not found".to_string(),
            ));
        }
        return;
    };
    let documented = docs::metric_names(&metrics_md.text);
    for m in &uses {
        if !documented.iter().any(|(name, _)| name == &m.name) {
            out.push(Finding::new(
                "metric-key-drift",
                &m.path,
                m.line,
                m.col,
                format!(
                    "metric `{}` is not catalogued in the Counters/Histograms/Gauges tables of {}",
                    m.name, metrics_md.path
                ),
            ));
        }
    }
    for (name, line) in &documented {
        if !uses.iter().any(|m| &m.name == name) {
            out.push(Finding::new(
                "metric-key-drift",
                &metrics_md.path,
                *line,
                1,
                format!(
                    "documented metric `{name}` has no Counter::new/Histogram::new/Gauge::new \
                     call site in the workspace"
                ),
            ));
        }
    }
}

fn env_var_registry(files: &[SourceFile], docs: &Docs, out: &mut Vec<Finding>) {
    // Reads: env::var / env::var_os with a PNC_ literal argument.
    let mut reads: Vec<MetricUse> = Vec::new();
    // All PNC_ string literals anywhere in shipping code (covers reads that
    // go through a named constant, e.g. ParallelConfig::ENV_VAR).
    let mut literals: Vec<String> = Vec::new();
    for file in files {
        if file.kind == FileKind::Test || file.kind == FileKind::Bench {
            continue;
        }
        let toks = code(file);
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind == TokenKind::Str && docs::is_env_name(&tok.text) {
                if file.is_test_line(tok.line) {
                    continue;
                }
                if !literals.contains(&tok.text) {
                    literals.push(tok.text.clone());
                }
                let is_env_read = i >= 4
                    && toks[i - 1].is_punct('(')
                    && (toks[i - 2].is_ident("var") || toks[i - 2].is_ident("var_os"))
                    && toks[i - 3].is_punct(':')
                    && toks[i - 4].is_punct(':')
                    && toks
                        .get(i.wrapping_sub(5))
                        .is_some_and(|t| t.is_ident("env"));
                if is_env_read {
                    reads.push(MetricUse {
                        name: tok.text.clone(),
                        path: file.path.clone(),
                        line: tok.line,
                        col: tok.col,
                    });
                }
            }
        }
    }
    let Some(readme) = &docs.readme else {
        if let Some(first) = reads.first() {
            out.push(Finding::new(
                "env-var-registry",
                &first.path,
                first.line,
                first.col,
                "PNC_ environment variables are read but README.md was not found".to_string(),
            ));
        }
        return;
    };
    let mentions = docs::env_mentions(&readme.text);
    for read in &reads {
        if !mentions.iter().any(|m| m == &read.name) {
            out.push(Finding::new(
                "env-var-registry",
                &read.path,
                read.line,
                read.col,
                format!(
                    "`{}` is read from the environment but absent from the README \
                     environment-variable table",
                    read.name
                ),
            ));
        }
    }
    // Reverse direction: every table row must correspond to a literal the
    // code actually carries, so the table cannot advertise dead knobs.
    for (name, line) in docs::readme_env_table(&readme.text) {
        if !literals.iter().any(|l| l == &name) {
            out.push(Finding::new(
                "env-var-registry",
                &readme.path,
                line,
                1,
                format!(
                    "README documents `{name}` but no shipping code carries that \
                     environment-variable literal"
                ),
            ));
        }
    }
}
