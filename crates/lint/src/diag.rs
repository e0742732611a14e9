//! Findings: what a rule reports, where, and in what state.

use std::fmt;

/// Lifecycle state of a finding after suppressions have been applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Unsuppressed — fails `check`.
    New,
    /// Silenced by an inline `pnc-lint: allow(...)` comment; carries the
    /// stated reason.
    Suppressed(String),
}

/// One diagnostic produced by a rule (or by the engine's suppression
/// hygiene checks).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `no-panic-in-lib`.
    pub rule: &'static str,
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the remedy.
    pub message: String,
    /// Suppression state.
    pub status: Status,
}

impl Finding {
    /// Creates a finding in the [`Status::New`] state.
    pub fn new(rule: &'static str, path: &str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col,
            message,
            status: Status::New,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Sorts findings into the stable reporting order: path, then line, column,
/// and rule id.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}
