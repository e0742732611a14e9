//! The machine-readable JSON report (`artifacts/lint_report.json`).

use crate::diag::{Finding, Status};

/// Escapes `s` for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report. `files_scanned` is the number of source files
/// analyzed; findings must already be in final (post-suppression) state.
pub fn render(findings: &[Finding], files_scanned: usize) -> String {
    let total = findings.len();
    let new = findings.iter().filter(|f| f.status == Status::New).count();
    let suppressed = total - new;
    // Suppression hygiene rides along with the registered rules.
    let rules_run = crate::rules::RULES.len() + 1;

    let mut out = String::from("{\n  \"schema\": \"pnc-lint-report/3\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"rules_run\": {rules_run},\n"));
    out.push_str(&format!(
        "  \"summary\": {{\"total\": {total}, \"new\": {new}, \"suppressed\": {suppressed}}},\n"
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (status, reason) = match &f.status {
            Status::New => ("new", None),
            Status::Suppressed(reason) => ("suppressed", Some(reason.as_str())),
        };
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
             \"status\": \"{}\", \"message\": \"{}\"",
            escape(f.rule),
            escape(&f.path),
            f.line,
            f.col,
            status,
            escape(&f.message),
        ));
        if let Some(reason) = reason {
            out.push_str(&format!(", \"reason\": \"{}\"", escape(reason)));
        }
        out.push('}');
    }
    if findings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}
