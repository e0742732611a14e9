//! Ties the rules together: runs them over a set of files and documents,
//! applies inline suppressions, and reports suppression hygiene.

use crate::diag::{sort_findings, Finding, Status};
use crate::docs::Docs;
use crate::rules::{self, SUPPRESSION_RULE};
use crate::source::SourceFile;
use crate::structural;
use std::collections::BTreeSet;

/// Runs every rule over `files` + `docs`, applies suppressions, and returns
/// the findings in stable order.
pub fn analyze(files: &[SourceFile], docs: &Docs) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        findings.extend(rules::check_file(file));
    }
    findings.extend(rules::check_workspace(files, docs));
    findings.extend(structural::check_structural(files));

    // Apply inline suppressions: a suppression covers findings of its rule
    // on its own line and the line directly below — and when suppressions
    // for different rules stack on consecutive lines (one site triggering
    // several rules), the whole stack covers the first code line after it.
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|f| vec![false; f.suppressions.len()])
        .collect();
    let sup_lines: Vec<BTreeSet<u32>> = files
        .iter()
        .map(|f| f.suppressions.iter().map(|s| s.line).collect())
        .collect();
    for finding in &mut findings {
        let Some((fi, file)) = files
            .iter()
            .enumerate()
            .find(|(_, f)| f.path == finding.path)
        else {
            continue;
        };
        for (si, sup) in file.suppressions.iter().enumerate() {
            if sup.rule != finding.rule {
                continue;
            }
            let mut stack_end = sup.line;
            while sup_lines[fi].contains(&(stack_end + 1)) {
                stack_end += 1;
            }
            if finding.line >= sup.line && finding.line <= stack_end + 1 {
                finding.status = Status::Suppressed(sup.reason.clone());
                used[fi][si] = true;
                break;
            }
        }
    }

    // Suppression hygiene: malformed comments, unknown rule ids, and
    // suppressions that no longer silence anything must all be cleaned up.
    for (fi, file) in files.iter().enumerate() {
        for bad in &file.bad_suppressions {
            findings.push(Finding::new(
                SUPPRESSION_RULE,
                &file.path,
                bad.line,
                bad.col,
                bad.message.clone(),
            ));
        }
        for (si, sup) in file.suppressions.iter().enumerate() {
            if !rules::is_known_rule(&sup.rule) {
                findings.push(Finding::new(
                    SUPPRESSION_RULE,
                    &file.path,
                    sup.line,
                    sup.col,
                    format!(
                        "suppression references unknown rule `{}` (see `pnc-lint rules`)",
                        sup.rule
                    ),
                ));
            } else if !used[fi][si] {
                findings.push(Finding::new(
                    SUPPRESSION_RULE,
                    &file.path,
                    sup.line,
                    sup.col,
                    format!(
                        "unused suppression for `{}` — the finding it silenced is gone; \
                         delete the comment",
                        sup.rule
                    ),
                ));
            }
        }
    }

    sort_findings(&mut findings);
    findings
}
