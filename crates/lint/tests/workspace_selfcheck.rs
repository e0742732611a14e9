//! Self-check: the analyzer must run clean on the real workspace. This is
//! the same invariant the CI `lint` job enforces via `pnc-lint check`;
//! keeping it as a test means `cargo test` alone catches a regression.

use std::path::Path;

use pnc_lint::{engine, workspace, Status};

#[test]
fn real_workspace_has_no_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace discovery looks broken: only {} files",
        ws.files.len()
    );
    let findings = engine::analyze(&ws.files, &ws.docs);

    let new: Vec<String> = findings
        .iter()
        .filter(|f| f.status == Status::New)
        .map(|f| f.to_string())
        .collect();
    assert!(
        new.is_empty(),
        "pnc-lint found unsuppressed findings:\n{}",
        new.join("\n")
    );
}

#[test]
fn docs_are_loaded_for_cross_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = workspace::load(&root).expect("workspace loads");
    assert!(ws.docs.metrics.is_some(), "docs/METRICS.md not found");
    assert!(ws.docs.readme.is_some(), "README.md not found");
}
