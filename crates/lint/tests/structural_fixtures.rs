//! Fixture-driven tests for the structural rules: every rule must catch
//! its deliberately seeded violation (positive fixture) and stay quiet on
//! the adjacent compliant idiom (negative half of the same fixture).
//!
//! The oracle-freeze tests are the regression the registry exists for: an
//! oracle body edited without a matching hash update is a finding, with
//! the original and edited fixture texts standing in for "before" and
//! "after" trees.

use pnc_lint::baseline::OracleEntry;
use pnc_lint::docs::Docs;
use pnc_lint::engine::analyze;
use pnc_lint::fingerprint::fn_fingerprint;
use pnc_lint::structural::REQUIRED_ORACLES;
use pnc_lint::{FileKind, Finding, SourceFile, Status};
use std::collections::BTreeMap;

/// Runs the full engine over a one-file pretend workspace with an oracle
/// registry.
fn run(
    path: &str,
    crate_name: &str,
    text: &str,
    oracles: &BTreeMap<String, OracleEntry>,
) -> Vec<Finding> {
    let file = SourceFile::parse(path, crate_name, FileKind::Lib, text);
    analyze(&[file], &Docs::default(), oracles)
}

fn new_rule_findings<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.status == Status::New)
        .collect()
}

/// The fixture oracle's registry key: the qualified name plus the pretend
/// workspace path the file is parsed under.
const ORACLE_PATH: &str = "crates/linalg/src/matrix.rs";
const ORACLE_KEY: &str = "Matrix::matmul_reference crates/linalg/src/matrix.rs";

/// Fingerprint of `Matrix::matmul_reference` as written in a fixture.
fn fixture_hash(text: &str) -> String {
    let file = SourceFile::parse(ORACLE_PATH, "pnc-linalg", FileKind::Lib, text);
    let item = file
        .fns
        .iter()
        .find(|f| f.qual == "Matrix::matmul_reference")
        .expect("fixture declares the oracle fn");
    fn_fingerprint(&file.tokens, item)
}

fn registry(hash: &str, justification: &str) -> BTreeMap<String, OracleEntry> {
    let mut m = BTreeMap::new();
    m.insert(
        ORACLE_KEY.to_string(),
        OracleEntry {
            hash: hash.to_string(),
            justification: justification.to_string(),
        },
    );
    m
}

#[test]
fn unedited_oracle_matches_its_pinned_hash() {
    let frozen = include_str!("fixtures/oracle_frozen.rs");
    let oracles = registry(&fixture_hash(frozen), "fixture freeze");
    let findings = run(ORACLE_PATH, "pnc-linalg", frozen, &oracles);
    // The pinned fn is clean; the only oracle-freeze findings are the
    // *other* required oracles this one-file workspace cannot contain,
    // reported against the registry file itself.
    let freeze = new_rule_findings(&findings, "oracle-freeze");
    assert_eq!(freeze.len(), REQUIRED_ORACLES.len() - 1, "{freeze:#?}");
    assert!(
        freeze
            .iter()
            .all(|f| f.path == "lint_baseline.json" && f.message.contains("is not pinned")),
        "{freeze:#?}"
    );
}

#[test]
fn edited_oracle_without_hash_update_is_a_finding() {
    let frozen = include_str!("fixtures/oracle_frozen.rs");
    let edited = include_str!("fixtures/oracle_edited.rs");
    assert_ne!(
        fixture_hash(frozen),
        fixture_hash(edited),
        "the edited fixture must actually change the body tokens"
    );
    // Registry still pins the ORIGINAL body's hash — the edit went in
    // without `update-oracles --justify`.
    let oracles = registry(&fixture_hash(frozen), "fixture freeze");
    let findings = run(ORACLE_PATH, "pnc-linalg", edited, &oracles);
    let on_file: Vec<_> = new_rule_findings(&findings, "oracle-freeze")
        .into_iter()
        .filter(|f| f.path == ORACLE_PATH)
        .collect();
    assert_eq!(on_file.len(), 1, "{on_file:#?}");
    assert!(
        on_file[0].message.contains("was edited") && on_file[0].message.contains("update-oracles"),
        "{}",
        on_file[0].message
    );
}

#[test]
fn oracle_registry_entries_require_a_justification() {
    let frozen = include_str!("fixtures/oracle_frozen.rs");
    let oracles = registry(&fixture_hash(frozen), "   ");
    let findings = run(ORACLE_PATH, "pnc-linalg", frozen, &oracles);
    let freeze = new_rule_findings(&findings, "oracle-freeze");
    assert!(
        freeze
            .iter()
            .any(|f| f.path == ORACLE_PATH && f.message.contains("no justification")),
        "{freeze:#?}"
    );
}

#[test]
fn deleted_oracle_fn_is_a_finding() {
    // The registry pins the oracle, but the file no longer declares it.
    let oracles = registry("0000000000000000", "fixture freeze");
    let findings = run(ORACLE_PATH, "pnc-linalg", "pub struct Matrix;\n", &oracles);
    let freeze = new_rule_findings(&findings, "oracle-freeze");
    assert!(
        freeze
            .iter()
            .any(|f| f.path == ORACLE_PATH && f.message.contains("no longer exists")),
        "{freeze:#?}"
    );
}

#[test]
fn panic_reachability_reports_the_shortest_route() {
    let text = include_str!("fixtures/panic_reach.rs");
    let findings = run(
        "crates/serve/src/frames.rs",
        "pnc-serve",
        text,
        &BTreeMap::new(),
    );
    let reach = new_rule_findings(&findings, "panic-reachability");
    // Exactly two: the `[]` in `inner` and the unwrap in `direct`. The
    // orphan unwrap and the test-module panic stay quiet.
    assert_eq!(reach.len(), 2, "{reach:#?}");
    let indexing = reach
        .iter()
        .find(|f| f.message.contains("`[]` indexing"))
        .expect("indexing site reported");
    // `inner` is reachable via entry -> outer -> inner (2 calls) and via
    // shortcut -> inner (1 call); the finding must carry the short route.
    assert!(
        indexing.message.contains("`shortcut -> inner` (1 call)"),
        "{}",
        indexing.message
    );
    let direct = reach
        .iter()
        .find(|f| f.message.contains(".unwrap()"))
        .expect("unwrap site reported");
    assert!(
        direct.message.contains("inside pub fn `direct` itself"),
        "{}",
        direct.message
    );
}

#[test]
fn panic_reachability_indexing_sites_are_crate_scoped() {
    // The same fixture parsed as a numeric crate: `[]` indexing is exempt
    // there (loop-bounded by construction), so only the unwraps count.
    let text = include_str!("fixtures/panic_reach.rs");
    let findings = run(
        "crates/linalg/src/frames.rs",
        "pnc-linalg",
        text,
        &BTreeMap::new(),
    );
    let reach = new_rule_findings(&findings, "panic-reachability");
    assert_eq!(reach.len(), 1, "{reach:#?}");
    assert!(
        reach[0].message.contains(".unwrap()"),
        "{}",
        reach[0].message
    );
}

#[test]
fn lock_across_blocking_flags_the_held_guard_only() {
    let text = include_str!("fixtures/lock_blocking.rs");
    let findings = run(
        "crates/serve/src/pool.rs",
        "pnc-serve",
        text,
        &BTreeMap::new(),
    );
    let locks = new_rule_findings(&findings, "lock-across-blocking");
    // `bad_hold` only; `scoped`, `dropped`, and `waiting` are the three
    // compliant idioms.
    assert_eq!(locks.len(), 1, "{locks:#?}");
    assert!(
        locks[0].message.contains("`guard`") && locks[0].message.contains("flush"),
        "{}",
        locks[0].message
    );
}

#[test]
fn unordered_float_reduction_catches_both_scope_aware_shapes() {
    let text = include_str!("fixtures/rayon_confinement.rs");
    let findings = run(
        "crates/core/src/reduce.rs",
        "pnc-core",
        text,
        &BTreeMap::new(),
    );
    let lines: Vec<u32> = new_rule_findings(&findings, "rayon-confinement")
        .iter()
        .map(|f| f.line)
        .collect();
    // The chain bound to `chain` and reduced a line later, and the chain
    // whose closure adds into the captured `total`: no scope analysis is
    // needed, the `par_iter` that starts each chain is the finding.
    for (shape, line) in [("deferred `chain.sum()`", 15), ("captured `total +=`", 22)] {
        assert!(lines.contains(&line), "{shape} not flagged: {findings:#?}");
    }
}
