//! Fixture-driven tests for the structural rules: every rule must catch
//! its deliberately seeded violation (positive fixture) and stay quiet on
//! the adjacent compliant idiom (negative half of the same fixture).

use pnc_lint::docs::Docs;
use pnc_lint::engine::analyze;
use pnc_lint::{FileKind, Finding, SourceFile, Status};

/// Runs the full engine over a one-file pretend workspace.
fn run(path: &str, crate_name: &str, text: &str) -> Vec<Finding> {
    let file = SourceFile::parse(path, crate_name, FileKind::Lib, text);
    analyze(&[file], &Docs::default())
}

fn new_rule_findings<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.status == Status::New)
        .collect()
}

#[test]
fn panic_reachability_reports_the_shortest_route() {
    let text = include_str!("fixtures/panic_reach.rs");
    let findings = run("crates/serve/src/frames.rs", "pnc-serve", text);
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
    let findings = run("crates/linalg/src/frames.rs", "pnc-linalg", text);
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
    let findings = run("crates/serve/src/pool.rs", "pnc-serve", text);
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
    let findings = run("crates/core/src/reduce.rs", "pnc-core", text);
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
