//! Fixture-driven positive/negative tests: every rule must catch its
//! deliberately seeded violations and stay quiet on the adjacent compliant
//! code. Fixtures live under `tests/fixtures/` — a directory the workspace
//! loader skips, so the seeded violations never leak into real runs.

use pnc_lint::docs::{DocFile, Docs};
use pnc_lint::engine::analyze;
use pnc_lint::{FileKind, SourceFile, Status};

/// Parses a fixture as one file of a pretend workspace and runs the full
/// engine (rules + suppressions) over it with the given docs.
fn run(
    path: &str,
    crate_name: &str,
    kind: FileKind,
    text: &str,
    docs: &Docs,
) -> Vec<pnc_lint::Finding> {
    let file = SourceFile::parse(path, crate_name, kind, text);
    analyze(&[file], docs, &std::collections::BTreeMap::new())
}

fn rule_lines(findings: &[pnc_lint::Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.status == Status::New)
        .map(|f| f.line)
        .collect()
}

#[test]
fn no_wallclock_catches_seeded_reads() {
    let text = include_str!("fixtures/wallclock.rs");
    // pnc-serve times requests through pnc-obs spans and has no deadline of
    // its own, so it gets no exemption either.
    for (path, crate_name) in [
        ("crates/core/src/wallclock.rs", "pnc-core"),
        ("crates/serve/src/wallclock.rs", "pnc-serve"),
    ] {
        let findings = run(path, crate_name, FileKind::Lib, text, &Docs::default());
        // Instant::now once, SystemTime twice; the comment, string-literal,
        // and cfg(test) mentions must all stay quiet.
        assert_eq!(
            rule_lines(&findings, "no-wallclock").len(),
            3,
            "{crate_name}: {findings:?}"
        );
    }
}

#[test]
fn no_wallclock_exempts_timing_crates() {
    let text = include_str!("fixtures/wallclock.rs");
    for crate_name in ["pnc-obs", "pnc-bench"] {
        let findings = run(
            "crates/obs/src/wallclock.rs",
            crate_name,
            FileKind::Lib,
            text,
            &Docs::default(),
        );
        assert!(
            rule_lines(&findings, "no-wallclock").is_empty(),
            "{findings:?}"
        );
    }
}

#[test]
fn no_hash_iteration_catches_numeric_crate_use() {
    let text = include_str!("fixtures/hash_iteration.rs");
    let findings = run(
        "crates/linalg/src/hash.rs",
        "pnc-linalg",
        FileKind::Lib,
        text,
        &Docs::default(),
    );
    // Three HashMap mentions; the cfg(test) HashSet stays quiet.
    assert_eq!(
        rule_lines(&findings, "no-hash-iteration").len(),
        3,
        "{findings:?}"
    );
}

#[test]
fn no_hash_iteration_ignores_non_numeric_crates() {
    let text = include_str!("fixtures/hash_iteration.rs");
    let findings = run(
        "crates/bench/src/hash.rs",
        "pnc-bench",
        FileKind::Lib,
        text,
        &Docs::default(),
    );
    assert!(
        rule_lines(&findings, "no-hash-iteration").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn ordered_reduction_catches_parallel_sum_only() {
    let text = include_str!("fixtures/ordered_reduction.rs");
    let findings = run(
        "crates/core/src/par.rs",
        "pnc-core",
        FileKind::Lib,
        text,
        &Docs::default(),
    );
    // Exactly the `.sum()` chained on par_iter; the serial fold inside the
    // closure and the fully serial sum stay quiet.
    assert_eq!(
        rule_lines(&findings, "ordered-reduction").len(),
        1,
        "{findings:?}"
    );
}

#[test]
fn ordered_reduction_exempts_the_helper_implementation() {
    let text = include_str!("fixtures/ordered_reduction.rs");
    let findings = run(
        "crates/linalg/src/parallel.rs",
        "pnc-linalg",
        FileKind::Lib,
        text,
        &Docs::default(),
    );
    assert!(
        rule_lines(&findings, "ordered-reduction").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn no_panic_in_lib_catches_seeded_panics_and_honors_suppression() {
    let text = include_str!("fixtures/panics.rs");
    let findings = run(
        "crates/core/src/panics.rs",
        "pnc-core",
        FileKind::Lib,
        text,
        &Docs::default(),
    );
    // unwrap, expect, panic!, unreachable! — 4 new; the suppressed unwrap
    // and the cfg(test) module stay out of the New set.
    assert_eq!(
        rule_lines(&findings, "no-panic-in-lib").len(),
        4,
        "{findings:?}"
    );
    let suppressed: Vec<_> = findings
        .iter()
        .filter(|f| matches!(f.status, Status::Suppressed(_)))
        .collect();
    assert_eq!(suppressed.len(), 1, "{findings:?}");
    // The suppression is used, so no hygiene findings appear.
    assert!(
        rule_lines(&findings, "suppression-hygiene").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn no_panic_in_lib_exempts_binaries_tests_and_benches() {
    let text = include_str!("fixtures/panics.rs");
    for kind in [
        FileKind::Bin,
        FileKind::Test,
        FileKind::Bench,
        FileKind::Example,
    ] {
        let findings = run(
            "crates/core/src/bin/x.rs",
            "pnc-core",
            kind,
            text,
            &Docs::default(),
        );
        assert!(
            rule_lines(&findings, "no-panic-in-lib").is_empty(),
            "{kind:?}: {findings:?}"
        );
    }
}

#[test]
fn forbid_unsafe_kept_requires_the_attribute_on_crate_roots() {
    let missing = include_str!("fixtures/root_missing_forbid.rs");
    let ok = include_str!("fixtures/root_ok.rs");
    let findings = run(
        "crates/x/src/lib.rs",
        "pnc-x",
        FileKind::CrateRoot,
        missing,
        &Docs::default(),
    );
    assert_eq!(
        rule_lines(&findings, "forbid-unsafe-kept").len(),
        1,
        "{findings:?}"
    );

    let findings = run(
        "crates/x/src/lib.rs",
        "pnc-x",
        FileKind::CrateRoot,
        ok,
        &Docs::default(),
    );
    assert!(
        rule_lines(&findings, "forbid-unsafe-kept").is_empty(),
        "{findings:?}"
    );

    // Non-root files carry no such obligation.
    let findings = run(
        "crates/x/src/util.rs",
        "pnc-x",
        FileKind::Lib,
        missing,
        &Docs::default(),
    );
    assert!(
        rule_lines(&findings, "forbid-unsafe-kept").is_empty(),
        "{findings:?}"
    );
}

/// Docs pair for the metric/env fixture: each table documents one name the
/// code carries and one it does not.
fn fixture_docs() -> Docs {
    let metrics = "\
# Metrics

## Counters

| name | meaning |
|---|---|
| `fixture.documented` | constructed by the fixture |
| `fixture.ghost` | documented but never constructed |

## Histograms
";
    let readme = "\
# Fixture README

| Variable | Meaning |
|---|---|
| `PNC_FIXTURE_DOCUMENTED` | read by the fixture |
| `PNC_FIXTURE_DEAD` | documented but never read |
";
    Docs {
        metrics: Some(DocFile {
            path: "docs/METRICS.md".to_string(),
            text: metrics.to_string(),
        }),
        readme: Some(DocFile {
            path: "README.md".to_string(),
            text: readme.to_string(),
        }),
    }
}

#[test]
fn metric_key_drift_checks_both_directions() {
    let text = include_str!("fixtures/metrics_env.rs");
    let findings = run(
        "crates/core/src/metrics_env.rs",
        "pnc-core",
        FileKind::Lib,
        text,
        &fixture_docs(),
    );
    let drift: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "metric-key-drift")
        .collect();
    assert_eq!(drift.len(), 2, "{drift:?}");
    // Code → docs: the undocumented constructor is reported at its call site.
    assert!(
        drift
            .iter()
            .any(|f| f.path.ends_with("metrics_env.rs")
                && f.message.contains("fixture.undocumented")),
        "{drift:?}"
    );
    // Docs → code: the ghost row is reported against METRICS.md.
    assert!(
        drift
            .iter()
            .any(|f| f.path == "docs/METRICS.md" && f.message.contains("fixture.ghost")),
        "{drift:?}"
    );
}

#[test]
fn env_var_registry_checks_both_directions() {
    let text = include_str!("fixtures/metrics_env.rs");
    let findings = run(
        "crates/core/src/metrics_env.rs",
        "pnc-core",
        FileKind::Lib,
        text,
        &fixture_docs(),
    );
    let env: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "env-var-registry")
        .collect();
    assert_eq!(env.len(), 2, "{env:?}");
    assert!(
        env.iter().any(|f| f.path.ends_with("metrics_env.rs")
            && f.message.contains("PNC_FIXTURE_UNDOCUMENTED")),
        "{env:?}"
    );
    assert!(
        env.iter()
            .any(|f| f.path == "README.md" && f.message.contains("PNC_FIXTURE_DEAD")),
        "{env:?}"
    );
}

#[test]
fn infer_observability_names_match_the_real_docs() {
    // Unlike the other fixtures, this one runs against the REAL workspace
    // docs: the `infer.*` counters it constructs are exactly the ones
    // `pnc-core::infer` ships, so docs/METRICS.md must keep them
    // documented. (Docs→code ghosts about the rest of the workspace are
    // expected here — the pretend workspace is one file — so findings are
    // filtered to the fixture's path.)
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = pnc_lint::workspace::load(&root).expect("workspace loads");
    let text = include_str!("fixtures/infer.rs");
    let findings = run(
        "crates/core/src/infer_fixture.rs",
        "pnc-core",
        FileKind::Lib,
        text,
        &ws.docs,
    );
    let on_fixture: Vec<_> = findings
        .iter()
        .filter(|f| f.path.ends_with("infer_fixture.rs"))
        .collect();
    assert!(
        on_fixture.is_empty(),
        "infer.* observability drifted from the docs: {on_fixture:?}"
    );
}

#[test]
fn suppression_hygiene_reports_malformed_unknown_and_unused() {
    let text = include_str!("fixtures/suppression_hygiene.rs");
    let findings = run(
        "crates/core/src/hygiene.rs",
        "pnc-core",
        FileKind::Lib,
        text,
        &Docs::default(),
    );
    let hygiene = rule_lines(&findings, "suppression-hygiene");
    // Malformed (missing colon), unknown rule, unused, and reason-less.
    assert_eq!(hygiene.len(), 4, "{findings:?}");
}
