//! Fixture-corpus tests: every rule family exercised against known-bad
//! and known-clean snippets under `tests/fixtures/`. The fixture files
//! are data (the xtask workspace walk skips `/fixtures/` paths), so they
//! are free to violate every rule on purpose.

use flashmark_lint_engine::{analyze, Report, Rule, SourceFile};

/// Analyzes one fixture as if it lived at `path` inside the workspace.
fn analyze_at(path: &str, source: &str) -> Report {
    analyze(&[SourceFile {
        path: path.to_string(),
        source: source.to_string(),
    }])
}

/// Findings of one rule.
fn of(report: &Report, rule: Rule) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn raw_strings_and_comments_never_fire() {
    // The fixture spells a zero compare, a wrapping call and a constant
    // seed in every kind of string and comment; only its unreached `pub`
    // items are findings.
    let r = analyze_at(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/clean_raw_string.rs"),
    );
    assert!(
        r.findings.iter().all(|f| f.rule == Rule::PubLiveness),
        "a rule fired inside string data: {:?}",
        r.findings
    );
}

#[test]
fn nested_cfg_test_regions_are_fully_exempt() {
    // The fixture's unit tests do not keep `live` live; a bin calling it
    // does, so every remaining finding would come from test-only code,
    // which breaks float-eq, wrapping-audit, seed-dataflow and
    // merge-commutativity.
    let r = analyze(&[
        SourceFile {
            path: "crates/core/src/fixture.rs".to_string(),
            source: include_str!("fixtures/nested_cfg_test.rs").to_string(),
        },
        SourceFile {
            path: "crates/core/src/bin/driver.rs".to_string(),
            source: "//! Driver.\nfn main() {\n    let _ = live(1);\n}\n".to_string(),
        },
    ]);
    assert!(
        r.findings.is_empty(),
        "test-only code produced findings: {:?}",
        r.findings
    );
}

#[test]
fn constant_seeded_streams_are_flagged() {
    let r = analyze_at(
        "crates/physics/src/fixture.rs",
        include_str!("fixtures/bad_seed.rs"),
    );
    assert_eq!(
        of(&r, Rule::SeedDataflow),
        4,
        "direct constant, laundered constant, constant cell draw, constant counter stream"
    );
}

#[test]
fn param_derived_streams_are_clean() {
    let r = analyze_at(
        "crates/physics/src/fixture.rs",
        include_str!("fixtures/clean_seed.rs"),
    );
    assert_eq!(of(&r, Rule::SeedDataflow), 0, "{:?}", r.findings);
}

#[test]
fn float_accumulation_in_merge_code_is_flagged() {
    let r = analyze_at(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_merge.rs"),
    );
    assert_eq!(
        of(&r, Rule::MergeCommutativity),
        3,
        "ber read, float-literal RHS, float let-binding"
    );
}

#[test]
fn integer_merges_are_clean() {
    let r = analyze_at(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/clean_merge.rs"),
    );
    assert_eq!(of(&r, Rule::MergeCommutativity), 0, "{:?}", r.findings);
}

#[test]
fn classic_families_each_fire() {
    let r = analyze_at(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/bad_classic.rs"),
    );
    let float_eq: Vec<u32> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::FloatEq)
        .map(|f| f.line)
        .collect();
    assert_eq!(float_eq, [5], "`wear == 0.0` only; `a == 0.5` is clippy's");
    assert_eq!(of(&r, Rule::WrappingAudit), 1, "wrapping_mul");
}
