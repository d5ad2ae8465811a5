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
fn bad_panic_fires_three_times() {
    let r = analyze_at(
        "crates/nor/src/fixture.rs",
        include_str!("fixtures/bad_panic.rs"),
    );
    assert_eq!(of(&r, Rule::PanicFree), 3, "unwrap, expect, unreachable!");
}

#[test]
fn raw_strings_and_comments_never_fire() {
    let r = analyze_at(
        "crates/nor/src/fixture.rs",
        include_str!("fixtures/clean_raw_string.rs"),
    );
    for rule in [Rule::PanicFree, Rule::PrintDiscipline, Rule::FloatEq] {
        assert_eq!(of(&r, rule), 0, "{} fired inside string data", rule.name());
    }
}

#[test]
fn nested_cfg_test_regions_are_fully_exempt() {
    // The fixture's unit tests do not keep `live` live; a bin calling it
    // does, so every remaining finding would come from test-only code.
    let r = analyze(&[
        SourceFile {
            path: "crates/nor/src/fixture.rs".to_string(),
            source: include_str!("fixtures/nested_cfg_test.rs").to_string(),
        },
        SourceFile {
            path: "crates/nor/src/bin/driver.rs".to_string(),
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
    assert_eq!(of(&r, Rule::FloatEq), 1, "a == 0.5");
    assert_eq!(of(&r, Rule::PrintDiscipline), 2, "println + eprintln");
    assert_eq!(of(&r, Rule::WrappingAudit), 1, "wrapping_mul");
}

#[test]
fn suppression_semantics_end_to_end() {
    let r = analyze_at(
        "crates/nor/src/fixture.rs",
        include_str!("fixtures/suppressions.rs"),
    );
    // Kept: the unwraps under the unjustified and unknown-rule comments.
    assert_eq!(of(&r, Rule::PanicFree), 2, "{:?}", r.findings);
    // The bad comments themselves are findings.
    assert_eq!(of(&r, Rule::Suppression), 2, "{:?}", r.findings);
    // Silenced: the justified unwrap plus the multi-rule line (2 findings).
    assert_eq!(r.suppressed, 3);
    assert_eq!(of(&r, Rule::FloatEq), 0, "multi-rule allow covers `==`");
}
