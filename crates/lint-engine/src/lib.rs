//! Token-aware static analysis for the Flashmark workspace.
//!
//! Every guarantee this reproduction ships — byte-identical artifacts at
//! any `--threads` count, replayable fault schedules, the 0-flip campaign
//! results — rests on determinism discipline that a line-oriented text
//! scanner can only spot-check. This crate is the real static-analysis
//! layer behind `cargo xtask lint`:
//!
//! * [`lexer`] — a Rust lexer that strips comments, strings, raw strings
//!   and char literals *correctly*, with token spans preserved;
//! * [`scope`] — file classification (which rule families apply where)
//!   and a lightweight item/scope parser (`#[cfg(test)]` regions,
//!   `macro_rules!` bodies, per-function scopes);
//! * [`rules`] — the rules no rustc or clippy lint matches: panic-free hot
//!   paths, exact float equality (clippy's `float_cmp` skips `x == 0.0`),
//!   library printing, seed-dataflow, merge-commutativity, the wrapping
//!   arithmetic inventory, and workspace pub-API liveness. Missing docs and
//!   `unsafe` are rustc's workspace lints; hash-ordered containers, the
//!   wall clock, OS randomness and raw threads are banned in `clippy.toml`;
//! * [`suppress`] — `// flashmark-lint: allow(<rule>) -- <justification>`
//!   comments (justification mandatory);
//! * [`finding`] — findings, the deterministic JSON report
//!   (`results/lint_report.json`), and the committed baseline.
//!
//! The engine is plain `std`, fully offline, and deterministic: the same
//! sources produce a byte-identical report on every run.
//!
//! # Example
//!
//! ```
//! use flashmark_lint_engine::{analyze, SourceFile};
//!
//! let files = vec![SourceFile {
//!     path: "crates/nor/src/seeded.rs".to_string(),
//!     source: "/// Doc.\npub fn hot(v: Option<u32>) -> u32 { v.unwrap() }\n".to_string(),
//! }];
//! let report = analyze(&files);
//! assert_eq!(report.findings.len(), 2); // panic-free + pub-liveness
//! ```

pub mod finding;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod suppress;

pub use finding::{baseline_from_json, baseline_to_json, BaselineEntry, Finding, Report, Rule};
pub use scope::FileScope;

/// One workspace source file handed to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full source text.
    pub source: String,
}

/// Analyzes a set of workspace sources.
///
/// Pass **every** `.rs` file in the workspace (library sources, binary
/// targets, integration tests, examples, benches, `benchmark/`): files
/// outside the lint scope are not themselves linted, but their items are
/// the pub-liveness roots, so a `pub` item that no such file reaches, even
/// through other library items, is a finding.
///
/// The returned report is normalized (sorted) and carries suppression
/// accounting; the caller applies the baseline.
#[must_use]
pub fn analyze(files: &[SourceFile]) -> Report {
    let mut report = Report::default();
    let mut graph = rules::liveness::Graph::default();
    let mut all_suppressions: Vec<(String, Vec<suppress::Suppression>)> = Vec::new();
    let mut findings = Vec::new();

    // Deterministic order regardless of how the caller collected files.
    let mut sorted: Vec<&SourceFile> = files.iter().collect();
    sorted.sort_by(|a, b| a.path.cmp(&b.path));

    for file in sorted {
        let tokens = lexer::lex(&file.source);
        let scope = FileScope::classify(&file.path);
        // Every file that is not a linted library source belongs to a
        // non-library target (bin, test, example, bench, `benchmark/`),
        // whose items are the pub-liveness roots.
        match &scope {
            Some(s) if s.rules.pub_liveness => graph.add_library(&s.path, &tokens),
            _ => graph.add_root(&tokens),
        }
        let Some(scope) = scope else {
            continue;
        };
        report.files_checked += 1;
        let structure = scope::Structure::analyze(&tokens);
        let (suppressions, suppression_problems) = suppress::parse(&scope.path, &tokens);
        findings.extend(suppression_problems);
        findings.extend(rules::run_file(&scope, &tokens, &structure));
        all_suppressions.push((scope.path.clone(), suppressions));
    }

    graph.check(&mut findings);

    // Apply suppressions file by file (a suppression only ever covers
    // findings in its own file).
    let mut kept = Vec::new();
    for finding in findings {
        let suppressions = all_suppressions
            .iter()
            .find(|(path, _)| *path == finding.file)
            .map_or(&[][..], |(_, s)| s.as_slice());
        let covered = finding.rule != Rule::Suppression
            && suppressions
                .iter()
                .any(|s| s.covers(finding.rule, finding.line));
        if covered {
            report.suppressed += 1;
        } else {
            kept.push(finding);
        }
    }
    report.findings = kept;
    report.normalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, source: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            source: source.to_string(),
        }
    }

    #[test]
    fn end_to_end_injected_violation_is_found() {
        let report = analyze(&[file(
            "crates/physics/src/seeded.rs",
            "/// Doc.\npub fn noise_stream() -> SplitMix64 {\n    SplitMix64::new(0xBAD_5EED_u64)\n}\n",
        )]);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == Rule::SeedDataflow && f.line == 3));
    }

    #[test]
    fn suppression_with_justification_silences() {
        let src = "/// Doc.\npub fn noise_stream(seed: u64) -> SplitMix64 {\n    // flashmark-lint: allow(seed-dataflow) -- fixture stream, seed threaded by caller\n    SplitMix64::new(0x1234)\n}\n";
        let report = analyze(&[file("crates/physics/src/seeded.rs", src)]);
        assert!(report.findings.iter().all(|f| f.rule != Rule::SeedDataflow));
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn unjustified_suppression_does_not_silence() {
        let src = "/// Doc.\npub fn noise_stream(seed: u64) -> SplitMix64 {\n    // flashmark-lint: allow(seed-dataflow)\n    SplitMix64::new(0x1234)\n}\n";
        let report = analyze(&[file("crates/physics/src/seeded.rs", src)]);
        assert!(report.findings.iter().any(|f| f.rule == Rule::SeedDataflow));
        assert!(report.findings.iter().any(|f| f.rule == Rule::Suppression));
        assert_eq!(report.suppressed, 0);
    }

    #[test]
    fn cross_file_liveness_sees_test_references() {
        let lib = file(
            "crates/nor/src/thing.rs",
            "/// Doc.\npub fn exercised_by_test() {}\n/// Doc.\npub fn truly_orphaned() {}\n",
        );
        let test = file(
            "crates/nor/tests/t.rs",
            "#[test]\nfn t() { exercised_by_test(); }\n",
        );
        let report = analyze(&[lib, test]);
        let liveness: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::PubLiveness)
            .collect();
        assert_eq!(liveness.len(), 1);
        assert!(liveness[0].message.contains("truly_orphaned"));
    }

    #[test]
    fn report_is_byte_identical_across_runs() {
        let files = vec![
            file(
                "crates/nor/src/a.rs",
                "pub fn unreached_thing() { x.unwrap(); }\n",
            ),
            file(
                "crates/core/src/b.rs",
                "fn f(x: f64) -> bool { x == 0.5 }\n",
            ),
        ];
        let a = analyze(&files).to_json();
        let mut reversed: Vec<SourceFile> = files.clone();
        reversed.reverse();
        let b = analyze(&reversed).to_json();
        assert_eq!(a, b, "input order must not matter");
    }

    #[test]
    fn files_checked_counts_only_linted_files() {
        let report = analyze(&[
            file("crates/nor/src/a.rs", "fn f() {}\n"),
            file("crates/nor/tests/t.rs", "fn t() {}\n"),
            file("examples/e.rs", "fn main() {}\n"),
        ]);
        assert_eq!(report.files_checked, 1);
    }
}
