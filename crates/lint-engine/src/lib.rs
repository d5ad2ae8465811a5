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
//! * [`rules`] — the rules no rustc or clippy lint matches: exact float
//!   equality with zero (clippy's `float_cmp` skips `x == 0.0`),
//!   seed-dataflow, merge-commutativity, the wrapping arithmetic
//!   inventory, and workspace pub-API liveness. Missing docs and `unsafe`
//!   are rustc's workspace lints; hash-ordered containers, the wall clock,
//!   OS randomness and raw threads are banned in `clippy.toml`; panics and
//!   prints are clippy lints the crate roots warn on;
//! * [`finding`] — findings and the deterministic JSON report
//!   (`results/lint_report.json`).
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
//! assert_eq!(report.findings.len(), 1); // pub-liveness: nothing reaches `hot`
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod finding;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use finding::{Finding, Report, Rule};
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
/// The returned report is normalized (sorted).
#[must_use]
pub fn analyze(files: &[SourceFile]) -> Report {
    let mut report = Report::default();
    let mut graph = rules::liveness::Graph::default();

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
        report
            .findings
            .extend(rules::run_file(&scope, &tokens, &structure));
    }

    graph.check(&mut report.findings);
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
                "pub fn unreached_thing(x: f64) -> bool { x == 0.0 }\n",
            ),
            file(
                "crates/core/src/b.rs",
                "fn f(x: u64) -> u64 { x.wrapping_mul(3) }\n",
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
