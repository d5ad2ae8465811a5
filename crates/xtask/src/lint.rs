//! Thin driver for the `flashmark-lint-engine` static analysis pass.
//!
//! All lexing, scope analysis, and rule logic lives in
//! `crates/lint-engine`; this module only does the I/O the engine
//! deliberately avoids: walking the workspace for sources, writing the
//! deterministic report (`results/lint_report.json`), and mapping the
//! outcome to an exit code for CI.

use std::path::{Path, PathBuf};

use flashmark_lint_engine::{analyze, Report, SourceFile};

/// Output format for findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// One `file:line: [rule] message` diagnostic per finding.
    Human,
    /// The full report JSON (same bytes as `results/lint_report.json`).
    Json,
}

/// Outcome of a lint run, for exit-code mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// No unsuppressed findings.
    Clean,
    /// Unsuppressed findings remain.
    Dirty,
    /// An I/O failure prevented a verdict.
    Error,
}

/// Relative path of the machine-readable report.
pub(crate) const REPORT_PATH: &str = "results/lint_report.json";

/// Directories under a package that hold Rust sources. The engine lints
/// only the workspace crates' `src/` files; every other file, like every
/// bin, belongs to a non-library target whose items are the pub-liveness
/// roots.
const CRATE_SUBDIRS: [&str; 4] = ["src", "tests", "examples", "benches"];

/// Walks the workspace, plus the `benchmark/` package that builds against
/// it, and returns every Rust source as a [`SourceFile`] with a
/// workspace-relative, `/`-separated path. Returns `Err` with the
/// offending path on a read failure.
pub(crate) fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut packages = vec![root.to_path_buf(), root.join("benchmark")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        packages.extend(entries.flatten().map(|entry| entry.path()));
    }
    let mut paths = Vec::new();
    for package in &packages {
        for sub in CRATE_SUBDIRS {
            collect_rs_files(&package.join(sub), &mut paths);
        }
    }
    paths.sort();

    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.contains("/fixtures/") {
            // Lint-engine test fixtures are deliberately rule-violating
            // snippets; they are exercised by the engine's own tests.
            continue;
        }
        let source = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
        files.push(SourceFile { path: rel, source });
    }
    Ok(files)
}

/// Recursively collects `.rs` files under `dir` (missing dirs are fine).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Writes the deterministic report under `results/`.
fn write_report(root: &Path, report: &Report) -> Result<(), String> {
    let path = root.join(REPORT_PATH);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, report.to_json()).map_err(|e| format!("{REPORT_PATH}: {e}"))
}

/// Runs the full lint pass against the workspace at `root`.
pub(crate) fn run(root: &Path, format: Format) -> Outcome {
    let files = match collect_sources(root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("xtask lint: cannot read {e}");
            return Outcome::Error;
        }
    };
    let report = analyze(&files);

    if let Err(e) = write_report(root, &report) {
        eprintln!("xtask lint: cannot write {e}");
        return Outcome::Error;
    }

    match format {
        Format::Json => println!("{}", report.to_json()),
        Format::Human => {
            for f in &report.findings {
                println!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message);
            }
            println!(
                "xtask lint: {} files checked, {} finding(s), {} suppressed",
                report.files_checked,
                report.findings.len(),
                report.suppressed
            );
        }
    }

    if report.findings.is_empty() {
        Outcome::Clean
    } else {
        Outcome::Dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(Path::parent)
            .map_or(manifest.clone(), Path::to_path_buf)
    }

    #[test]
    fn collect_sources_covers_the_workspace() {
        let files = collect_sources(&workspace_root()).unwrap();
        let has = |p: &str| files.iter().any(|f| f.path == p);
        assert!(has("src/lib.rs"), "root facade collected");
        assert!(has("crates/physics/src/rng.rs"), "crate sources collected");
        assert!(has("crates/xtask/src/lint.rs"), "tooling collected");
        assert!(
            has("benchmark/src/main.rs") && has("benchmark/tests/cli.rs"),
            "the benchmark package is collected: its items are roots"
        );
        assert!(
            files.iter().all(|f| !f.path.contains("/fixtures/")),
            "fixtures excluded"
        );
        assert!(
            files.iter().all(|f| !f.path.contains('\\')),
            "paths are /-separated"
        );
    }

    /// rustc's `missing_docs`, `unreachable_pub` and `unsafe_code`, and the
    /// `[workspace.lints.clippy]` settings, reach a crate only through its
    /// `[lints]` table.
    #[test]
    fn every_manifest_inherits_the_workspace_lints() {
        let root = workspace_root();
        let mut manifests = vec![root.join("Cargo.toml")];
        let crates = std::fs::read_dir(root.join("crates")).unwrap();
        manifests.extend(
            crates
                .flatten()
                .map(|entry| entry.path().join("Cargo.toml")),
        );
        assert!(manifests.len() > 10, "{manifests:?}");
        for manifest in &manifests {
            let text = std::fs::read_to_string(manifest).unwrap();
            let inherits = text
                .split("\n[")
                .find(|table| table.starts_with("lints]"))
                .is_some_and(|table| table.lines().any(|l| l.trim() == "workspace = true"));
            assert!(
                inherits,
                "{} lacks `[lints] workspace = true`",
                manifest.display()
            );
        }
    }

    #[test]
    fn workspace_is_clean() {
        let report = analyze(&collect_sources(&workspace_root()).unwrap());
        let diagnostics: Vec<String> = report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
            .collect();
        assert!(
            report.findings.is_empty(),
            "unsuppressed findings:\n{}",
            diagnostics.join("\n")
        );
    }

    #[test]
    fn report_matches_committed_artifact() {
        let root = workspace_root();
        let report = analyze(&collect_sources(&root).unwrap());
        let committed = std::fs::read_to_string(root.join(REPORT_PATH))
            .expect("results/lint_report.json is committed");
        assert_eq!(
            report.to_json(),
            committed,
            "committed lint report is out of date: run cargo xtask lint"
        );
    }
}
