//! Thin driver for the `flashmark-lint-engine` static analysis pass.
//!
//! All lexing, scope analysis, and rule logic lives in
//! `crates/lint-engine`; this module only does the I/O the engine
//! deliberately avoids: walking the workspace for sources, loading the
//! committed baseline (`lint_baseline.json`), writing the deterministic
//! report (`results/lint_report.json`), and mapping the outcome to an
//! exit code for CI.

use std::path::{Path, PathBuf};

use flashmark_lint_engine::{
    analyze, baseline_from_json, baseline_to_json, BaselineEntry, Report, SourceFile,
};

/// Output format for findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// One `file:line: [rule] message` diagnostic per finding.
    Human,
    /// The full report JSON (same bytes as `results/lint_report.json`).
    Json,
}

/// Parsed `cargo xtask lint` options.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Options {
    /// Findings output format.
    pub format: Format,
    /// Rewrite `lint_baseline.json` from the current findings and exit 0.
    pub update_baseline: bool,
}

/// Outcome of a lint run, for exit-code mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// No unbaselined findings and no stale baseline entries.
    Clean,
    /// Unbaselined findings or stale baseline entries remain.
    Dirty,
    /// An I/O failure prevented a verdict.
    Error,
}

/// Relative path of the committed baseline.
pub(crate) const BASELINE_PATH: &str = "lint_baseline.json";
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

/// Loads the committed baseline; a missing file is an empty baseline.
fn load_baseline(root: &Path) -> Result<Vec<BaselineEntry>, String> {
    let path = root.join(BASELINE_PATH);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{BASELINE_PATH}: {e}"))?;
    baseline_from_json(&text).map_err(|e| format!("{BASELINE_PATH}: {e}"))
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
pub(crate) fn run(root: &Path, options: Options) -> Outcome {
    let files = match collect_sources(root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("xtask lint: cannot read {e}");
            return Outcome::Error;
        }
    };
    let mut report = analyze(&files);

    if options.update_baseline {
        let entries: Vec<BaselineEntry> = report
            .findings
            .iter()
            .map(|f| BaselineEntry {
                rule: f.rule.name().to_string(),
                file: f.file.clone(),
                message: f.message.clone(),
            })
            .collect();
        let path = root.join(BASELINE_PATH);
        if let Err(e) = std::fs::write(&path, baseline_to_json(&entries)) {
            eprintln!("xtask lint: cannot write {BASELINE_PATH}: {e}");
            return Outcome::Error;
        }
        println!(
            "xtask lint: baseline rewritten with {} entr{}",
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" }
        );
    }

    let baseline = match load_baseline(root) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return Outcome::Error;
        }
    };
    let stale = report.apply_baseline(&baseline);

    if let Err(e) = write_report(root, &report) {
        eprintln!("xtask lint: cannot write {e}");
        return Outcome::Error;
    }

    match options.format {
        Format::Json => println!("{}", report.to_json()),
        Format::Human => {
            for f in &report.findings {
                println!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message);
            }
            for s in &stale {
                println!(
                    "{}: [stale-baseline] baseline entry for rule `{}` no longer matches any finding: {}",
                    s.file, s.rule, s.message
                );
            }
            println!(
                "xtask lint: {} files checked, {} finding(s), {} suppressed, {} baselined, {} stale baseline entr{}",
                report.files_checked,
                report.findings.len(),
                report.suppressed,
                report.baselined,
                stale.len(),
                if stale.len() == 1 { "y" } else { "ies" }
            );
        }
    }

    if report.findings.is_empty() && stale.is_empty() {
        Outcome::Clean
    } else {
        if options.format == Format::Json && !stale.is_empty() {
            eprintln!(
                "xtask lint: {} stale baseline entr{} (run with --update-baseline)",
                stale.len(),
                if stale.len() == 1 { "y" } else { "ies" }
            );
        }
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
    fn workspace_is_clean_against_committed_baseline() {
        let root = workspace_root();
        let files = collect_sources(&root).unwrap();
        let mut report = analyze(&files);
        let baseline = load_baseline(&root).unwrap();
        let stale = report.apply_baseline(&baseline);
        let diagnostics: Vec<String> = report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule.name(), f.message))
            .collect();
        assert!(
            report.findings.is_empty(),
            "unbaselined findings:\n{}",
            diagnostics.join("\n")
        );
        assert!(
            stale.is_empty(),
            "stale baseline entries: {stale:?} (run cargo xtask lint --update-baseline)"
        );
    }

    #[test]
    fn report_matches_committed_artifact() {
        let root = workspace_root();
        let files = collect_sources(&root).unwrap();
        let mut report = analyze(&files);
        let baseline = load_baseline(&root).unwrap();
        let _stale = report.apply_baseline(&baseline);
        let committed = std::fs::read_to_string(root.join(REPORT_PATH))
            .expect("results/lint_report.json is committed");
        assert_eq!(
            report.to_json(),
            committed,
            "committed lint report is out of date: run cargo xtask lint"
        );
    }
}
