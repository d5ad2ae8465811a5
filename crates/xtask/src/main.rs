//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! Currently one task: `lint`, the static analysis gate backed by
//! `crates/lint-engine`. Usage:
//!
//! ```text
//! cargo xtask lint                     # human diagnostics
//! cargo xtask lint --format json      # print the report JSON
//! cargo xtask lint --update-baseline  # rewrite lint_baseline.json
//! ```
//!
//! Every run rewrites `results/lint_report.json` (byte-identical for
//! identical sources). Exit code 0 means the workspace is clean against
//! the committed baseline; 1 means findings or stale baseline entries;
//! 2 means usage or I/O error.

mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--format human|json] [--update-baseline]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_options(&args[1..]) {
            Ok(options) => match lint::run(&workspace_root(), options) {
                lint::Outcome::Clean => ExitCode::SUCCESS,
                lint::Outcome::Dirty => ExitCode::FAILURE,
                lint::Outcome::Error => ExitCode::from(2),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!("unknown task `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parses the flags after `lint`.
fn parse_lint_options(args: &[String]) -> Result<lint::Options, String> {
    let mut options = lint::Options {
        format: lint::Format::Human,
        update_baseline: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it.next().ok_or("--format needs a value")?;
                options.format = match value.as_str() {
                    "human" => lint::Format::Human,
                    "json" => lint::Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--update-baseline" => options.update_baseline = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(options)
}

/// The workspace root (this crate lives at `<root>/crates/xtask`).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn default_options() {
        let o = parse_lint_options(&[]).unwrap();
        assert_eq!(o.format, lint::Format::Human);
        assert!(!o.update_baseline);
    }

    #[test]
    fn json_format_and_update() {
        let o = parse_lint_options(&s(&["--format", "json", "--update-baseline"])).unwrap();
        assert_eq!(o.format, lint::Format::Json);
        assert!(o.update_baseline);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_lint_options(&s(&["--format"])).is_err());
        assert!(parse_lint_options(&s(&["--format", "xml"])).is_err());
        assert!(parse_lint_options(&s(&["--fast"])).is_err());
    }
}
