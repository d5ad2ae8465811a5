//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! Currently one task: `lint`, the static analysis gate backed by
//! `crates/lint-engine`. Usage:
//!
//! ```text
//! cargo xtask lint                 # human diagnostics
//! cargo xtask lint --format json  # print the report JSON
//! ```
//!
//! Every run rewrites `results/lint_report.json` (byte-identical for
//! identical sources). Exit code 0 means no finding is left unsuppressed;
//! 1 means findings; 2 means usage or I/O error.

mod lint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--format human|json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_format(&args[1..]) {
            Ok(format) => match lint::run(&workspace_root(), format) {
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

/// Parses the flags after `lint` into the output format.
fn parse_lint_format(args: &[String]) -> Result<lint::Format, String> {
    let mut format = lint::Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it.next().ok_or("--format needs a value")?;
                format = match value.as_str() {
                    "human" => lint::Format::Human,
                    "json" => lint::Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(format)
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
        assert_eq!(parse_lint_format(&[]).unwrap(), lint::Format::Human);
    }

    #[test]
    fn json_format() {
        let format = parse_lint_format(&s(&["--format", "json"])).unwrap();
        assert_eq!(format, lint::Format::Json);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_lint_format(&s(&["--format"])).is_err());
        assert!(parse_lint_format(&s(&["--format", "xml"])).is_err());
        assert!(parse_lint_format(&s(&["--fast"])).is_err());
        assert!(parse_lint_format(&s(&["--update-baseline"])).is_err());
    }
}
