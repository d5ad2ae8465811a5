//! Result rendering: aligned console tables and JSON artifacts.

use std::fs;
use std::path::{Path, PathBuf};

use crate::json::ToJson;

/// Directory experiment artifacts are written into.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("FLASHMARK_RESULTS")
        .map_or_else(|| PathBuf::from("results"), PathBuf::from);
    let _ = fs::create_dir_all(&dir);
    dir
}

/// A simple fixed-width console table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders an aligned console table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Serializes an experiment result as pretty JSON into the results dir.
///
/// # Errors
///
/// I/O or serialization errors.
pub fn write_json<T: ToJson>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    write_json_in(&results_dir(), name, value)
}

/// Serializes an experiment result as pretty JSON into an explicit
/// directory (created if missing) — the suite runner uses this to point
/// different runs at different artifact directories.
///
/// # Errors
///
/// I/O or serialization errors.
pub fn write_json_in<T: ToJson>(dir: &Path, name: &str, value: &T) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, value.to_json().pretty())?;
    Ok(path)
}

/// Formats a comparison line with caller-chosen labels (e.g.
/// `baseline` vs `current` for the perf gate).
#[must_use]
pub fn compare_line_labeled(
    metric: &str,
    (ref_label, reference): (&str, f64),
    (cur_label, current): (&str, f64),
    unit: &str,
) -> String {
    let ratio = if reference.abs() > 1e-12 {
        current / reference
    } else {
        f64::NAN
    };
    format!(
        "{metric:<42} {ref_label} {reference:>9.2} {unit:<4} {cur_label} {current:>9.2} {unit:<4} (x{ratio:.2})"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["tPE (us)", "cells_0"]);
        t.row(["0", "4096"]);
        t.row(["35", "0"]);
        let s = t.render();
        assert!(s.contains("tPE (us)"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn labeled_compare_line_uses_the_labels() {
        let line = compare_line_labeled(
            "kernel/read_segment",
            ("baseline", 10.0),
            ("current", 30.0),
            "us",
        );
        assert!(line.contains("baseline"));
        assert!(line.contains("current"));
        assert!(line.contains("x3.00"));
    }
}
