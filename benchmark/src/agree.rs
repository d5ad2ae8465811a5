//! `flashbench agree`: do two result sets of the same commit agree?
//!
//! A result set is a JSON-lines file of run results (what `flashbench run`
//! appends to `<out>/results.jsonl`). Two sets agree when
//!
//! * every run in both is correct and failed nothing;
//! * for each workload, each end-to-end metric's median in the second set
//!   is no worse than in the first by more than the metric's bound in
//!   `BENCHMARK.json` (untraced runs of equal `--quick` setting);
//! * every deterministic value (`exact`: checkpoint root, virtual latency,
//!   simulated imprint time, error rate) is identical across all runs of
//!   one workload and seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{flag, get, num, parse, Value};
use crate::metrics::{Better, MetricDef};
use crate::stats;

/// One run result, as read back from a set.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed, as written.
    pub seed: String,
    /// Traced run.
    pub trace: bool,
    /// `--quick` run.
    pub quick: bool,
    /// Run verdict.
    pub correct: bool,
    /// Failed operations.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic values by name.
    pub exact: BTreeMap<String, Value>,
}

impl RunRecord {
    /// Reads a record from one result line.
    ///
    /// # Errors
    ///
    /// A missing or mistyped field.
    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let field = |k: &str| get(doc, k).ok_or(format!("result line without \"{k}\""));
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("\"{k}\" is not a string"))
        };
        let boolean = |k: &str| flag(field(k)?).ok_or(format!("\"{k}\" is not a boolean"));
        let members = |k: &str| {
            field(k)?
                .as_object()
                .map(<[_]>::to_vec)
                .ok_or(format!("\"{k}\" is not an object"))
        };
        Ok(Self {
            workload: text("workload")?,
            seed: text("seed")?,
            trace: boolean("trace")?,
            quick: boolean("quick")?,
            correct: boolean("correct")?,
            failed: num(field("failed")?).ok_or("\"failed\" is not a number")?,
            metrics: members("metrics")?
                .into_iter()
                .map(|(name, m)| {
                    get(&m, "value")
                        .and_then(num)
                        .map(|v| (name.clone(), v))
                        .ok_or(format!("metric {name} has no value"))
                })
                .collect::<Result<_, _>>()?,
            exact: members("exact")?.into_iter().collect(),
        })
    }
}

/// Reads a JSON-lines result set.
///
/// # Errors
///
/// Unreadable file or malformed line.
pub fn load_set(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            parse(line)
                .and_then(|doc| RunRecord::from_json(&doc))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// `median [q1, q3] spread n`, the spread being IQR over median.
fn summary(values: &[f64]) -> String {
    let median = stats::median(values).unwrap_or(f64::NAN);
    match (stats::quartiles(values), stats::relative_spread(values)) {
        (Some((q1, q3)), Some(spread)) => format!(
            "{median:.6} [{q1:.6}, {q3:.6}] spread {:.1}% n={}",
            spread * 100.0,
            values.len()
        ),
        _ => format!("{median:.6} n={}", values.len()),
    }
}

/// `(workload, seed, quick)`: runs with one key must repeat their exact
/// values.
type RunKey = (String, String, bool);

/// Compares set `b` against set `a`. Returns whether they agree and a
/// report with one line per check.
#[must_use]
pub fn agree(a: &[RunRecord], b: &[RunRecord], bounds: &[MetricDef]) -> (bool, String) {
    let mut ok = true;
    let mut report = String::new();
    let mut line = |pass: bool, text: String| {
        ok &= pass;
        let _ = writeln!(report, "{} {text}", if pass { "ok  " } else { "FAIL" });
    };

    for (set, runs) in [("A", a), ("B", b)] {
        for r in runs.iter().filter(|r| !r.correct || r.failed != 0.0) {
            line(
                false,
                format!(
                    "set {set}: {} seed {} is not correct (failed {})",
                    r.workload, r.seed, r.failed
                ),
            );
        }
    }

    let keys: std::collections::BTreeSet<(String, bool)> = a
        .iter()
        .chain(b)
        .filter(|r| !r.trace)
        .map(|r| (r.workload.clone(), r.quick))
        .collect();
    for (workload, quick) in keys {
        let values = |runs: &[RunRecord], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| !r.trace && r.quick == quick && r.workload == workload)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for MetricDef {
            name: metric,
            better,
            bound,
            ..
        } in bounds
        {
            let bound = bound.unwrap_or(0.0);
            let (va, vb) = (values(a, metric), values(b, metric));
            let label = format!("{workload}{} {metric}", if quick { " (quick)" } else { "" });
            let (Some(ma), Some(mb)) = (stats::median(&va), stats::median(&vb)) else {
                line(false, format!("{label}: missing in one set"));
                continue;
            };
            let worse = match better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            line(
                worse <= bound,
                format!(
                    "{label}: A {} | B {} | worse by {:+.2}% (bound {:.0}%)",
                    summary(&va),
                    summary(&vb),
                    worse * 100.0,
                    bound * 100.0
                ),
            );
        }
    }

    let mut exact: BTreeMap<RunKey, Vec<&BTreeMap<String, Value>>> = BTreeMap::new();
    for r in a.iter().chain(b) {
        exact
            .entry((r.workload.clone(), r.seed.clone(), r.quick))
            .or_default()
            .push(&r.exact);
    }
    for ((workload, seed, quick), runs) in exact {
        let same = runs.windows(2).all(|w| w[0] == w[1]);
        let shown: Vec<String> = runs[0].iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        line(
            same,
            format!(
                "{workload}{} seed {seed}: exact values {} across {} runs ({})",
                if quick { " (quick)" } else { "" },
                if same { "identical" } else { "DIFFER" },
                runs.len(),
                shown.join(", ")
            ),
        );
    }
    (ok, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rate: f64, root: &str) -> RunRecord {
        RunRecord {
            workload: "enroll_lot".into(),
            seed: "24135".into(),
            trace: false,
            quick: false,
            correct: true,
            failed: 0.0,
            metrics: [("chips_per_s".to_string(), rate)].into_iter().collect(),
            exact: [("root".to_string(), Value::Str(root.to_string()))]
                .into_iter()
                .collect(),
        }
    }

    fn bounds() -> Vec<MetricDef> {
        vec![MetricDef {
            name: "chips_per_s".into(),
            unit: "1/s".into(),
            better: Better::Higher,
            bound: Some(0.10),
        }]
    }

    #[test]
    fn sets_within_bounds_agree() {
        let a = [record(100.0, "ab"), record(102.0, "ab"), record(98.0, "ab")];
        let b = [record(95.0, "ab"), record(93.0, "ab"), record(97.0, "ab")];
        let (ok, report) = agree(&a, &b, &bounds());
        assert!(ok, "{report}");
        assert!(report.contains("worse by +5.00%"), "{report}");
    }

    #[test]
    fn a_regression_beyond_the_bound_disagrees() {
        let a = [record(100.0, "ab")];
        let b = [record(85.0, "ab")];
        let (ok, report) = agree(&a, &b, &bounds());
        assert!(!ok);
        assert!(report.contains("FAIL enroll_lot chips_per_s"), "{report}");
    }

    #[test]
    fn differing_exact_values_or_failures_disagree() {
        let (ok, report) = agree(&[record(100.0, "ab")], &[record(100.0, "cd")], &bounds());
        assert!(!ok);
        assert!(report.contains("DIFFER"), "{report}");

        let mut failed = record(100.0, "ab");
        failed.failed = 1.0;
        let (ok, _) = agree(&[record(100.0, "ab")], &[failed], &bounds());
        assert!(!ok);
    }

    #[test]
    fn result_lines_roundtrip() {
        let line = r#"{"workload": "inspect_tray", "seed": "7", "trace": false, "quick": true, "correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s", "samples": 1}}, "exact": {"root": "00ff"}, "gates": []}"#;
        let r = RunRecord::from_json(&parse(line).unwrap()).unwrap();
        assert_eq!(r.metrics.get("setup_s"), Some(&0.5));
        assert_eq!(r.exact.get("root"), Some(&Value::Str("00ff".into())));
        assert!(r.quick && !r.trace);
    }
}
