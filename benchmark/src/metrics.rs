//! The metric catalogue. Names, units, directions and bounds live in
//! `BENCHMARK.json` only; the runs compute values by name and this module
//! puts them in the catalogue's order with its units.

use std::collections::BTreeMap;

use crate::json::{get, num, parse, Value};

/// `BENCHMARK.json` at the repository root, next to this package.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// Values a run computed: `name -> (value, samples behind it)`.
pub type Measured = BTreeMap<&'static str, (f64, usize)>;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Catalogue unit.
    pub unit: String,
    /// The value, with every digit measured.
    pub value: f64,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
}

/// What `BENCHMARK.json` fixes.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricDef>,
}

impl Catalogue {
    /// The checked-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A malformed file.
    pub fn load() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }

    /// Reads a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Invalid JSON, or a missing or mistyped field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            get(&doc, key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|m| metric_def(m, key == "end_to_end"))
                .collect()
        };
        Ok(Self {
            run_seconds: get(&doc, "run_seconds")
                .and_then(num)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

fn metric_def(m: &Value, bounded: bool) -> Result<MetricDef, String> {
    let text = |k: &str| get(m, k).and_then(Value::as_str).map(str::to_string);
    let better = match get(m, "better").and_then(Value::as_str) {
        Some("lower") => Some(Better::Lower),
        Some("higher") => Some(Better::Higher),
        _ => None,
    };
    let bound = get(m, "bound").and_then(num);
    match (text("name"), text("unit"), better) {
        (Some(name), Some(unit), Some(better)) if bound.is_some() == bounded => Ok(MetricDef {
            name,
            unit,
            better,
            bound,
        }),
        _ => Err(format!(
            "BENCHMARK.json: malformed metric entry {:?}",
            text("name")
        )),
    }
}

/// `measured` in the order `defs` lists, with the catalogue's units.
///
/// # Errors
///
/// A listed metric that was not computed, or a computed one not listed.
pub fn report(defs: &[MetricDef], measured: &Measured) -> Result<Vec<Metric>, String> {
    if let Some(extra) = measured
        .keys()
        .find(|name| !defs.iter().any(|d| d.name == **name))
    {
        return Err(format!("metric {extra} is not listed in BENCHMARK.json"));
    }
    defs.iter()
        .map(|d| {
            let &(value, samples) = measured
                .get(d.name.as_str())
                .ok_or(format!("metric {} is listed but not computed", d.name))?;
            Ok(Metric {
                name: d.name.clone(),
                unit: d.unit.clone(),
                value,
                samples,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Catalogue {
        Catalogue::parse(
            r#"{"run_seconds": 5,
                "end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "b", "unit": "count", "better": "higher"},
                              {"name": "c", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn parses_the_catalogue() {
        let c = catalogue();
        assert_eq!(c.run_seconds, 5.0);
        assert_eq!(c.end_to_end[0].bound, Some(0.1));
        assert_eq!(c.per_layer[0].better, Better::Higher);
        assert_eq!(c.per_layer[1].unit, "us");
        assert!(Catalogue::load().is_ok());
    }

    #[test]
    fn malformed_entries_are_refused() {
        for bad in [
            r#"{"run_seconds": 1, "end_to_end": [{"name": "a", "unit": "s", "better": "lower"}], "per_layer": []}"#,
            r#"{"run_seconds": 1, "end_to_end": [], "per_layer": [{"name": "b", "unit": "s", "better": "up"}]}"#,
            r#"{"end_to_end": [], "per_layer": []}"#,
        ] {
            assert!(Catalogue::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn report_follows_the_catalogue_and_checks_coverage() {
        let c = catalogue();
        let measured: Measured = [("c", (2.5, 4)), ("b", (1.0, 1))].into_iter().collect();
        let rows = report(&c.per_layer, &measured).unwrap();
        let names: Vec<&str> = rows.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!((rows[1].unit.as_str(), rows[1].value), ("us", 2.5));

        let missing: Measured = [("b", (1.0, 1))].into_iter().collect();
        assert!(report(&c.per_layer, &missing).is_err());
        let extra: Measured = [("b", (1.0, 1)), ("c", (1.0, 1)), ("d", (0.0, 1))]
            .into_iter()
            .collect();
        assert!(report(&c.per_layer, &extra).is_err());
    }
}
