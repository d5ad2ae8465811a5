//! Service-telemetry registry: typed gauges, counters, and power-of-two
//! histograms whose snapshots merge commutatively.
//!
//! [`Snapshot`] is the service-layer sibling of [`Metrics`]: where
//! `Metrics` aggregates one trial's event stream, a `Snapshot` aggregates
//! *operational* telemetry — queue depths, batch occupancy, per-request
//! virtual latency — across shards.
//! Every series is keyed `(metric name, shard)` in a `BTreeMap`, and
//! [`Snapshot::merge`] is commutative and associative (maximum for gauges,
//! pointwise addition for counters and histograms), so a snapshot built
//! from shard snapshots is identical in any merge order and therefore at
//! any `--threads` count.
//!
//! Nothing here reads wall-clock time. Latency is *virtual*: a request's
//! cost in flash-op cost units, computed by [`virtual_latency_of`] as the
//! weighted sum of the flash-operation counters its collector folded — a
//! pure function of the work performed, byte-identical across machines and
//! schedules.
//!
//! [`Snapshot::expose`] renders the whole snapshot in a Prometheus-style
//! text exposition format (`# TYPE` headers, `name{shard="3"} value`
//! sample lines, cumulative `_bucket`/`_sum`/`_count` histogram series) so
//! external tooling — and the in-repo `obs_top` bin — can consume campaign
//! telemetry without bespoke parsers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::collector::Metrics;

/// Shard key for snapshot series that describe the whole service rather
/// than one shard. Rendered without a `shard` label by
/// [`Snapshot::expose`].
pub const GLOBAL: u64 = u64::MAX;

/// Virtual cost, in flash-op cost units, of each flash-operation counter
/// the collectors fold (see [`virtual_latency_of`]). Weights follow the
/// relative magnitudes of the simulated MSP430 timings — erases dominate,
/// block operations amortize, word operations are cheap — but the unit is
/// deliberately abstract: only ratios and determinism matter.
pub const FLASH_OP_COSTS: [(&str, u64); 10] = [
    ("bulk_imprint", 1_000),
    ("erase_segment", 400),
    ("erase_until_clean", 600),
    ("mass_erase", 800),
    ("partial_erase", 40),
    ("partial_program", 4),
    ("program_block", 32),
    ("program_word", 4),
    ("read_block", 8),
    ("read_word", 1),
];

/// Cost of one flash operation named `name` (1 for unknown names, so new
/// operation classes degrade to op counting instead of vanishing).
#[must_use]
pub fn flash_op_cost(name: &str) -> u64 {
    FLASH_OP_COSTS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(1, |&(_, c)| c)
}

/// A request's virtual latency: the weighted sum of the `flash` counter
/// group in `metrics`, in flash-op cost units. A pure function of the
/// flash work the request performed — no wall clock anywhere.
#[must_use]
pub fn virtual_latency_of(metrics: &Metrics) -> u64 {
    metrics
        .counters()
        .filter(|(group, _, _)| *group == "flash")
        .map(|(_, name, n)| n * flash_op_cost(name))
        .sum()
}

/// The histogram bucket (inclusive upper bound) an observation lands in:
/// the next power of two at or above the value, with 0 mapped into the
/// 1-bucket so every observation is counted.
#[must_use]
pub fn bucket_of(value: u64) -> u64 {
    value.max(1).next_power_of_two()
}

/// A merge-commutative telemetry snapshot.
///
/// Three series families, all keyed by `(metric name, shard)`:
///
/// * **gauges** — high-watermark levels (queue depth, batch occupancy);
///   merged with `max`, which is commutative, associative, and idempotent;
/// * **counters** — monotone totals (requests, probes); merged by addition;
/// * **histograms** — power-of-two-bucketed distributions (virtual
///   latency, ladder depth) carrying per-series observation counts and
///   sums; merged by pointwise addition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    gauges: BTreeMap<(&'static str, u64), u64>,
    counters: BTreeMap<(&'static str, u64), u64>,
    hist_buckets: BTreeMap<(&'static str, u64, u64), u64>,
    hist_counts: BTreeMap<(&'static str, u64), u64>,
    hist_sums: BTreeMap<(&'static str, u64), u64>,
}

impl Snapshot {
    /// An empty snapshot (the merge identity).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the `(name, shard)` gauge to at least `value` (gauges are
    /// high watermarks; set-to-max keeps the merge idempotent).
    pub fn gauge_max(&mut self, name: &'static str, shard: u64, value: u64) {
        let slot = self.gauges.entry((name, shard)).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Adds `n` to the `(name, shard)` counter.
    pub fn add(&mut self, name: &'static str, shard: u64, n: u64) {
        *self.counters.entry((name, shard)).or_insert(0) += n;
    }

    /// Records one observation into the `(name, shard)` histogram.
    pub fn observe(&mut self, name: &'static str, shard: u64, value: u64) {
        *self
            .hist_buckets
            .entry((name, shard, bucket_of(value)))
            .or_insert(0) += 1;
        *self.hist_counts.entry((name, shard)).or_insert(0) += 1;
        *self.hist_sums.entry((name, shard)).or_insert(0) += value;
    }

    /// The current value of a gauge (0 if never set).
    #[must_use]
    pub fn gauge(&self, name: &str, shard: u64) -> u64 {
        self.gauges.get(&(name, shard)).copied().unwrap_or(0)
    }

    /// The current value of a counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str, shard: u64) -> u64 {
        self.counters.get(&(name, shard)).copied().unwrap_or(0)
    }

    /// Observations recorded into a histogram (0 if never touched).
    #[must_use]
    pub fn histogram_count(&self, name: &str, shard: u64) -> u64 {
        self.hist_counts.get(&(name, shard)).copied().unwrap_or(0)
    }

    /// Sum of all values observed into a histogram (0 if never touched).
    #[must_use]
    pub fn histogram_sum(&self, name: &str, shard: u64) -> u64 {
        self.hist_sums.get(&(name, shard)).copied().unwrap_or(0)
    }

    /// All gauges as `(name, shard, value)` in sorted order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.gauges.iter().map(|(&(n, s), &v)| (n, s, v))
    }

    /// All counters as `(name, shard, value)` in sorted order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.counters.iter().map(|(&(n, s), &v)| (n, s, v))
    }

    /// All histogram buckets as `(name, shard, bucket_upper, count)` in
    /// sorted order.
    pub fn histogram_buckets(&self) -> impl Iterator<Item = (&'static str, u64, u64, u64)> + '_ {
        self.hist_buckets
            .iter()
            .map(|(&(n, s, b), &v)| (n, s, b, v))
    }

    /// Pointwise-merges `other` into `self`: `max` for gauges, addition
    /// everywhere else. Commutative and associative — shard snapshots
    /// merge to the same aggregate in any order, which is what makes the
    /// exposed telemetry independent of `--threads`.
    pub fn merge(&mut self, other: &Self) {
        for (&key, &v) in &other.gauges {
            let slot = self.gauges.entry(key).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (&key, &v) in &other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
        for (&key, &v) in &other.hist_buckets {
            *self.hist_buckets.entry(key).or_insert(0) += v;
        }
        for (&key, &v) in &other.hist_counts {
            *self.hist_counts.entry(key).or_insert(0) += v;
        }
        for (&key, &v) in &other.hist_sums {
            *self.hist_sums.entry(key).or_insert(0) += v;
        }
    }

    /// True when no series has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gauges.is_empty() && self.counters.is_empty() && self.hist_counts.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `# TYPE` header per metric name, `name{shard="3"} value`
    /// sample lines ([`GLOBAL`] series carry no label), histograms as
    /// cumulative `_bucket` series with a closing `le="+Inf"` bucket plus
    /// `_sum` and `_count`. Iteration order is `BTreeMap` order, so the
    /// output is byte-identical for equal snapshots.
    #[must_use]
    pub fn expose(&self) -> String {
        let mut out = String::new();
        render_family(&mut out, "gauge", &self.gauges);
        render_family(&mut out, "counter", &self.counters);
        let mut last_name = "";
        for (&(name, shard), &count) in &self.hist_counts {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_name = name;
            }
            let mut cumulative = 0u64;
            for (&(bname, bshard, bucket), &n) in &self.hist_buckets {
                if bname != name || bshard != shard {
                    continue;
                }
                cumulative += n;
                let _ = match shard {
                    GLOBAL => writeln!(out, "{name}_bucket{{le=\"{bucket}\"}} {cumulative}"),
                    _ => writeln!(
                        out,
                        "{name}_bucket{{shard=\"{shard}\",le=\"{bucket}\"}} {cumulative}"
                    ),
                };
            }
            let sum = self.histogram_sum(name, shard);
            let _ = match shard {
                GLOBAL => writeln!(
                    out,
                    "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}"
                ),
                _ => writeln!(
                    out,
                    "{name}_bucket{{shard=\"{shard}\",le=\"+Inf\"}} {count}\n\
                     {name}_sum{{shard=\"{shard}\"}} {sum}\n\
                     {name}_count{{shard=\"{shard}\"}} {count}"
                ),
            };
        }
        out
    }
}

/// Renders one flat (gauge or counter) series family.
fn render_family(out: &mut String, kind: &str, series: &BTreeMap<(&'static str, u64), u64>) {
    let mut last_name = "";
    for (&(name, shard), &value) in series {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = name;
        }
        let _ = match shard {
            GLOBAL => writeln!(out, "{name} {value}"),
            _ => writeln!(out, "{name}{{shard=\"{shard}\"}} {value}"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.gauge_max("service_queue_depth", 0, 3);
        s.gauge_max("service_queue_depth", 1, 7);
        s.gauge_max("service_batch_occupancy", GLOBAL, 16);
        s.add("service_requests_total", 0, 9);
        s.observe("service_virtual_latency_ops", 0, 130);
        s.observe("service_virtual_latency_ops", 0, 130);
        s.observe("service_virtual_latency_ops", 0, 3);
        s
    }

    #[test]
    fn buckets_are_powers_of_two_and_zero_counts() {
        assert_eq!(bucket_of(0), 1);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 4);
        assert_eq!(bucket_of(130), 256);
        assert_eq!(bucket_of(1 << 40), 1 << 40);
    }

    #[test]
    fn gauges_are_high_watermarks() {
        let mut s = Snapshot::new();
        s.gauge_max("q", 0, 5);
        s.gauge_max("q", 0, 3);
        assert_eq!(s.gauge("q", 0), 5);
        s.gauge_max("q", 0, 9);
        assert_eq!(s.gauge("q", 0), 9);
    }

    #[test]
    fn histogram_tracks_count_sum_and_buckets() {
        let s = sample();
        assert_eq!(s.histogram_count("service_virtual_latency_ops", 0), 3);
        assert_eq!(s.histogram_sum("service_virtual_latency_ops", 0), 263);
        let buckets: Vec<_> = s.histogram_buckets().collect();
        assert_eq!(
            buckets,
            vec![
                ("service_virtual_latency_ops", 0, 4, 1),
                ("service_virtual_latency_ops", 0, 256, 2),
            ]
        );
    }

    #[test]
    fn merge_is_commutative_and_max_for_gauges() {
        let mut a = Snapshot::new();
        a.gauge_max("q", 0, 5);
        a.add("n", 0, 2);
        a.observe("h", 0, 10);
        let mut b = Snapshot::new();
        b.gauge_max("q", 0, 3);
        b.add("n", 0, 1);
        b.observe("h", 0, 100);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.gauge("q", 0), 5);
        assert_eq!(ab.counter("n", 0), 3);
        assert_eq!(ab.histogram_count("h", 0), 2);
        assert_eq!(ab.histogram_sum("h", 0), 110);
    }

    #[test]
    fn empty_is_the_merge_identity() {
        let s = sample();
        let mut merged = s.clone();
        merged.merge(&Snapshot::new());
        assert_eq!(merged, s);
        assert!(Snapshot::new().is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn exposition_renders_types_labels_and_cumulative_buckets() {
        let text = sample().expose();
        // Gauges first, GLOBAL series unlabeled, shards labeled.
        assert!(text.contains("# TYPE service_batch_occupancy gauge\n"));
        assert!(text.contains("service_batch_occupancy 16\n"));
        assert!(text.contains("service_queue_depth{shard=\"0\"} 3\n"));
        assert!(text.contains("service_queue_depth{shard=\"1\"} 7\n"));
        // One TYPE header per metric name, not per series.
        assert_eq!(text.matches("# TYPE service_queue_depth gauge").count(), 1);
        assert!(text.contains("# TYPE service_requests_total counter\n"));
        // Histogram: cumulative buckets, +Inf closes at the count.
        assert!(text.contains("service_virtual_latency_ops_bucket{shard=\"0\",le=\"4\"} 1\n"));
        assert!(text.contains("service_virtual_latency_ops_bucket{shard=\"0\",le=\"256\"} 3\n"));
        assert!(text.contains("service_virtual_latency_ops_bucket{shard=\"0\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("service_virtual_latency_ops_sum{shard=\"0\"} 263\n"));
        assert!(text.contains("service_virtual_latency_ops_count{shard=\"0\"} 3\n"));
    }

    #[test]
    fn exposition_is_deterministic_for_equal_snapshots() {
        assert_eq!(sample().expose(), sample().expose());
    }

    #[test]
    fn virtual_latency_weights_flash_ops_only() {
        let mut m = Metrics::new();
        m.add("flash", "read_word", 3);
        m.add("flash", "erase_segment", 2);
        m.add("flash", "some_future_op", 5);
        m.add("wear", "bulk_cycles", 1_000_000); // not a flash op: ignored
        assert_eq!(virtual_latency_of(&m), 3 + 2 * 400 + 5);
        assert_eq!(virtual_latency_of(&Metrics::new()), 0);
    }

    #[test]
    fn flash_op_cost_table_is_sorted_and_total() {
        let names: Vec<&str> = FLASH_OP_COSTS.iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "cost table must stay sorted by name");
        assert_eq!(flash_op_cost("read_word"), 1);
        assert_eq!(flash_op_cost("never_heard_of_it"), 1);
    }
}
