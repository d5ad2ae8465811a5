//! A self-contained micro-benchmark runner replacing `criterion` (offline
//! builds cannot fetch it).
//!
//! Bench targets keep `harness = false` and drive [`Bench`] from `main`.
//! The runner warms up, then takes per-iteration wall-clock samples and
//! reports min/median/mean. Wall-clock use is confined to this module,
//! `suite.rs` and the `service_campaign` bin: `clippy.toml` bans the
//! `std::time` types everywhere else, where a clock read would corrupt a
//! deterministic artifact.
#![allow(
    clippy::disallowed_types,
    reason = "quarantined timing module: its readings land only in BENCH_runtime.json"
)]

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_physics::{Micros, PhysicsParams};

use crate::impl_to_json;

/// One benchmark group: a named collection of timed closures.
#[derive(Debug)]
pub struct Bench {
    group: String,
    samples: usize,
    min_iters: u64,
}

/// Statistics of one benchmark function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchStats {
    /// Fastest sample, seconds per iteration.
    pub min_s: f64,
    /// Median sample, seconds per iteration.
    pub median_s: f64,
    /// Mean over all samples, seconds per iteration.
    pub mean_s: f64,
}

impl Bench {
    /// Creates a benchmark group.
    #[must_use]
    pub fn new(group: &str) -> Self {
        Self {
            group: group.to_string(),
            samples: 20,
            min_iters: 1,
        }
    }

    /// Sets the number of timed samples (default 20).
    #[must_use]
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(3);
        self
    }

    /// Times `f`, with `setup` run outside the timed region before every
    /// iteration (the `iter_batched` pattern).
    pub fn bench_with_setup<S, R>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> BenchStats
    where
        S: Sized,
    {
        // Warm-up: one untimed run.
        let input = setup();
        let _ = f(input);

        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let mut elapsed = Duration::ZERO;
            let mut iters = 0u64;
            // Accumulate until the sample is long enough to time reliably.
            while iters < self.min_iters || elapsed < Duration::from_micros(200) {
                let input = setup();
                let t0 = Instant::now();
                let out = f(input);
                elapsed += t0.elapsed();
                std::hint::black_box(out);
                iters += 1;
            }
            per_iter.push(elapsed.as_secs_f64() / iters as f64);
        }
        per_iter.sort_by(f64::total_cmp);
        let stats = BenchStats {
            min_s: per_iter[0],
            median_s: per_iter[per_iter.len() / 2],
            mean_s: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        };
        // flashmark-lint: allow(print-discipline) -- live micro-benchmark progress meter; the harness binary owns this stdout
        println!(
            "{}/{:<32} min {:>12}  median {:>12}  mean {:>12}",
            self.group,
            name,
            fmt_time(stats.min_s),
            fmt_time(stats.median_s),
            fmt_time(stats.mean_s)
        );
        stats
    }

    /// Times `f` with no per-iteration setup.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> BenchStats {
        self.bench_with_setup(name, || (), |()| f())
    }
}

// ------------------------------------------------ runtime baseline -------

/// One named runtime measurement of the committed `BENCH_runtime.json`
/// baseline: a `kernel/*` micro-benchmark or an `experiment/*` wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeEntry {
    /// Entry name, e.g. `kernel/read_segment` or `experiment/fig09`.
    pub name: String,
    /// Wall-clock seconds for one run of the unit.
    pub wall_s: f64,
    /// True per-run work count: cell visits for kernel entries (from the
    /// obs `cells` counters installed around an untimed iteration), obs
    /// events otherwise; absent for entries that predate the
    /// instrumentation or are not instrumented.
    pub ops: Option<u64>,
    /// Nanoseconds per unit of `ops` (`wall_s / ops`), the
    /// machine-comparable per-cell cost; absent whenever `ops` is.
    pub ns_per_op: Option<f64>,
    /// Throughput: units (trials or kernel iterations) per second.
    pub trials_per_s: f64,
}

/// The `BENCH_runtime.json` artifact: wall time and throughput per kernel
/// and per experiment, written by `run_all` and compared by `perf_smoke`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeReport {
    /// All entries, in emission order.
    pub entries: Vec<RuntimeEntry>,
}

impl_to_json!(RuntimeEntry {
    name,
    wall_s,
    ops,
    ns_per_op,
    trials_per_s
});
impl_to_json!(RuntimeReport { entries });

impl RuntimeReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one entry; `units` is the trial/iteration count behind
    /// `wall_s` (throughput is derived from it).
    pub fn push(&mut self, name: &str, wall_s: f64, units: usize) {
        self.push_with_ops(name, wall_s, units, None);
    }

    /// Records one entry with its observed per-iteration work count
    /// (`ns_per_op` is derived from it).
    pub fn push_with_ops(&mut self, name: &str, wall_s: f64, units: usize, ops: Option<u64>) {
        self.entries.push(RuntimeEntry {
            name: name.to_string(),
            wall_s,
            ops,
            ns_per_op: ops.filter(|&o| o > 0).map(|o| wall_s * 1e9 / o as f64),
            trials_per_s: if wall_s > 0.0 {
                units as f64 / wall_s
            } else {
                f64::INFINITY
            },
        });
    }

    /// Looks an entry up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&RuntimeEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Serializes the report as pretty JSON.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use crate::json::ToJson as _;
        std::fs::write(path, self.to_json().pretty())
    }

    /// Parses a report previously written by [`RuntimeReport::write`]. The
    /// parser is line-oriented and only understands this module's own
    /// output shape, which is all the perf gate needs.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for a malformed file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut entries = Vec::new();
        let (mut name, mut wall_s): (Option<String>, Option<f64>) = (None, None);
        let mut ops: Option<u64> = None;
        let mut ns_per_op: Option<f64> = None;
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if let Some(v) = line.strip_prefix("\"name\": ") {
                name = Some(v.trim_matches('"').to_string());
            } else if let Some(v) = line.strip_prefix("\"wall_s\": ") {
                wall_s = Some(v.parse().map_err(|_| bad("bad wall_s"))?);
            } else if let Some(v) = line.strip_prefix("\"ops\": ") {
                // Optional: baselines written before the field existed (or
                // uninstrumented entries) have no/`null` ops.
                ops = match v {
                    "null" => None,
                    v => Some(v.parse().map_err(|_| bad("bad ops"))?),
                };
            } else if let Some(v) = line.strip_prefix("\"ns_per_op\": ") {
                ns_per_op = match v {
                    "null" => None,
                    v => Some(v.parse().map_err(|_| bad("bad ns_per_op"))?),
                };
            } else if let Some(v) = line.strip_prefix("\"trials_per_s\": ") {
                let trials_per_s = v.parse().map_err(|_| bad("bad trials_per_s"))?;
                entries.push(RuntimeEntry {
                    name: name.take().ok_or_else(|| bad("trials_per_s before name"))?,
                    wall_s: wall_s.take().ok_or_else(|| bad("missing wall_s"))?,
                    ops: ops.take(),
                    ns_per_op: ns_per_op.take(),
                    trials_per_s,
                });
            }
        }
        Ok(Self { entries })
    }

    /// Entries of `current` whose wall time regressed more than `factor`×
    /// against this baseline, restricted to names starting with `prefix`.
    /// Entries absent from the baseline are new, not regressions.
    ///
    /// Each line is rendered by
    /// [`compare_line_labeled`](crate::output::compare_line_labeled)
    /// (baseline vs current, µs, with the ratio) and carries the op counts
    /// from the obs collectors when both sides recorded them — a regressed
    /// kernel that also does more flash work is a behavior change, not
    /// just a slow machine.
    #[must_use]
    pub fn regressions(&self, current: &Self, factor: f64, prefix: &str) -> Vec<String> {
        let mut out = Vec::new();
        for cur in &current.entries {
            if !cur.name.starts_with(prefix) {
                continue;
            }
            if let Some(base) = self.get(&cur.name) {
                if base.wall_s > 0.0 && cur.wall_s > base.wall_s * factor {
                    let mut line = crate::output::compare_line_labeled(
                        &cur.name,
                        ("baseline", base.wall_s * 1e6),
                        ("current", cur.wall_s * 1e6),
                        "us",
                    );
                    let _ = write!(line, " > {factor}x budget");
                    if let (Some(b), Some(c)) = (base.ops, cur.ops) {
                        let _ = write!(line, "; obs ops baseline {b} current {c}");
                    }
                    out.push(line);
                }
            }
        }
        out
    }

    /// Names of this baseline's entries starting with `prefix` that are
    /// absent from `current`. A kernel that silently vanished from the
    /// current run is a gate failure, not a pass — otherwise deleting a
    /// benchmark "fixes" its regression.
    #[must_use]
    pub fn missing_from(&self, current: &Self, prefix: &str) -> Vec<String> {
        self.entries
            .iter()
            .filter(|base| base.name.starts_with(prefix) && current.get(&base.name).is_none())
            .map(|base| base.name.clone())
            .collect()
    }
}

/// Runs the segment-kernel micro-benchmarks and reports them as
/// `kernel/*` runtime entries — the perf-smoke half of
/// `BENCH_runtime.json`.
///
/// # Panics
///
/// Panics if the simulated controller rejects one of the kernel
/// operations — impossible for the fixed in-range geometry used here.
#[must_use]
#[allow(
    clippy::too_many_lines,
    reason = "one flat list of kernel rows, in report order"
)]
pub fn kernel_suite() -> RuntimeReport {
    const ENQUEUE_REQUESTS: u64 = 4096;
    const DRAIN_REQUESTS: u64 = 32;
    let bench = Bench::new("kernel").samples(10);
    let seg = SegmentAddr::new(0);
    let chip = || {
        FlashController::new(
            PhysicsParams::msp430_like(),
            FlashGeometry::single_bank(2),
            FlashTimings::msp430(),
            0xBE7C,
        )
    };
    let pattern: Vec<u16> = (0..256u32).map(|w| (w as u16).rotate_left(3)).collect();
    let mut report = RuntimeReport::new();
    let mut add = |name: &str, stats: BenchStats, ops: u64| {
        report.push_with_ops(&format!("kernel/{name}"), stats.median_s, 1, Some(ops));
    };
    // Setups pre-touch the segment: lazily materializing a segment's cell
    // arena is a one-time per-chip derivation, not part of the kernel under
    // test, so it runs in the untimed setup like the rest of the fixture.
    let touched = || {
        let mut c = chip();
        let _ = c.array_mut().segment(seg);
        c
    };
    let programmed = || {
        let mut c = touched();
        c.program_block(seg, &pattern).expect("program");
        c
    };

    let read = |mut c: FlashController| c.read_block(seg).expect("read");
    add(
        "read_segment",
        bench.bench_with_setup("read_segment", programmed, read),
        traced_ops(programmed, read),
    );
    let program = |mut c: FlashController| {
        c.program_block(seg, &pattern).expect("program");
    };
    add(
        "program_segment",
        bench.bench_with_setup("program_segment", touched, program),
        traced_ops(touched, program),
    );
    let partial = |mut c: FlashController| c.partial_erase(seg, Micros::new(30.0)).expect("erase");
    add(
        "partial_erase",
        bench.bench_with_setup("partial_erase", programmed, partial),
        traced_ops(programmed, partial),
    );
    let until_clean = |mut c: FlashController| c.erase_until_clean(seg).expect("erase");
    add(
        "erase_until_clean",
        bench.bench_with_setup("erase_until_clean", programmed, until_clean),
        traced_ops(programmed, until_clean),
    );
    let bulk = |mut c: FlashController| {
        c.bulk_imprint(seg, &pattern, 5_000, ImprintTiming::Accelerated)
            .expect("stress")
    };
    add(
        "bulk_stress_5k",
        bench.bench_with_setup("bulk_stress_5k", touched, bulk),
        traced_ops(touched, bulk),
    );

    // ReRAM kernels: the forming-pass imprint (the backend's decisive cost
    // advantage — one pass regardless of stress level) and the partial
    // reset the extraction ladder leans on.
    let reram = || {
        let mut c = flashmark_reram::ReramChip::new(FlashGeometry::single_bank(2), 0xBE7C);
        let _ = c.array_mut().segment(seg);
        c
    };
    let form = |mut c: flashmark_reram::ReramChip| {
        c.form_mark(seg, &pattern, 5_000).expect("form");
    };
    add(
        "reram_form_mark_5k",
        bench.bench_with_setup("reram_form_mark_5k", reram, form),
        traced_ops(reram, form),
    );
    let reram_set = || {
        let mut c = reram();
        c.set_block(seg, &pattern).expect("set");
        c
    };
    let reset = |mut c: flashmark_reram::ReramChip| {
        c.partial_reset(seg, Micros::new(30.0)).expect("reset");
    };
    add(
        "reram_partial_reset",
        bench.bench_with_setup("reram_partial_reset", reram_set, reset),
        traced_ops(reram_set, reset),
    );

    // Service-path kernels. Ops are passed explicitly instead of via
    // `traced_ops`: the service installs its own per-request collectors, so
    // an outer collector would see nothing.
    let service = || {
        let config = crate::service_campaign::campaign_config();
        let population = flashmark_serve::PopulationSpec::tiny(0xBE7C)
            .build(&config, crate::service_campaign::CAMPAIGN_MANUFACTURER)
            .expect("population");
        flashmark_serve::VerificationService::new(
            population,
            flashmark_serve::ServiceConfig::new(
                config,
                crate::service_campaign::CAMPAIGN_MANUFACTURER,
                0xBE7C,
            ),
        )
        .expect("service")
    };
    let enqueue = |mut svc: flashmark_serve::VerificationService| {
        let handle = svc.handle();
        let n = svc.population().len() as u64;
        for i in 0..ENQUEUE_REQUESTS {
            handle
                .submit(crate::service_campaign::campaign_request(0xBE7C, i, n))
                .expect("submit");
        }
        assert_eq!(svc.drain().len() as u64, ENQUEUE_REQUESTS);
    };
    add(
        "service_enqueue",
        bench.bench_with_setup("service_enqueue", service, enqueue),
        ENQUEUE_REQUESTS,
    );
    let drained = || {
        let svc = service();
        let handle = svc.handle();
        let n = svc.population().len() as u64;
        for i in 0..DRAIN_REQUESTS {
            handle
                .submit(crate::service_campaign::campaign_request(0xBE7C, i, n))
                .expect("submit");
        }
        svc
    };
    let drain = |mut svc: flashmark_serve::VerificationService| {
        let report = svc.serve_drained(1).expect("serve");
        assert_eq!(report.recorded, DRAIN_REQUESTS);
    };
    add(
        "service_shard_drain",
        bench.bench_with_setup("service_shard_drain", drained, drain),
        DRAIN_REQUESTS,
    );
    report
}

/// Runs one untimed iteration of a kernel under a metrics-only obs
/// collector (installed *after* setup, so setup traffic is excluded) and
/// returns the cell visits the iteration performed — the `cells` counter
/// group the batched kernels increment per chunk. Falls back to the raw
/// obs event count for operations that touch no cells.
fn traced_ops<S, R>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> R) -> u64 {
    use flashmark_obs::Collector;
    let input = setup();
    let prev = flashmark_obs::install(Collector::with_capacity(0, 0));
    std::hint::black_box(f(input));
    let collector = flashmark_obs::take().unwrap_or_else(|| Collector::with_capacity(0, 0));
    if let Some(p) = prev {
        flashmark_obs::install(p);
    }
    let cells = collector.metrics().group_total("cells");
    if cells > 0 {
        cells
    } else {
        collector.ops()
    }
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_positive() {
        let b = Bench::new("test").samples(5);
        let s = b.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert!(s.min_s > 0.0);
        assert!(s.min_s <= s.median_s);
        assert!(s.median_s <= s.mean_s * 3.0);
    }

    #[test]
    fn runtime_report_roundtrips_and_gates() {
        let mut base = RuntimeReport::new();
        base.push_with_ops("kernel/read_segment", 0.010, 1, Some(7));
        base.push("experiment/fig09", 2.0, 6);
        let dir = std::env::temp_dir().join("flashmark_runtime_report");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rt_{}.json", std::process::id()));
        base.write(&path).unwrap();
        let loaded = RuntimeReport::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(
            loaded
                .get("experiment/fig09")
                .unwrap()
                .trials_per_s
                .to_bits(),
            3.0_f64.to_bits()
        );
        // `ops` and the derived `ns_per_op` roundtrip, including absence.
        let kernel = loaded.get("kernel/read_segment").unwrap();
        assert_eq!(kernel.ops, Some(7));
        assert_eq!(kernel.ns_per_op, Some(0.010 * 1e9 / 7.0));
        assert_eq!(loaded.get("experiment/fig09").unwrap().ops, None);
        assert_eq!(loaded.get("experiment/fig09").unwrap().ns_per_op, None);

        let mut current = RuntimeReport::new();
        current.push_with_ops("kernel/read_segment", 0.030, 1, Some(9)); // 3x slower
        current.push("kernel/brand_new", 9.0, 1); // no baseline: not a regression
        current.push("experiment/fig09", 9.0, 6); // outside the kernel/ prefix
        let regs = loaded.regressions(&current, 2.0, "kernel/");
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("kernel/read_segment"));
        // The line is a labeled compare line with a ratio and both sides'
        // obs op counts, not a bare float dump.
        assert!(
            regs[0].contains("baseline") && regs[0].contains("current"),
            "{}",
            regs[0]
        );
        assert!(regs[0].contains("(x3.00)"), "{}", regs[0]);
        assert!(
            regs[0].contains("obs ops baseline 7 current 9"),
            "{}",
            regs[0]
        );
        assert!(loaded.regressions(&current, 4.0, "kernel/").is_empty());
    }

    #[test]
    fn missing_kernels_are_reported_not_ignored() {
        let mut base = RuntimeReport::new();
        base.push("kernel/read_segment", 0.010, 1);
        base.push("kernel/bulk_stress_5k", 0.020, 1);
        base.push("experiment/fig09", 2.0, 6);

        let mut current = RuntimeReport::new();
        current.push("kernel/read_segment", 0.010, 1);
        // bulk_stress_5k vanished; fig09 is outside the kernel/ prefix and
        // must not be flagged.
        let missing = base.missing_from(&current, "kernel/");
        assert_eq!(missing, vec!["kernel/bulk_stress_5k".to_string()]);
        assert!(base.missing_from(&base, "kernel/").is_empty());
    }

    #[test]
    fn time_formatting_picks_units() {
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(2e-3).ends_with(" ms"));
        assert!(fmt_time(2e-6).ends_with(" us"));
        assert!(fmt_time(2e-9).ends_with(" ns"));
    }
}
