//! A self-contained micro-benchmark runner replacing `criterion` (offline
//! builds cannot fetch it).
//!
//! [`kernel_suite`], which `perf_smoke` runs, drives [`Bench::round_robin`]:
//! each case warms up, then the runner takes per-iteration wall-clock
//! samples of every case in turn and reports min/median/mean. Wall-clock
//! use is confined to this module, `suite.rs` and the `service_campaign`
//! bin: `clippy.toml` bans the `std::time` types everywhere else, where a
//! clock read would corrupt a deterministic artifact.
#![allow(
    clippy::disallowed_types,
    reason = "quarantined timing module: its readings land only in BENCH_runtime.json"
)]

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use flashmark_nor::interface::{BulkStress, FlashInterface, ImprintTiming};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_obs::{collect, Collector};
use flashmark_physics::{Micros, PhysicsParams};

use crate::impl_to_json;

/// One benchmark group: a named collection of timed closures.
#[derive(Debug)]
pub struct Bench {
    group: String,
    samples: usize,
    min_iters: u64,
}

/// The shortest sample of [`Bench::round_robin`]: long enough that a
/// burst of host load spreads over several benchmarks' samples instead of
/// filling one benchmark's median.
const ROUND_ROBIN_SAMPLE: Duration = Duration::from_millis(2);

/// One benchmark of a [`Bench::round_robin`] run, made by [`Bench::case`].
pub struct Case<'a> {
    name: String,
    sample: Box<dyn FnMut(u64, Duration) -> f64 + 'a>,
}

/// Times iterations of `f`, each after an untimed `setup`, until there are
/// at least `min_iters` of them and `min_time` has passed; returns seconds
/// per iteration.
fn sample<S, R>(
    setup: &mut impl FnMut() -> S,
    f: &mut impl FnMut(S) -> R,
    min_iters: u64,
    min_time: Duration,
) -> f64 {
    let mut elapsed = Duration::ZERO;
    let mut iters = 0u64;
    while iters < min_iters || elapsed < min_time {
        let input = setup();
        let t0 = Instant::now();
        let out = f(input);
        elapsed += t0.elapsed();
        std::hint::black_box(out);
        iters += 1;
    }
    elapsed.as_secs_f64() / iters as f64
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

    /// A benchmark for [`Self::round_robin`]: `f`, timed with `setup` run
    /// outside the timed region before every iteration.
    pub fn case<'a, S, R>(
        name: &str,
        mut setup: impl FnMut() -> S + 'a,
        mut f: impl FnMut(S) -> R + 'a,
    ) -> Case<'a> {
        Case {
            name: name.to_string(),
            sample: Box::new(move |min_iters, min_time| {
                sample(&mut setup, &mut f, min_iters, min_time)
            }),
        }
    }

    /// Times every case, taking the samples round-robin: one sample of
    /// each case in turn, then the next round. A burst of host load then
    /// lands on one sample of several cases, not on every sample of one,
    /// and each case's median stays put. Each case warms up with one
    /// untimed iteration first. Returns the statistics in case order.
    pub fn round_robin(&self, cases: &mut [Case<'_>]) -> Vec<BenchStats> {
        for case in cases.iter_mut() {
            (case.sample)(1, Duration::ZERO);
        }
        let mut per_iter = vec![Vec::with_capacity(self.samples); cases.len()];
        for _ in 0..self.samples {
            for (case, samples) in cases.iter_mut().zip(&mut per_iter) {
                samples.push((case.sample)(self.min_iters, ROUND_ROBIN_SAMPLE));
            }
        }
        cases
            .iter()
            .zip(per_iter)
            .map(|(case, samples)| self.report(&case.name, samples))
            .collect()
    }

    /// The statistics of one benchmark's samples (seconds per iteration),
    /// printed as one line.
    fn report(&self, name: &str, mut per_iter: Vec<f64>) -> BenchStats {
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
/// and per experiment. `perf_smoke` writes the kernel rows and gates on
/// them; a Full `run_all` writes the experiment rows.
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
    /// I/O errors, or `InvalidData` for a malformed file or one with no
    /// entries (an empty baseline would gate nothing).
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
        if entries.is_empty() {
            return Err(bad("no entries"));
        }
        Ok(Self { entries })
    }

    /// The `kernel/*` rows of the report at `path`, or none when there is
    /// no file there: what a Full suite run keeps of the baseline whose
    /// experiment rows it rewrites.
    ///
    /// # Errors
    ///
    /// I/O errors other than a missing file, and a malformed report.
    pub fn load_kernel_rows(path: &Path) -> std::io::Result<Self> {
        match Self::load(path) {
            Ok(report) => Ok(Self {
                entries: report
                    .entries
                    .into_iter()
                    .filter(|e| e.name.starts_with("kernel/"))
                    .collect(),
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(e),
        }
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
/// `kernel/*` runtime entries — the half of `BENCH_runtime.json` that
/// `perf_smoke` writes. The kernels are sampled round-robin
/// ([`Bench::round_robin`]), ten samples of at least 2 ms each.
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
    // Each row: its case and its per-iteration cell visits.
    let mut rows: Vec<(Case<'_>, u64)> = Vec::new();
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
    let cells_per_segment = FlashGeometry::single_bank(2).cells_per_segment() as u64;

    // The materialization those setups exclude, timed on its own: a fresh
    // chip's first touch of a segment fills its statics lanes, as every
    // probe's throwaway clone does for a segment the enrolled chip never
    // wrote. It emits no `cells` counter, so its cell visits are passed
    // explicitly.
    let materialize = |mut c: FlashController| c.array_mut().segment(seg).len();
    rows.push((
        Bench::case("materialize_segment", chip, materialize),
        cells_per_segment,
    ));
    let read = |mut c: FlashController| c.read_block(seg).expect("read");
    rows.push((
        Bench::case("read_segment", programmed, read),
        traced_ops(programmed, read),
    ));
    // A read of a segment caught mid-erase, as every extraction rung and
    // wear probe reads it: after a 20.5 µs partial erase about half the
    // cells sit within the read noise of `vref` and take a noise draw,
    // where a programmed segment's cells take none.
    let part_erased = || {
        let mut c = programmed();
        c.partial_erase(seg, Micros::new(20.5)).expect("erase");
        c
    };
    rows.push((
        Bench::case("read_partial", part_erased, read),
        traced_ops(part_erased, read),
    ));
    let program = |mut c: FlashController| {
        c.program_block(seg, &pattern).expect("program");
    };
    rows.push((
        Bench::case("program_segment", touched, program),
        traced_ops(touched, program),
    ));
    // `erase_segment` emits no `cells` counter (one would change the obs
    // artifacts), so its cell visits are passed explicitly: one segment.
    let erase = |mut c: FlashController| c.erase_segment(seg).expect("erase");
    rows.push((
        Bench::case("erase_segment", programmed, erase),
        cells_per_segment,
    ));
    let partial = |mut c: FlashController| c.partial_erase(seg, Micros::new(30.0)).expect("erase");
    rows.push((
        Bench::case("partial_erase", programmed, partial),
        traced_ops(programmed, partial),
    ));
    let until_clean = |mut c: FlashController| c.erase_until_clean(seg).expect("erase");
    rows.push((
        Bench::case("erase_until_clean", programmed, until_clean),
        traced_ops(programmed, until_clean),
    ));
    let bulk = |mut c: FlashController| {
        c.bulk_imprint(seg, &pattern, 5_000, ImprintTiming::Accelerated)
            .expect("stress")
    };
    rows.push((
        Bench::case("bulk_stress_5k", touched, bulk),
        traced_ops(touched, bulk),
    ));

    // ReRAM kernels: the forming-pass imprint (the backend's decisive cost
    // advantage — one pass regardless of stress level) and the partial
    // reset the extraction ladder leans on.
    let reram = || {
        let mut c = FlashController::new(
            flashmark_reram::reram_like(),
            FlashGeometry::single_bank(2),
            flashmark_reram::reram_timings(),
            0xBE7C,
        );
        let _ = c.array_mut().segment(seg);
        c
    };
    let form = |mut c: FlashController| {
        c.bulk_imprint(seg, &pattern, 5_000, ImprintTiming::Accelerated)
            .expect("form");
    };
    rows.push((
        Bench::case("reram_form_mark_5k", reram, form),
        traced_ops(reram, form),
    ));
    let reram_set = || {
        let mut c = reram();
        c.program_block(seg, &pattern).expect("set");
        c
    };
    let reset = |mut c: FlashController| {
        c.partial_erase(seg, Micros::new(30.0)).expect("reset");
    };
    rows.push((
        Bench::case("reram_partial_reset", reram_set, reset),
        traced_ops(reram_set, reset),
    ));

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
    // The enqueue alone: one service, built before the clock starts and
    // dropped after the last sample, takes 4 096 submits and one drain per
    // iteration.
    let mut svc = service();
    let enqueue = move |()| {
        let handle = svc.handle();
        let n = svc.population().len() as u64;
        for i in 0..ENQUEUE_REQUESTS {
            handle
                .submit(crate::service_campaign::campaign_request(0xBE7C, i, n))
                .expect("submit");
        }
        assert_eq!(svc.drain().len() as u64, ENQUEUE_REQUESTS);
    };
    rows.push((
        Bench::case("service_enqueue", || (), enqueue),
        ENQUEUE_REQUESTS,
    ));
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
    // Each sample serves a fresh population, whose screening recorded the
    // journals the drain replays; the service is returned, so it drops
    // after the clock stops.
    let drain = |mut svc: flashmark_serve::VerificationService| {
        let report = svc.serve_drained(1).expect("serve");
        assert_eq!(report.recorded, DRAIN_REQUESTS);
        svc
    };
    rows.push((
        Bench::case("service_shard_drain", drained, drain),
        DRAIN_REQUESTS,
    ));

    let (mut cases, ops): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    let stats = Bench::new("kernel").samples(10).round_robin(&mut cases);
    let mut report = RuntimeReport::new();
    for ((case, stats), ops) in cases.iter().zip(stats).zip(ops) {
        report.push_with_ops(
            &format!("kernel/{}", case.name),
            stats.median_s,
            1,
            Some(ops),
        );
    }
    report
}

/// Runs one untimed iteration of a kernel under a metrics-only obs
/// collector (installed *after* setup, so setup traffic is excluded) and
/// returns the cell visits the iteration performed — the `cells` counter
/// group the batched kernels increment per chunk. Falls back to the raw
/// obs event count for operations that touch no cells.
fn traced_ops<S, R>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> R) -> u64 {
    let input = setup();
    let ((), collector) = collect(Collector::with_capacity(0, 0), || {
        std::hint::black_box(f(input));
    });
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
    fn round_robin_reports_each_case_in_order() {
        let spin = |n: u64| {
            move |()| {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                acc
            }
        };
        let mut cases = [
            Bench::case("slow", || (), spin(20_000)),
            Bench::case("fast", || (), spin(200)),
        ];
        let stats = Bench::new("test").samples(3).round_robin(&mut cases);
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert!(s.min_s > 0.0 && s.min_s <= s.median_s);
        }
        assert!(stats[0].median_s > stats[1].median_s, "{stats:?}");
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
    fn kernel_rows_survive_and_experiment_rows_do_not() {
        let dir = std::env::temp_dir().join("flashmark_runtime_report");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("kept_{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        assert!(RuntimeReport::load_kernel_rows(&path)
            .unwrap()
            .entries
            .is_empty());
        let mut base = RuntimeReport::new();
        base.push_with_ops("kernel/read_segment", 0.010, 1, Some(7));
        base.push("experiment/fig09", 2.0, 6);
        base.push("kernel/bulk_stress_5k", 0.020, 1);
        base.write(&path).unwrap();
        let kept = RuntimeReport::load_kernel_rows(&path);
        std::fs::remove_file(&path).ok();
        let mut want = base.clone();
        want.entries.remove(1);
        assert_eq!(kept.unwrap(), want);
    }

    #[test]
    fn empty_report_does_not_load() {
        let dir = std::env::temp_dir().join("flashmark_runtime_report");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("empty_{}.json", std::process::id()));
        std::fs::write(&path, "{\"entries\": []}").unwrap();
        let loaded = RuntimeReport::load(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
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
