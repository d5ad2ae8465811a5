//! The three workloads and their run loops.
//!
//! All three are closed loop with one client: the next batch (campaign
//! batch, tray, round of lots) is submitted only after the previous one
//! returned. Inputs are a pure function of the seed. `inspect_campaign` and
//! `enroll_lot` measure for `--seconds`, and run past that only until they
//! have served enough batches for a supported p90 and have reached their
//! checkpoint: the fixed batch count after which the registry root is
//! recorded and, at the default seed, compared with the pinned value.
//! `inspect_tray` serves a fixed number of trays and keeps every record, so
//! what its registry holds does not depend on throughput; its checkpoint is
//! its last tray.

use std::collections::BTreeMap;
use std::error::Error;
use std::ops::RangeInclusive;
use std::path::Path;
use std::time::{Duration, Instant};

use flashmark_bench::service_campaign::{
    campaign_config, campaign_request, CAMPAIGN_MANUFACTURER, CAMPAIGN_SEAL_EVERY,
};
use flashmark_core::{CoreError, FlashmarkConfig, Verifier};
use flashmark_msp430::Msp430Flash;
use flashmark_nor::FlashInterface;
use flashmark_obs::Snapshot;
use flashmark_par::TrialRunner;
use flashmark_physics::rng::mix2;
use flashmark_registry::{Digest64, RecordVerdict, RegistryOptions, ServiceStats};
use flashmark_serve::{
    class, PopulationSpec, RequestSender, ServiceConfig, VerificationService, VerifyRequest,
};

use crate::json::{self, Json};
use crate::ledger::{self, ratio, LedgerInput};
use crate::metrics::Measured;
use crate::shadow::{self, Enrollment, ShadowBatch, ShadowService, WEAR_REJECT};
use crate::stats;
use crate::trace::Trace;

/// The seed whose checkpoint roots are pinned.
pub const DEFAULT_SEED: u64 = 0x5E47;

/// Worker threads of the service and of every `TrialRunner` fan-out. On a
/// 2-vCPU host, two workers made run-to-run throughput vary by about 10 %,
/// one worker by about 2 %.
pub const THREADS: usize = 1;

/// Timed set-ups per run; `setup_s` is their median. The run serves from
/// the first; the others follow the window, because building and dropping
/// populations before it slowed the first ten seconds of serving by about
/// 10 %. The first set-up of a process runs up to 30 % longer than the
/// later ones; the median of five lies past it.
const SETUP_REPS: usize = 5;
/// Batches an untraced full run serves at least, so that `batch_p90_ms`
/// has ten samples beyond it.
const MIN_BATCHES: u64 = 100;
/// `--quick` divides run length and checkpoint sizes by this.
const QUICK_DIVISOR: u64 = 20;
/// Share of a traced run spent tracing; the rest measures the untraced
/// rate `trace.overhead` compares against.
const TRACED_SHARE: f64 = 2.0 / 3.0;
/// Range the shadow's wall time over the real path's must stay in, or the
/// per-layer ledger no longer describes the real path.
const COVERAGE: RangeInclusive<f64> = 0.9..=1.1;

/// Trays an inspection-station run serves.
const STATION_TRAYS: u64 = 750;

/// Dies per die-sort lot.
const LOT_DIES: usize = 50;
/// Lots per `TrialRunner` fan-out: two, so that the fan-out and the
/// imbalance between its tasks are measured.
const LOTS_PER_ROUND: usize = 2;
/// Lot index of the calibration lot enrolled during set-up.
const CALIBRATION_LOT: u64 = u64::MAX;
/// Each lot's outgoing-QA inspection: its first die, wear-probed.
const LOT_GATE: VerifyRequest = VerifyRequest {
    request_id: 0,
    chip_id: 0,
    probe: true,
};

type BoxError = Box<dyn Error>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fleet traffic through the verification service.
    InspectCampaign,
    /// An inspection station serving one tray at a time.
    InspectTray,
    /// Manufacturer die sort.
    EnrollLot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::InspectCampaign, Self::InspectTray, Self::EnrollLot];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::InspectCampaign => "inspect_campaign",
            Self::InspectTray => "inspect_tray",
            Self::EnrollLot => "enroll_lot",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Batches a run serves whatever the window: the station's trays.
    /// The other workloads are timed.
    fn fixed_batches(self) -> Option<u64> {
        (self == Self::InspectTray).then_some(STATION_TRAYS)
    }

    /// Batches after which the registry root is recorded: 10 000 campaign
    /// requests (the committed smoke campaign), the station's last tray,
    /// 40 lots.
    fn checkpoint(self) -> u64 {
        match self {
            Self::InspectCampaign => 200,
            Self::InspectTray => STATION_TRAYS,
            Self::EnrollLot => 40,
        }
    }

    /// The checkpoint root at [`DEFAULT_SEED`], for full and `--quick`
    /// sizes.
    fn pinned_root(self, quick: bool) -> &'static str {
        match (self, quick) {
            (Self::InspectCampaign, false) => "7c649629d3517abf",
            (Self::InspectCampaign, true) => "28e188ed1bd222d5",
            (Self::InspectTray, false) => "ed8fab12559bf72f",
            (Self::InspectTray, true) => "aaed365028b275bf",
            (Self::EnrollLot, false) => "f3e960215287454b",
            (Self::EnrollLot, true) => "67de674a3a95abac",
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// Smoke sizes: 1/20 of the window, run size and checkpoint, one
    /// set-up.
    pub quick: bool,
}

/// A correctness check of the run.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

fn gate(name: &'static str, ok: bool, detail: impl Into<String>) -> Gate {
    Gate {
        name,
        ok,
        detail: detail.into(),
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: inspection requests, or dies enrolled.
    pub attempted: u64,
    /// Requests of batches whose verdicts disagree with their references,
    /// or dies of lots whose outgoing inspection did.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Measured,
    /// Deterministic values that must repeat exactly for a seed.
    pub exact: Vec<(&'static str, Json)>,
    /// Correctness checks.
    pub gates: Vec<Gate>,
    /// The span trace of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// True when nothing failed and every gate held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Flash or configuration errors from the system under test, and an
/// unreadable peak-RSS counter.
pub fn run(opts: &RunOptions) -> Result<Outcome, BoxError> {
    match opts.workload {
        Workload::EnrollLot => enroll_lot(opts),
        _ => inspect(opts),
    }
}

/// Run length and sizes derived from the options.
struct Plan {
    window: Duration,
    traced: Duration,
    fixed: Option<u64>,
    setup_reps: usize,
    min_batches: u64,
    checkpoint: u64,
}

impl Plan {
    fn new(opts: &RunOptions) -> Self {
        let div = if opts.quick { QUICK_DIVISOR } else { 1 };
        let window = Duration::from_secs_f64(opts.seconds / div as f64);
        Self {
            window,
            traced: window.mul_f64(TRACED_SHARE),
            fixed: opts.workload.fixed_batches().map(|n| (n / div).max(1)),
            // A traced run reports no `setup_s`.
            setup_reps: if opts.quick || opts.trace {
                1
            } else {
                SETUP_REPS
            },
            min_batches: if opts.quick || opts.trace {
                0
            } else {
                MIN_BATCHES
            },
            checkpoint: (opts.workload.checkpoint() / div).max(1),
        }
    }

    /// Whether a run started at `start` goes on after `batches` batches.
    fn more(&self, start: Instant, batches: u64) -> bool {
        match self.fixed {
            Some(n) => batches < n,
            None => {
                start.elapsed() < self.window || batches < self.min_batches.max(self.checkpoint)
            }
        }
    }

    /// Whether the traced part of a run goes on: at least one batch, then
    /// the first [`TRACED_SHARE`] of the window or of the fixed run.
    fn more_traced(&self, start: Instant, batches: u64) -> bool {
        batches == 0
            || match self.fixed {
                Some(n) => (batches as f64) < n as f64 * TRACED_SHARE,
                None => start.elapsed() < self.traced,
            }
    }
}

/// Runs `build` once; returns the build and its seconds.
fn timed_setup<T>(build: impl FnOnce() -> Result<T, CoreError>) -> Result<(T, f64), CoreError> {
    let t = Instant::now();
    let built = build()?;
    Ok((built, t.elapsed().as_secs_f64()))
}

/// The `setup_s` samples: `first`, then the seconds of `reps - 1` more
/// builds, each dropped once timed. An untimed build goes before them:
/// the first build next to a live population grows the heap by a second
/// population, and the page faults that takes made it up to 50 % slower
/// than the builds that reuse that memory.
fn setup_samples<T>(
    first: f64,
    reps: usize,
    mut build: impl FnMut() -> Result<T, CoreError>,
) -> Result<Vec<f64>, CoreError> {
    let mut times = vec![first];
    if reps > 1 {
        drop(build()?);
    }
    for _ in 1..reps {
        times.push(timed_setup(&mut build)?.1);
    }
    Ok(times)
}

/// The end-to-end metrics. The caller reads `peak_mb` before the set-ups
/// that follow the window, so that it is the peak of serving.
///
/// No median batch latency: the shared host switches between a fast and a
/// slow state for seconds to minutes at a time, and the median of a run's
/// batches falls in one state or the other. Its run-to-run spread reached
/// 26 % where `chips_per_s`, whose inverse is the mean batch time, spread
/// 20 % and `batch_p90_ms` 13 %.
fn end_to_end(
    setup_s: &[f64],
    peak_mb: f64,
    done: u64,
    wall: Duration,
    latencies_ms: &[f64],
) -> Result<Measured, BoxError> {
    let n = latencies_ms.len();
    let p90 = stats::percentile(latencies_ms, 90.0).ok_or("no batch completed")?;
    if !p90.is_supported() {
        eprintln!(
            "note: batch_p90_ms has {} samples beyond it (n={n}); a full run has at least {}",
            p90.beyond,
            stats::MIN_BEYOND
        );
    }
    Ok(Measured::from([
        (
            "setup_s",
            (stats::median(setup_s).unwrap_or(0.0), setup_s.len()),
        ),
        ("chips_per_s", (done as f64 / wall.as_secs_f64(), n)),
        ("batch_p90_ms", (p90.value, n)),
        ("peak_rss_mb", (peak_mb, 1)),
    ]))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `(sum, count)` of the per-request virtual-latency histogram over every
/// shard.
fn vlat_sums(telemetry: &Snapshot, shards: usize) -> (u64, u64) {
    (0..shards as u64).fold((0, 0), |(s, c), shard| {
        (
            s + telemetry.histogram_sum("service_virtual_latency_ops", shard),
            c + telemetry.histogram_count("service_virtual_latency_ops", shard),
        )
    })
}

/// A chip's reference outcome: the `(verdict, reason)` a fresh copy of it
/// verifies to, which the service must reproduce.
type Reference = (RecordVerdict, &'static str);

/// The reference outcome of `flash`. A genuine die that does not verify
/// genuine is a die-sort escape: screening only checks that some record
/// decodes, so a die whose watermark reads back as another CRC-valid record
/// ships.
fn reference(verifier: &Verifier, mut flash: Msp430Flash) -> Result<Reference, CoreError> {
    let seg = flash.watermark_segment();
    Ok(shadow::map_verdict(
        verifier.verify(&mut flash, seg)?.verdict,
    ))
}

fn is_escape(class: &str, reference: Reference) -> bool {
    class == class::GENUINE && reference.0 != RecordVerdict::Accept
}

/// Checks a batch's verdicts against the `(class, reference)` of each of
/// its requests. A request may leave its reference one way only: the
/// sampled wear probe turns an accept into a `recycled_wear` reject. The
/// check compares the batch's `(class, verdict)` counts and its reason
/// counts, so one wrong verdict goes unseen only if another request of the
/// same class in the same batch goes wrong the opposite way with the same
/// reason. Any accept of a forged fall-out, clone or re-branded chip fails
/// the batch too.
///
/// Returns `None` when the batch fails, else the genuine requests the
/// probe rejected: false rejects of the single-read probe, a property of
/// the scheme.
fn check_verdicts(expected: &[(&str, Reference)], stats: &ServiceStats) -> Option<u64> {
    let (accept, reject) = (RecordVerdict::Accept.name(), RecordVerdict::Reject.name());
    // Expected minus served, per (class, verdict) and per reason.
    let mut mix: BTreeMap<(&str, &str), i64> = BTreeMap::new();
    let mut reasons: BTreeMap<&str, i64> = BTreeMap::new();
    for &(class, (verdict, reason)) in expected {
        *mix.entry((class, verdict.name())).or_default() += 1;
        if !reason.is_empty() {
            *reasons.entry(reason).or_default() += 1;
        }
    }
    for (class, verdict, n) in stats.verdict_mix() {
        *mix.entry((class, verdict)).or_default() -= n as i64;
    }
    for (reason, n) in stats.reason_breakdown() {
        *reasons.entry(reason).or_default() -= n as i64;
    }
    let probe_rejects = -reasons.remove(WEAR_REJECT).unwrap_or(0);

    // Each probe reject leaves +1 on (class, accept) and -1 on
    // (class, reject); nothing else may be left.
    let left = |class, verdict| mix.get(&(class, verdict)).copied().unwrap_or(0);
    let classes_match = mix.iter().all(|(&(class, verdict), &n)| {
        if verdict == accept {
            n >= 0 && n + left(class, reject) == 0
        } else if verdict == reject {
            left(class, accept) + n == 0
        } else {
            n == 0
        }
    });
    let moved: i64 = mix
        .iter()
        .filter(|((_, verdict), _)| *verdict == accept)
        .map(|(_, &n)| n)
        .sum();
    let forged_accepted: u64 = [class::FALLOUT, class::CLONE, class::REBRANDED]
        .iter()
        .map(|c| stats.verdicts(c, RecordVerdict::Accept))
        .sum();
    (classes_match
        && moved == probe_rejects
        && reasons.values().all(|&n| n == 0)
        && forged_accepted == 0)
        .then(|| left(class::GENUINE, accept) as u64)
}

/// The checkpoint-root gates: the pinned root at the default seed, and for
/// the campaign also the root committed in the smoke campaign artifact.
fn checkpoint_gates(opts: &RunOptions, root: Option<Digest64>) -> Vec<Gate> {
    let Some(root) = root.map(Digest64::to_hex) else {
        return vec![gate("checkpoint_root", false, "checkpoint not reached")];
    };
    if opts.seed != DEFAULT_SEED {
        return vec![gate(
            "checkpoint_root",
            true,
            format!("{root} (pinned only at seed {DEFAULT_SEED:#x})"),
        )];
    }
    let pinned = opts.workload.pinned_root(opts.quick);
    let mut gates = vec![gate(
        "checkpoint_root",
        root == pinned,
        format!("{root}, pinned {pinned}"),
    )];
    if opts.workload == Workload::InspectCampaign && !opts.quick {
        gates.push(smoke_gate(&root));
    }
    gates
}

/// Compares `root` with `registry_root` of the committed 10 000-request
/// smoke campaign, read at run time.
fn smoke_gate(root: &str) -> Gate {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/service_campaign_smoke.json");
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| json::parse(&text))
        .and_then(|doc| {
            json::get(&doc, "registry_root")
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| "no registry_root in the smoke artifact".to_string())
        });
    match committed {
        Ok(c) => gate(
            "smoke_campaign_root",
            c == root,
            format!("{root}, committed {c}"),
        ),
        Err(e) => gate("smoke_campaign_root", false, e),
    }
}

/// Traffic shape of an inspect workload.
#[derive(Debug, Clone, Copy)]
struct InspectShape {
    /// Requests per batch.
    batch: u64,
    /// Every request probes (otherwise one in four, as the campaign
    /// stream draws).
    probe_all: bool,
    /// The registry keeps every record line.
    full_log: bool,
}

impl InspectShape {
    fn of(workload: Workload) -> Self {
        let station = workload == Workload::InspectTray;
        Self {
            batch: if station { 16 } else { 50 },
            probe_all: station,
            full_log: station,
        }
    }
}

/// The real service and everything measured on it.
struct Station {
    shape: InspectShape,
    cfg: ServiceConfig,
    service: VerificationService,
    handle: RequestSender,
    /// Per chip: its class and reference outcome.
    reference: Vec<(&'static str, Reference)>,
    checkpoint_at: u64,
    batches: u64,
    latencies_ms: Vec<f64>,
    busy: Duration,
    attempted: u64,
    failed: u64,
    wrong_batches: u64,
    probe_rejected_genuine: u64,
    checkpoint: Option<(Digest64, f64)>,
}

impl Station {
    fn next_batch(&self) -> Vec<VerifyRequest> {
        let population = self.service.population().len() as u64;
        let first = self.batches * self.shape.batch;
        (first..first + self.shape.batch)
            .map(|i| {
                let r = campaign_request(self.cfg.seed, i, population);
                VerifyRequest {
                    probe: r.probe || self.shape.probe_all,
                    ..r
                }
            })
            .collect()
    }

    /// Submits `batch` and serves it; a traced run records `serve.submit`
    /// per request and `serve.batch`.
    fn serve(
        &mut self,
        batch: &[VerifyRequest],
        mut trace: Option<&mut Trace>,
    ) -> Result<(), CoreError> {
        let t0 = Instant::now();
        for req in batch {
            let t = Instant::now();
            self.handle.submit(*req)?;
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(
                    "serve.submit",
                    t,
                    Instant::now(),
                    None,
                    Some(req.request_id),
                );
            }
        }
        let t1 = Instant::now();
        let report = self.service.serve_drained(THREADS)?;
        let t2 = Instant::now();
        if let Some(trace) = trace {
            trace.push("serve.batch", t1, t2, None, None);
        }
        self.latencies_ms.push((t2 - t0).as_secs_f64() * 1e3);
        self.busy += t2 - t0;
        let expected: Vec<_> = batch
            .iter()
            .map(|r| self.reference[r.chip_id as usize])
            .collect();
        match check_verdicts(&expected, &report.stats) {
            Some(probe_rejected) => self.probe_rejected_genuine += probe_rejected,
            None => {
                self.failed += report.submitted;
                self.wrong_batches += 1;
            }
        }
        self.attempted += report.submitted;
        self.failed += report.duplicates;
        self.batches += 1;
        if self.batches == self.checkpoint_at {
            let (sum, count) = vlat_sums(self.service.telemetry(), self.cfg.shards);
            self.checkpoint = Some((
                self.service.registry().root(),
                ratio(sum as f64, count as f64),
            ));
        }
        Ok(())
    }

    fn step(&mut self) -> Result<(), CoreError> {
        let batch = self.next_batch();
        self.serve(&batch, None)
    }
}

fn inspect(opts: &RunOptions) -> Result<Outcome, BoxError> {
    let plan = Plan::new(opts);
    let shape = InspectShape::of(opts.workload);
    let mut cfg = ServiceConfig::new(campaign_config(), CAMPAIGN_MANUFACTURER, opts.seed);
    cfg.registry = RegistryOptions {
        seal_every: CAMPAIGN_SEAL_EVERY,
        retain_records: shape.full_log,
    };
    let spec = PopulationSpec::campaign(opts.seed);
    let build = || {
        let population = spec.build(&cfg.config, cfg.manufacturer_id)?;
        VerificationService::new(population, cfg.clone())
    };
    let (service, first_setup) = timed_setup(build)?;
    let genuine: Vec<f64> = service
        .population()
        .chips()
        .iter()
        .filter(|c| c.class == class::GENUINE)
        .map(|c| c.chip.flash.elapsed().get())
        .collect();
    let sim_imprint_s = ratio(genuine.iter().sum(), genuine.len() as f64);
    let verifier = Verifier::new(cfg.config.clone(), cfg.manufacturer_id);
    let reference = service
        .population()
        .chips()
        .iter()
        .map(|c| Ok((c.class, reference(&verifier, c.chip.flash.clone())?)))
        .collect::<Result<Vec<_>, CoreError>>()?;
    let escapes = reference.iter().filter(|&&(c, r)| is_escape(c, r)).count();

    let mut st = Station {
        shape,
        handle: service.handle(),
        service,
        reference,
        cfg: cfg.clone(),
        checkpoint_at: plan.checkpoint,
        batches: 0,
        latencies_ms: Vec::new(),
        busy: Duration::ZERO,
        attempted: 0,
        failed: 0,
        wrong_batches: 0,
        probe_rejected_genuine: 0,
        checkpoint: None,
    };
    let mut gates = Vec::new();

    let (metrics, trace) = if opts.trace {
        let epoch = Instant::now();
        let mut setup_trace = Trace::new(epoch);
        let root = setup_trace.open("setup.shadow", None, None);
        let enrollment = shadow::enroll(
            &spec,
            &cfg.config,
            cfg.manufacturer_id,
            &mut setup_trace,
            Some(root),
        )?;
        setup_trace.close(root);
        gates.push(gate(
            "shadow_population",
            shadow::same_population(&enrollment.chips, st.service.population().chips()),
            "shadow enrollment reproduces every chip",
        ));
        let mut shadow = ShadowService::new(&enrollment.chips, &cfg, st.service.params())?;
        gates.push(config_gate(&shadow)?);
        let mut phase = Trace::new(epoch);
        let mut replay = ShadowBatch::default();
        let mut diverged = 0u64;

        let start = Instant::now();
        while plan.more_traced(start, st.batches) {
            let batch = st.next_batch();
            st.serve(&batch, Some(&mut phase))?;
            let shadowed = shadow.process(&batch, &mut phase)?;
            diverged += u64::from(shadow.registry().root() != st.service.registry().root());
            replay.requests.extend(shadowed.requests);
            replay.record_bytes.extend(shadowed.record_bytes);
        }
        let traced = (st.attempted, st.busy);
        let traced_batches = st.batches;
        while st.batches == traced_batches || plan.more(start, st.batches) {
            st.step()?;
        }
        gates.push(gate(
            "shadow_root",
            diverged == 0,
            format!("{diverged} of {traced_batches} traced batches diverged from the service"),
        ));
        gates.push(coverage_gate(&phase, "shadow.batch", "serve.batch"));
        let rate = |(n, busy): (u64, Duration)| ratio(n as f64, busy.as_secs_f64());
        let untraced = (st.attempted - traced.0, st.busy - traced.1);
        let metrics = ledger::per_layer(&LedgerInput {
            phase: &phase,
            enrollment_trace: &setup_trace,
            enrollment: &enrollment,
            requests: &replay.requests,
            record_bytes: &replay.record_bytes,
            overhead: (
                ratio(rate(traced), rate(untraced)),
                (st.batches - traced_batches) as usize,
            ),
        });
        setup_trace.extend(phase);
        (metrics, Some(setup_trace))
    } else {
        let start = Instant::now();
        while plan.more(start, st.batches) {
            st.step()?;
        }
        let peak_mb = peak_rss_mb()?;
        let setup_s = setup_samples(first_setup, plan.setup_reps, build)?;
        (
            end_to_end(&setup_s, peak_mb, st.attempted, st.busy, &st.latencies_ms)?,
            None,
        )
    };

    gates.push(gate(
        "verdicts",
        st.failed == 0,
        format!(
            "{} of {} batches ({} of {} requests) disagree with their references; {} genuine requests rejected by the sampled wear probe; {escapes} genuine chips are die-sort escapes",
            st.wrong_batches, st.batches, st.failed, st.attempted, st.probe_rejected_genuine
        ),
    ));
    gates.extend(checkpoint_gates(opts, st.checkpoint.map(|c| c.0)));
    let (root, vlat) = st.checkpoint.unwrap_or((Digest64::EMPTY, 0.0));
    Ok(Outcome {
        attempted: st.attempted,
        failed: st.failed,
        metrics,
        exact: exact(root, vlat, sim_imprint_s, escapes as u64),
        gates,
        trace,
    })
}

/// The deterministic values of a run: the checkpoint root, virtual
/// latency per request and simulated imprint seconds per chip at the
/// checkpoint, and the die-sort escapes among the checked chips.
fn exact(root: Digest64, vlat: f64, sim_imprint_s: f64, escapes: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("root", Json::Str(root.to_hex())),
        ("vlat_ops_per_req", Json::Num(vlat)),
        ("sim_imprint_s", Json::Num(sim_imprint_s)),
        ("die_sort_escapes", Json::UInt(escapes)),
    ]
}

/// The shadow's wall time over the real path's must lie in [`COVERAGE`].
fn coverage_gate(phase: &Trace, shadow: &str, real: &str) -> Gate {
    let coverage = ratio(phase.total(shadow).1 as f64, phase.total(real).1 as f64);
    gate(
        "trace_coverage",
        COVERAGE.contains(&coverage),
        format!(
            "shadow/real wall time {coverage:.4}, must lie in [{}, {}]",
            COVERAGE.start(),
            COVERAGE.end()
        ),
    )
}

/// The shadow must verify and probe with the service's settings.
fn config_gate(shadow: &ShadowService<'_>) -> Result<Gate, CoreError> {
    Ok(gate(
        "shadow_config",
        shadow.matches_service()?,
        "the shadow's verifier and wear probe are the service's",
    ))
}

fn lot_spec(seed: u64) -> PopulationSpec {
    PopulationSpec {
        seed,
        genuine: LOT_DIES,
        fallout: 0,
        recycled: 0,
        clones: 0,
        rebranded: 0,
        recycled_cycles: 0,
        worn_segments: Vec::new(),
    }
}

/// One enrolled lot, through the real calls.
struct LotRun {
    start: Instant,
    submit: (Instant, Instant),
    serve: (Instant, Instant),
    chips: u64,
    /// Verdicts of the lot's inspection.
    stats: ServiceStats,
    /// The inspected die as enrolled, for its reference outcome.
    gate_die: Msp430Flash,
    root: Digest64,
    sim_imprint_s: f64,
    vlat: (u64, u64),
    params: String,
}

impl LotRun {
    /// `(matches, escape)`: whether the lot's inspection verdict is its
    /// die's reference outcome (as [`check_verdicts`] judges it), and
    /// whether that die is a die-sort escape.
    fn judge(&self, verifier: &Verifier) -> Result<(bool, bool), CoreError> {
        let expected = (class::GENUINE, reference(verifier, self.gate_die.clone())?);
        Ok((
            check_verdicts(&[expected], &self.stats).is_some(),
            is_escape(expected.0, expected.1),
        ))
    }

    /// Whether the lot ships: its inspected die was accepted.
    fn accepted(&self) -> bool {
        self.stats.verdicts(class::GENUINE, RecordVerdict::Accept) == 1
    }
}

/// Die sort of one lot: `PopulationSpec::build` (imprint and screening of
/// every die), then the lot's outgoing inspection of its first die through
/// a `VerificationService`, recorded in the lot's registry.
fn real_lot(config: &FlashmarkConfig, seed: u64) -> Result<LotRun, CoreError> {
    let start = Instant::now();
    let population = lot_spec(seed).build(config, CAMPAIGN_MANUFACTURER)?;
    let chips = population.len() as u64;
    let sim_imprint_s = population
        .chips()
        .iter()
        .map(|c| c.chip.flash.elapsed().get())
        .sum();
    let cfg = ServiceConfig::new(config.clone(), CAMPAIGN_MANUFACTURER, seed);
    let shards = cfg.shards;
    let mut service = VerificationService::new(population, cfg)?;
    let s0 = Instant::now();
    service.handle().submit(LOT_GATE)?;
    let s1 = Instant::now();
    let report = service.serve_drained(THREADS)?;
    let s2 = Instant::now();
    let gate_die = service
        .population()
        .get(LOT_GATE.chip_id)
        .ok_or(CoreError::Config("empty lot"))?
        .chip
        .flash
        .clone();
    Ok(LotRun {
        start,
        submit: (s0, s1),
        serve: (s1, s2),
        chips,
        stats: report.stats,
        gate_die,
        root: service.registry().root(),
        sim_imprint_s,
        vlat: vlat_sums(service.telemetry(), shards),
        params: service.params().to_string(),
    })
}

/// The shadow of [`real_lot`]: traced enrollment, then the traced gate
/// request, under one `par.task` span.
fn shadow_lot(
    config: &FlashmarkConfig,
    seed: u64,
    params: &str,
    mut trace: Trace,
    lot: u64,
) -> Result<(Trace, Enrollment, ShadowBatch, Digest64), CoreError> {
    let task = trace.open("par.task", None, Some(lot));
    let mut enrollment = shadow::enroll(
        &lot_spec(seed),
        config,
        CAMPAIGN_MANUFACTURER,
        &mut trace,
        Some(task),
    )?;
    let cfg = ServiceConfig::new(config.clone(), CAMPAIGN_MANUFACTURER, seed);
    let mut service = ShadowService::new(&enrollment.chips, &cfg, params)?;
    let gate = service.serve_single(LOT_GATE, &mut trace, task)?;
    let root = service.registry().root();
    trace.close(task);
    enrollment.chips.clear();
    Ok((trace, enrollment, gate, root))
}

/// Die-sort totals and the checkpoint over the first lots.
#[derive(Default)]
struct DieSort {
    checkpoint_at: u64,
    lots: u64,
    chips: u64,
    failed: u64,
    held: u64,
    busy: Duration,
    latencies_ms: Vec<f64>,
    roots: Vec<Digest64>,
    sim_imprint_s: f64,
    checkpoint_chips: u64,
    checkpoint_escapes: u64,
    vlat: (u64, u64),
}

impl DieSort {
    /// Enrolls the next round of lots across the runner; returns the
    /// round's start and end and the lots in order. Verdicts are judged
    /// after the round's clock stopped.
    fn round(
        &mut self,
        runner: &TrialRunner,
        lots: usize,
        lot: impl Fn(u64) -> Result<LotRun, CoreError> + Sync,
        verifier: &Verifier,
    ) -> Result<(Instant, Instant, Vec<LotRun>), CoreError> {
        let base = self.lots;
        let t0 = Instant::now();
        let runs = runner.run(lots, |t| lot(base + t.index as u64));
        let t1 = Instant::now();
        self.busy += t1 - t0;
        let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
        for run in &runs {
            let (matches, escape) = run.judge(verifier)?;
            self.latencies_ms
                .push((run.serve.1 - run.start).as_secs_f64() * 1e3);
            self.chips += run.chips;
            self.failed += if matches { 0 } else { run.chips };
            self.held += u64::from(escape || !run.accepted());
            if self.lots < self.checkpoint_at {
                self.roots.push(run.root);
                self.sim_imprint_s += run.sim_imprint_s;
                self.checkpoint_chips += run.chips;
                self.checkpoint_escapes += u64::from(escape);
                self.vlat.0 += run.vlat.0;
                self.vlat.1 += run.vlat.1;
            }
            self.lots += 1;
        }
        Ok((t0, t1, runs))
    }

    /// The chained gate roots of the first `checkpoint_at` lots, once
    /// enrolled.
    fn checkpoint_root(&self) -> Option<Digest64> {
        (self.roots.len() as u64 == self.checkpoint_at).then(|| {
            self.roots
                .iter()
                .fold(Digest64::EMPTY, |acc, &r| acc.link(r))
        })
    }
}

/// What the traced phase of a die-sort run collected.
struct TracedLots {
    phase: Trace,
    enrollment: Enrollment,
    replay: ShadowBatch,
    diverged: u64,
    lots: u64,
    chips: u64,
    busy: Duration,
}

fn enroll_lot(opts: &RunOptions) -> Result<Outcome, BoxError> {
    let plan = Plan::new(opts);
    let config = campaign_config();
    let lot = |index: u64| real_lot(&config, mix2(opts.seed, index));
    let (calibration, first_setup) = timed_setup(|| lot(CALIBRATION_LOT))?;
    let runner = TrialRunner::with_threads(opts.seed, THREADS);
    let verifier = Verifier::new(config.clone(), CAMPAIGN_MANUFACTURER);
    let mut ds = DieSort {
        checkpoint_at: plan.checkpoint,
        ..DieSort::default()
    };
    let mut gates = vec![gate(
        "calibration_lot",
        calibration.judge(&verifier)?.0,
        "the calibration lot's inspection matches its die's reference verdict",
    )];

    let start = Instant::now();
    let traced = if opts.trace {
        let cfg = ServiceConfig::new(config.clone(), CAMPAIGN_MANUFACTURER, opts.seed);
        gates.push(config_gate(&ShadowService::new(
            &[],
            &cfg,
            &calibration.params,
        )?)?);
        let mut t = TracedLots {
            phase: Trace::new(start),
            enrollment: Enrollment::default(),
            replay: ShadowBatch::default(),
            diverged: 0,
            lots: 0,
            chips: 0,
            busy: Duration::ZERO,
        };
        while plan.more_traced(start, ds.lots) {
            let base = ds.lots;
            let (t0, t1, runs) = ds.round(&runner, LOTS_PER_ROUND, lot, &verifier)?;
            let phase = &mut t.phase;
            let round = phase.push("enroll.round", t0, t1, None, None);
            for (i, run) in runs.iter().enumerate() {
                let id = Some(base + i as u64);
                let l = phase.push("enroll.lot", run.start, run.serve.1, Some(round), id);
                phase.push("serve.submit", run.submit.0, run.submit.1, Some(l), id);
                phase.push("serve.batch", run.serve.0, run.serve.1, Some(l), id);
            }

            let round = phase.open("shadow.round", None, None);
            let par = phase.open("par.run", Some(round), None);
            let root = phase.fragment();
            let shadows = runner.run(LOTS_PER_ROUND, |trial| {
                let index = base + trial.index as u64;
                let seed = mix2(opts.seed, index);
                shadow_lot(&config, seed, &calibration.params, root.fragment(), index)
            });
            phase.close(par);
            for (shadowed, run) in shadows.into_iter().zip(&runs) {
                let (fragment, lot_enrollment, gate, root) = shadowed?;
                phase.graft(fragment, par);
                t.diverged += u64::from(root != run.root);
                t.enrollment.add_totals(&lot_enrollment);
                t.replay.requests.extend(gate.requests);
                t.replay.record_bytes.extend(gate.record_bytes);
            }
            phase.close(round);
        }
        (t.lots, t.chips, t.busy) = (ds.lots, ds.chips, ds.busy);
        Some(t)
    } else {
        None
    };

    let traced_lots = ds.lots;
    while (opts.trace && ds.lots == traced_lots) || plan.more(start, ds.lots) {
        ds.round(&runner, LOTS_PER_ROUND, lot, &verifier)?;
    }

    let (metrics, trace) = if let Some(t) = traced {
        gates.push(gate(
            "shadow_root",
            t.diverged == 0,
            format!(
                "{} of {} traced lots diverged from the real enrollment",
                t.diverged, t.lots
            ),
        ));
        gates.push(coverage_gate(&t.phase, "shadow.round", "enroll.round"));
        let rate = |n: u64, busy: Duration| ratio(n as f64, busy.as_secs_f64());
        let metrics = ledger::per_layer(&LedgerInput {
            phase: &t.phase,
            enrollment_trace: &t.phase,
            enrollment: &t.enrollment,
            requests: &t.replay.requests,
            record_bytes: &t.replay.record_bytes,
            overhead: (
                ratio(
                    rate(t.chips, t.busy),
                    rate(ds.chips - t.chips, ds.busy - t.busy),
                ),
                (ds.lots - t.lots) as usize,
            ),
        });
        (metrics, Some(t.phase))
    } else {
        let peak_mb = peak_rss_mb()?;
        let setup_s = setup_samples(first_setup, plan.setup_reps, || lot(CALIBRATION_LOT))?;
        (
            end_to_end(&setup_s, peak_mb, ds.chips, ds.busy, &ds.latencies_ms)?,
            None,
        )
    };

    gates.push(gate(
        "lot_inspection",
        ds.failed == 0,
        format!(
            "{} wrong of {} lot inspections; {} lots held back (die-sort escape or wear-probe reject)",
            ds.failed / LOT_DIES as u64,
            ds.lots,
            ds.held
        ),
    ));
    let root = ds.checkpoint_root();
    gates.extend(checkpoint_gates(opts, root));
    let (sum, count) = ds.vlat;
    Ok(Outcome {
        attempted: ds.chips,
        failed: ds.failed,
        metrics,
        exact: exact(
            root.unwrap_or(Digest64::EMPTY),
            ratio(sum as f64, count as f64),
            ratio(ds.sim_imprint_s, ds.checkpoint_chips as f64),
            ds.checkpoint_escapes,
        ),
        gates,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_registry::Record;

    const ACCEPT: Reference = (RecordVerdict::Accept, "");
    const MISMATCH: Reference = (RecordVerdict::Reject, "signature_mismatch");
    const WRONG_MAKER: Reference = (RecordVerdict::Reject, "wrong_manufacturer");
    const WEAR: Reference = (RecordVerdict::Reject, WEAR_REJECT);

    /// The stats a service reports for requests served as `served`.
    fn served(served: &[(&str, Reference)]) -> ServiceStats {
        let mut stats = ServiceStats::new();
        for (i, &(class, (verdict, reason))) in served.iter().enumerate() {
            stats.record(&Record {
                request_id: i as u64,
                chip_id: i as u64,
                class: class.to_string(),
                scheme: String::new(),
                commit: String::new(),
                params: "{}".into(),
                verdict,
                reason: reason.to_string(),
                metrics: "{}".into(),
                ladder_depth: 1,
                retries: 0,
            });
        }
        stats
    }

    #[test]
    fn setup_samples_lead_with_the_served_build() {
        let mut builds = 0;
        let times = setup_samples(9.0, SETUP_REPS, || {
            builds += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(times.len(), SETUP_REPS);
        // The untimed build and `SETUP_REPS - 1` timed ones.
        assert_eq!((times[0], builds), (9.0, SETUP_REPS));
        let mut builds = 0;
        let only = setup_samples(9.0, 1, || {
            builds += 1;
            Ok(())
        });
        assert_eq!((only.unwrap(), builds), (vec![9.0], 0));
    }

    #[test]
    fn references_and_probe_rejects_pass() {
        let expected = [
            (class::GENUINE, ACCEPT),
            (class::GENUINE, ACCEPT),
            (class::GENUINE, WRONG_MAKER),
            (class::RECYCLED, ACCEPT),
            (class::CLONE, MISMATCH),
        ];
        let mut actual = expected;
        assert_eq!(check_verdicts(&expected, &served(&actual)), Some(0));
        actual[1] = (class::GENUINE, WEAR);
        actual[3] = (class::RECYCLED, WEAR);
        assert_eq!(check_verdicts(&expected, &served(&actual)), Some(1));
    }

    #[test]
    fn a_wrong_reject_does_not_cancel_an_escape_accept() {
        let expected = [(class::GENUINE, ACCEPT), (class::GENUINE, WRONG_MAKER)];
        let swapped = [(class::GENUINE, MISMATCH), (class::GENUINE, ACCEPT)];
        assert_eq!(check_verdicts(&expected, &served(&swapped)), None);
    }

    #[test]
    fn other_departures_fail() {
        let expected = [(class::GENUINE, ACCEPT), (class::CLONE, ACCEPT)];
        // The reference itself accepts a clone.
        assert_eq!(check_verdicts(&expected, &served(&expected)), None);

        let expected = [(class::GENUINE, ACCEPT), (class::CLONE, MISMATCH)];
        for actual in [
            [
                (
                    class::GENUINE,
                    (RecordVerdict::Inconclusive, "transient_faults"),
                ),
                expected[1],
            ],
            [(class::GENUINE, MISMATCH), expected[1]],
            [expected[0], (class::CLONE, WRONG_MAKER)],
            [expected[0], (class::CLONE, WEAR)],
        ] {
            assert_eq!(
                check_verdicts(&expected, &served(&actual)),
                None,
                "{actual:?}"
            );
        }
    }
}
