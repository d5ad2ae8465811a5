//! Instrumented shadows of the service request path and of population
//! enrollment, built only from the crates' public calls.
//!
//! A traced run first makes the real call (`serve_drained`,
//! `PopulationSpec::build`), then replays the same input through the shadow
//! here, which records a span around every layer call. The run checks that
//! the shadow reproduced the real registry root (and, for enrollment, every
//! chip's simulated history) bit for bit, so the per-layer times describe
//! the work the real path did.

use std::time::Instant;

use flashmark_core::{
    CoreError, CounterfeitReason, FlashmarkConfig, InconclusiveReason, SegmentCondition,
    StressDetector, TestStatus, Verdict, Verifier,
};
use flashmark_msp430::Msp430Variant;
use flashmark_nor::{FlashInterface, SegmentAddr};
use flashmark_obs::{install, take, virtual_latency_of, Collector, Metrics};
use flashmark_par::TrialRunner;
use flashmark_physics::rng::mix2;
use flashmark_physics::Micros;
use flashmark_registry::{
    json_string, AppendOutcome, Record, RecordVerdict, Registry, SealedRecord,
};
use flashmark_serve::service::SCHEME;
use flashmark_serve::{
    class, EnrolledChip, PopulationSpec, ServiceConfig, VerificationService, VerifyRequest,
    COMMIT_TAG, PROBE_WINDOW_SEGMENTS,
};
use flashmark_supply::counterfeiter::{simulate_field_use, CloneData, MetadataForge};
use flashmark_supply::{sampled_probe_segments, Attack, Chip, Manufacturer, Provenance};

use crate::timed::TimedFlash;
use crate::trace::{SpanId, Trace};
use crate::workload::THREADS;

/// The wear probe's operating point inside `VerificationService::new`
/// (partial-erase time and stressed-cell threshold);
/// [`ShadowService::matches_service`] checks that they still agree.
const PROBE_T_PEW_US: f64 = 23.0;
const PROBE_THRESHOLD: f64 = 0.5;

/// The service's reason label for a wear-probe reject.
pub const WEAR_REJECT: &str = "recycled_wear";

/// What the shadow learned about one served request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestFacts {
    /// Whether a wear probe ran.
    pub probed: bool,
    /// Retry-ladder rungs walked.
    pub ladder_rungs: u32,
    /// Virtual latency in flash-op cost units.
    pub vlat_ops: u64,
    /// Cells the physics model touched (obs `cells` group).
    pub cells: u64,
    /// Simulated tester seconds the request took.
    pub sim_s: f64,
}

/// A shadow batch's per-request facts and record sizes.
#[derive(Debug, Clone, Default)]
pub struct ShadowBatch {
    /// One entry per request, in arrival order.
    pub requests: Vec<RequestFacts>,
    /// Canonical registry-line bytes of every appended record.
    pub record_bytes: Vec<usize>,
}

/// The service's request path, re-assembled from public calls.
#[derive(Debug)]
pub struct ShadowService<'a> {
    chips: &'a [EnrolledChip],
    verifier: Verifier,
    detector: StressDetector,
    cfg: ServiceConfig,
    params: String,
    registry: Registry,
}

/// One request's draft, tagged with its arrival index.
struct Served {
    global: usize,
    record: Record,
    facts: RequestFacts,
}

impl<'a> ShadowService<'a> {
    /// A shadow serving `chips` under the real service's `cfg`; `params`
    /// is the real service's `params()` string.
    ///
    /// # Errors
    ///
    /// An invalid probe configuration in `cfg`.
    pub fn new(
        chips: &'a [EnrolledChip],
        cfg: &ServiceConfig,
        params: &str,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            chips,
            verifier: Verifier::new(cfg.config.clone(), cfg.manufacturer_id),
            detector: StressDetector::new(
                Micros::new(PROBE_T_PEW_US),
                cfg.probe_reads,
                PROBE_THRESHOLD,
            )?,
            cfg: cfg.clone(),
            params: params.to_string(),
            registry: Registry::new(cfg.registry),
        })
    }

    /// The shadow's registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether the shadow verifies and probes with the service's own
    /// settings. The probe's operating point is copied from
    /// `VerificationService::new`, which does not expose it, so this builds
    /// a service over no chips from the same configuration and looks for
    /// the shadow's verifier and detector in its `Debug` form.
    ///
    /// # Errors
    ///
    /// An invalid configuration.
    pub fn matches_service(&self) -> Result<bool, CoreError> {
        let no_chips = PopulationSpec {
            seed: self.cfg.seed,
            genuine: 0,
            fallout: 0,
            recycled: 0,
            clones: 0,
            rebranded: 0,
            recycled_cycles: 0,
            worn_segments: Vec::new(),
        }
        .build(&self.cfg.config, self.cfg.manufacturer_id)?;
        let service = format!(
            "{:?}",
            VerificationService::new(no_chips, self.cfg.clone())?
        );
        Ok(service.contains(&format!("verifier: {:?}", self.verifier))
            && service.contains(&format!("detector: {:?}", self.detector)))
    }

    /// Serves one batch the way `process_batch` does: shards by
    /// `chip_id % shards` over a `TrialRunner` with [`THREADS`] workers,
    /// then appends the drafts serially in arrival order.
    ///
    /// Spans: `shadow.batch` > `par.run` > `par.task` (one per shard) >
    /// `serve.request` > layer calls; `registry.append` under the batch.
    ///
    /// # Errors
    ///
    /// Flash errors from verification or probing.
    pub fn process(
        &mut self,
        batch: &[VerifyRequest],
        trace: &mut Trace,
    ) -> Result<ShadowBatch, CoreError> {
        let batch_span = trace.open("shadow.batch", None, None);
        let shards = self.cfg.shards.max(1);
        let mut per_shard: Vec<Vec<(usize, VerifyRequest)>> = vec![Vec::new(); shards];
        for (global, &req) in batch.iter().enumerate() {
            per_shard[(req.chip_id % shards as u64) as usize].push((global, req));
        }

        let par_span = trace.open("par.run", Some(batch_span), None);
        let root = trace.fragment();
        let this = &*self;
        let shard_out: Vec<Result<(Trace, Vec<Served>), CoreError>> =
            TrialRunner::with_threads(self.cfg.seed, THREADS).run(shards, |t| {
                let mut fragment = root.fragment();
                let task = fragment.open("par.task", None, None);
                let served = per_shard[t.index]
                    .iter()
                    .map(|&(global, req)| {
                        this.serve_one(req, &mut fragment, task)
                            .map(|(record, facts)| Served {
                                global,
                                record,
                                facts,
                            })
                    })
                    .collect::<Result<Vec<_>, _>>();
                fragment.close(task);
                served.map(|s| (fragment, s))
            });
        trace.close(par_span);

        let mut served = Vec::with_capacity(batch.len());
        for out in shard_out {
            let (fragment, drafts) = out?;
            trace.graft(fragment, par_span);
            served.extend(drafts);
        }
        served.sort_by_key(|s| s.global);

        let mut out = ShadowBatch::default();
        for s in served {
            out.requests.push(s.facts);
            out.record_bytes
                .extend(self.append(s.record, trace, batch_span));
        }
        trace.close(batch_span);
        Ok(out)
    }

    /// Serves a single request serially and appends it, for a one-request
    /// batch (the die-sort gate). Spans hang under `parent`.
    ///
    /// # Errors
    ///
    /// Flash errors from verification or probing.
    pub fn serve_single(
        &mut self,
        req: VerifyRequest,
        trace: &mut Trace,
        parent: SpanId,
    ) -> Result<ShadowBatch, CoreError> {
        let (record, facts) = self.serve_one(req, trace, parent)?;
        Ok(ShadowBatch {
            requests: vec![facts],
            record_bytes: self.append(record, trace, parent).into_iter().collect(),
        })
    }

    /// Appends one draft under a `registry.append` span; returns the
    /// canonical line's length when the record was new.
    fn append(&mut self, record: Record, trace: &mut Trace, parent: SpanId) -> Option<usize> {
        let request = Some(record.request_id);
        let prev = self.registry.root();
        let copy = record.clone();
        let t = Instant::now();
        let appended = self.registry.append(record);
        trace.push("registry.append", t, Instant::now(), Some(parent), request);
        match appended {
            AppendOutcome::Recorded { seq, .. } => {
                Some(SealedRecord::seal(seq, prev, copy).line().len())
            }
            AppendOutcome::Duplicate { .. } => None,
        }
    }

    /// `serve_one` of the service: verify a fresh copy of the enrolled
    /// chip under a metrics-only collector, probe accepted chips on
    /// request, and build the draft record.
    fn serve_one(
        &self,
        req: VerifyRequest,
        trace: &mut Trace,
        parent: SpanId,
    ) -> Result<(Record, RequestFacts), CoreError> {
        let id = Some(req.request_id);
        let span = trace.open("serve.request", Some(parent), id);
        let enrolled = self
            .chips
            .get(req.chip_id as usize)
            .ok_or(CoreError::Config("request for an unenrolled chip"))?;

        let t = Instant::now();
        let mut flash = TimedFlash::new(enrolled.chip.flash.clone());
        trace.push("msp430.clone", t, Instant::now(), Some(span), id);
        let seg = flash.inner().watermark_segment();
        let sim_start = flash.elapsed();

        let t = Instant::now();
        install(Collector::with_capacity(req.request_id, 0));
        trace.push("obs.collector", t, Instant::now(), Some(span), id);

        let served = (|| -> Result<(RecordVerdict, &'static str, bool), CoreError> {
            let verify = trace.open("core.verify", Some(span), id);
            let report = self.verifier.verify(&mut flash, seg);
            trace.close(verify);
            trace.push_calls(&flash.take_calls(), verify, id);
            let (mut verdict, mut reason) = map_verdict(report?.verdict);
            let probed = req.probe && verdict == RecordVerdict::Accept;
            if probed {
                let probe = trace.open("core.probe", Some(span), id);
                let probe_seg = sampled_probe_segments(
                    PROBE_WINDOW_SEGMENTS,
                    1,
                    mix2(self.cfg.seed, req.request_id),
                )[0];
                let report = self.detector.classify(&mut flash, probe_seg);
                trace.close(probe);
                trace.push_calls(&flash.take_calls(), probe, id);
                if report?.verdict == SegmentCondition::Stressed {
                    verdict = RecordVerdict::Reject;
                    reason = WEAR_REJECT;
                }
            }
            Ok((verdict, reason, probed))
        })();

        let t = Instant::now();
        let collector = take().unwrap_or_else(|| Collector::with_capacity(req.request_id, 0));
        trace.push("obs.collector", t, Instant::now(), Some(span), id);
        let (verdict, reason, probed) = served?;

        let t = Instant::now();
        let metrics = collector.metrics();
        let ladder_rungs = metrics.group_total("ladder") as u32;
        let record = Record {
            request_id: req.request_id,
            chip_id: req.chip_id,
            class: enrolled.class.to_string(),
            scheme: SCHEME.to_string(),
            commit: COMMIT_TAG.to_string(),
            params: self.params.clone(),
            verdict,
            reason: reason.to_string(),
            metrics: canonical_metrics(metrics),
            ladder_depth: ladder_rungs,
            retries: metrics.group_total("retry") as u32,
        };
        let facts = RequestFacts {
            probed,
            ladder_rungs,
            vlat_ops: virtual_latency_of(metrics),
            cells: metrics.group_total("cells"),
            sim_s: (flash.elapsed() - sim_start).get(),
        };
        trace.push("serve.record_build", t, Instant::now(), Some(span), id);
        trace.close(span);
        Ok((record, facts))
    }
}

/// The service's (verdict, reason) mapping.
#[must_use]
pub fn map_verdict(verdict: Verdict) -> (RecordVerdict, &'static str) {
    match verdict {
        Verdict::Genuine => (RecordVerdict::Accept, ""),
        Verdict::Counterfeit(reason) => (
            RecordVerdict::Reject,
            match reason {
                CounterfeitReason::NoWatermark => "no_watermark",
                CounterfeitReason::SignatureMismatch => "signature_mismatch",
                CounterfeitReason::RejectedDie => "rejected_die",
                CounterfeitReason::WrongManufacturer { .. } => "wrong_manufacturer",
            },
        ),
        Verdict::Inconclusive(reason) => (
            RecordVerdict::Inconclusive,
            match reason {
                InconclusiveReason::TransientFaults => "transient_faults",
                InconclusiveReason::RecharacterizationFailed => "recharacterization_failed",
                InconclusiveReason::FuzzyMatchMarginal => "fuzzy_match_marginal",
            },
        ),
    }
}

/// The service's canonical per-request metrics JSON.
fn canonical_metrics(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .counters()
        .map(|(group, name, n)| format!("{}:{n}", json_string(&format!("{group}.{name}"))))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Totals of one shadow enrollment.
#[derive(Debug, Clone, Default)]
pub struct Enrollment {
    /// The enrolled chips, in `chip_id` order.
    pub chips: Vec<EnrolledChip>,
    /// Dies the manufacturer produced for screened classes (re-spins
    /// included).
    pub produced: u64,
    /// Chips that shipped through screening.
    pub screened: u64,
    /// Cells the physics model touched while producing those dies.
    pub cells: u64,
    /// Simulated tester seconds spent producing and screening them.
    pub sim_s: f64,
}

impl Enrollment {
    /// Adds `other`'s totals (not its chips).
    pub fn add_totals(&mut self, other: &Enrollment) {
        self.produced += other.produced;
        self.screened += other.screened;
        self.cells += other.cells;
        self.sim_s += other.sim_s;
    }
}

/// `PopulationSpec::build`, re-assembled from public calls and traced:
/// `supply.produce` per die, `msp430.clone` and `core.screen_verify` per
/// screening pass, `supply.field_use`, `supply.forge` and
/// `supply.clone_attack` for the counterfeit classes. Root spans hang under
/// `parent`.
///
/// # Errors
///
/// Imprint/flash errors from manufacturing or tampering.
pub fn enroll(
    spec: &PopulationSpec,
    config: &FlashmarkConfig,
    manufacturer_id: u16,
    trace: &mut Trace,
    parent: Option<SpanId>,
) -> Result<Enrollment, CoreError> {
    let mut e = Enroller {
        manufacturer: Manufacturer::new(manufacturer_id, Msp430Variant::F5438, config.clone()),
        verifier: Verifier::new(config.clone(), manufacturer_id),
        trace,
        parent,
        out: Enrollment::default(),
    };
    let chip_seed = |chip_id: u64| mix2(spec.seed, chip_id);
    let next_id = |e: &Enroller<'_>| e.out.chips.len() as u64;

    for _ in 0..spec.genuine {
        let id = next_id(&e);
        let chip = e.screened(chip_seed(id), TestStatus::Accept, id)?;
        e.push(id, class::GENUINE, chip);
    }
    for _ in 0..spec.fallout {
        let id = next_id(&e);
        let mut chip = e.screened(chip_seed(id), TestStatus::Reject, id)?;
        e.step("supply.forge", id, || MetadataForge.apply(&mut chip))?;
        e.push(id, class::FALLOUT, chip);
    }
    for _ in 0..spec.recycled {
        let id = next_id(&e);
        let mut chip = e.screened(chip_seed(id), TestStatus::Accept, id)?;
        e.step("supply.field_use", id, || {
            spec.worn_segments.iter().try_for_each(|&seg| {
                simulate_field_use(&mut chip, SegmentAddr::new(seg), spec.recycled_cycles)
            })
        })?;
        chip.provenance = Provenance::Recycled {
            prior_cycles: spec.recycled_cycles,
        };
        e.push(id, class::RECYCLED, chip);
    }
    if spec.clones > 0 {
        let t = Instant::now();
        let harvested = e
            .manufacturer
            .produce(mix2(spec.seed, 0xD0_00E5), TestStatus::Accept)
            .and_then(|mut donor| CloneData::harvest(&mut donor, 3));
        e.trace
            .push("supply.clone_attack", t, Instant::now(), e.parent, None);
        let donor_bits = harvested?;
        for _ in 0..spec.clones {
            let id = next_id(&e);
            let mut chip = Chip::fresh(Msp430Variant::F5438, chip_seed(id), Provenance::Clone);
            let attack = CloneData {
                config: config.clone(),
                donor_bits: donor_bits.clone(),
            };
            e.step("supply.clone_attack", id, || attack.apply(&mut chip))?;
            e.push(id, class::CLONE, chip);
        }
    }
    for _ in 0..spec.rebranded {
        let id = next_id(&e);
        let chip = Chip::fresh(Msp430Variant::F5529, chip_seed(id), Provenance::Rebranded);
        e.push(id, class::REBRANDED, chip);
    }
    Ok(e.out)
}

struct Enroller<'t> {
    manufacturer: Manufacturer,
    verifier: Verifier,
    trace: &'t mut Trace,
    parent: Option<SpanId>,
    out: Enrollment,
}

impl Enroller<'_> {
    fn push(&mut self, chip_id: u64, class: &'static str, chip: Chip) {
        self.out.chips.push(EnrolledChip {
            chip_id,
            class,
            chip,
        });
    }

    fn step(
        &mut self,
        name: &'static str,
        chip_id: u64,
        work: impl FnOnce() -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let t = Instant::now();
        let done = work();
        self.trace
            .push(name, t, Instant::now(), self.parent, Some(chip_id));
        done
    }

    /// One die off the line, with a metrics-only collector counting the
    /// cells its imprint touched.
    fn produce(&mut self, seed: u64, status: TestStatus, chip_id: u64) -> Result<Chip, CoreError> {
        let t = Instant::now();
        install(Collector::with_capacity(chip_id, 0));
        let chip = self.manufacturer.produce(seed, status);
        let cells = take().map_or(0, |c| c.metrics().group_total("cells"));
        self.trace.push(
            "supply.produce",
            t,
            Instant::now(),
            self.parent,
            Some(chip_id),
        );
        let chip = chip?;
        self.out.produced += 1;
        self.out.cells += cells;
        self.out.sim_s += chip.flash.elapsed().get();
        Ok(chip)
    }

    /// Die sort with screening: verify a throwaway copy and re-spin the die
    /// seed until the record decodes (as `PopulationSpec::build` does).
    fn screened(&mut self, seed: u64, status: TestStatus, chip_id: u64) -> Result<Chip, CoreError> {
        let id = Some(chip_id);
        let mut chip = self.produce(seed, status, chip_id)?;
        for attempt in 1u64.. {
            let t = Instant::now();
            let mut copy = TimedFlash::new(chip.flash.clone());
            self.trace
                .push("msp430.clone", t, Instant::now(), self.parent, id);
            let seg = copy.inner().watermark_segment();
            let span = self.trace.open("core.screen_verify", self.parent, id);
            let report = self.verifier.verify(&mut copy, seg);
            self.trace.close(span);
            self.trace.push_calls(&copy.take_calls(), span, id);
            self.out.sim_s += (copy.elapsed() - chip.flash.elapsed()).get();
            if report?.record.is_some() {
                break;
            }
            chip = self.produce(mix2(seed, attempt), status, chip_id)?;
        }
        self.out.screened += 1;
        Ok(chip)
    }
}

/// True when two populations hold the same chips: same identities, classes,
/// provenance and simulated clocks, bit for bit.
#[must_use]
pub fn same_population(a: &[EnrolledChip], b: &[EnrolledChip]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.chip_id == y.chip_id
                && x.class == y.class
                && x.chip.provenance == y.chip.provenance
                && x.chip.flash.chip_seed() == y.chip.flash.chip_seed()
                && x.chip.flash.elapsed().get().to_bits() == y.chip.flash.elapsed().get().to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmark_bench::service_campaign::{campaign_config, CAMPAIGN_MANUFACTURER};

    #[test]
    fn the_shadow_probes_like_the_service() {
        let cfg = ServiceConfig::new(campaign_config(), CAMPAIGN_MANUFACTURER, 1);
        let mut shadow = ShadowService::new(&[], &cfg, "{}").unwrap();
        assert!(shadow.matches_service().unwrap());

        shadow.detector =
            StressDetector::new(Micros::new(PROBE_T_PEW_US + 1.0), cfg.probe_reads, 0.5).unwrap();
        assert!(!shadow.matches_service().unwrap());
    }
}
