//! The verification service: channel front end, sharded batch processing,
//! registry recording.
//!
//! Requests enter through a cloneable [`RequestSender`] into an in-process
//! channel; [`VerificationService::drain`] collects the pending batch in
//! arrival (FIFO) order, and [`VerificationService::process_batch`] fans
//! the batch across per-chip shards via `flashmark_par`:
//!
//! * shard assignment is `chip_id % shards` — a pure function of the
//!   request, independent of thread count;
//! * each shard handles its requests in arrival order, verifying a fresh
//!   copy of the chip's enrolled as-received state (repeated incoming
//!   inspection of parts from one lot — the inspector's own destructive
//!   extractions must not accumulate on a single simulated die);
//! * draft records come back in shard order, are re-merged by global
//!   arrival index, and are appended to the [`Registry`] serially — so any
//!   `--threads N` produces a byte-identical registry log.

use std::sync::mpsc::{channel, Receiver, Sender};

use flashmark_core::CoreError;
use flashmark_core::{FlashmarkConfig, SegmentCondition, StressDetector, Verdict, Verifier};
use flashmark_obs::{install, take, virtual_latency_of, Collector, Metrics, Snapshot, GLOBAL};
use flashmark_par::TrialRunner;
use flashmark_physics::rng::mix2;
use flashmark_physics::Micros;
use flashmark_registry::{
    json_string, Record, RecordVerdict, Registry, RegistryOptions, ServiceStats,
};
use flashmark_supply::sampled_probe_segments;

use crate::population::Population;

/// Segments `0..PROBE_WINDOW_SEGMENTS` form the published recycled-wear
/// probe window: the low code/data region a first life wears hardest. Wear
/// probes sample inside it; the watermark segment (top of the array) is
/// never probed.
pub const PROBE_WINDOW_SEGMENTS: u32 = 64;

/// Verifier commit tag written into every registry record.
pub const COMMIT_TAG: &str = concat!("flashmark-serve/", env!("CARGO_PKG_VERSION"));

/// Watermark scheme the serving layer runs (`WatermarkScheme::name`
/// vocabulary); stamped into every registry record so fleet logs from
/// different backends stay distinguishable.
pub const SCHEME: &str = "nor_tpew";

/// One incoming-inspection request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyRequest {
    /// Idempotency key; the registry rejects replays of the same id.
    pub request_id: u64,
    /// Which enrolled chip to inspect.
    pub chip_id: u64,
    /// Also run a destructive recycled-wear probe on one sampled segment
    /// of the probe window.
    pub probe: bool,
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Extraction recipe the verifier publishes.
    pub config: FlashmarkConfig,
    /// Manufacturer ID the verifier expects in decoded records.
    pub manufacturer_id: u16,
    /// Seed for probe-segment sampling (`mix2(seed, request_id)` per
    /// request).
    pub seed: u64,
    /// Per-chip state shards (fixed in config, independent of threads).
    pub shards: usize,
    /// Reads per cell for the wear probe detector (must be odd).
    pub probe_reads: usize,
    /// Registry options.
    pub registry: RegistryOptions,
}

impl ServiceConfig {
    /// Defaults: 16 shards, single-read wear probe, default registry.
    #[must_use]
    pub fn new(config: FlashmarkConfig, manufacturer_id: u16, seed: u64) -> Self {
        Self {
            config,
            manufacturer_id,
            seed,
            shards: 16,
            probe_reads: 1,
            registry: RegistryOptions::default(),
        }
    }
}

/// Cloneable submission handle into the service's request channel.
#[derive(Debug, Clone)]
pub struct RequestSender {
    tx: Sender<VerifyRequest>,
}

impl RequestSender {
    /// Enqueues one request.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] when the service side has been dropped.
    pub fn submit(&self, request: VerifyRequest) -> Result<(), CoreError> {
        self.tx
            .send(request)
            .map_err(|_| CoreError::Config("verification service is gone"))
    }
}

/// Outcome of one processed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Requests in the batch.
    pub submitted: u64,
    /// New records appended to the registry.
    pub recorded: u64,
    /// Requests rejected as replays of an already-recorded `request_id`.
    pub duplicates: u64,
    /// This batch's aggregates, merged shard-by-shard in shard order.
    pub stats: ServiceStats,
}

/// One draft record plus its global arrival index, produced inside a shard.
type Draft = (usize, Record);

/// Everything one shard hands back from a drain: its drafts, its stats
/// aggregate, and its telemetry snapshot.
type ShardYield = Result<(Vec<Draft>, ServiceStats, Snapshot), CoreError>;

/// The verification service.
#[derive(Debug)]
pub struct VerificationService {
    population: Population,
    verifier: Verifier,
    detector: StressDetector,
    cfg: ServiceConfig,
    params: String,
    registry: Registry,
    telemetry: Snapshot,
    tx: Sender<VerifyRequest>,
    rx: Receiver<VerifyRequest>,
}

impl VerificationService {
    /// Builds the service around an enrolled population.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for an invalid probe detector configuration.
    pub fn new(population: Population, cfg: ServiceConfig) -> Result<Self, CoreError> {
        let verifier = Verifier::new(cfg.config.clone(), cfg.manufacturer_id);
        let detector = StressDetector::new(Micros::new(23.0), cfg.probe_reads, 0.5)?;
        let params = canonical_params(&cfg.config);
        let registry = Registry::new(cfg.registry);
        let (tx, rx) = channel();
        Ok(Self {
            population,
            verifier,
            detector,
            cfg,
            params,
            registry,
            telemetry: Snapshot::new(),
            tx,
            rx,
        })
    }

    /// A new submission handle into the request channel.
    #[must_use]
    pub fn handle(&self) -> RequestSender {
        RequestSender {
            tx: self.tx.clone(),
        }
    }

    /// The enrolled population.
    #[must_use]
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Canonical recipe-parameter JSON stamped into every record.
    #[must_use]
    pub fn params(&self) -> &str {
        &self.params
    }

    /// The provenance registry accumulated so far.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The service-telemetry snapshot accumulated so far: per-shard queue
    /// depths, request/probe counters, virtual-latency and ladder-depth
    /// histograms, and the global batch-occupancy high watermark. Shard
    /// snapshots merge commutatively in shard order, so the snapshot is
    /// byte-identical at any `--threads` count.
    #[must_use]
    pub fn telemetry(&self) -> &Snapshot {
        &self.telemetry
    }

    /// Consumes the service, yielding the registry.
    #[must_use]
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    /// Collects every request currently queued, in arrival order.
    #[must_use]
    pub fn drain(&mut self) -> Vec<VerifyRequest> {
        let mut batch = Vec::new();
        while let Ok(req) = self.rx.try_recv() {
            batch.push(req);
        }
        batch
    }

    /// Drains the queue and processes the batch across `threads` workers.
    ///
    /// # Errors
    ///
    /// Flash/layout errors from verification.
    pub fn serve_drained(&mut self, threads: usize) -> Result<BatchReport, CoreError> {
        let batch = self.drain();
        self.process_batch(&batch, threads)
    }

    /// Processes one batch: shards requests by `chip_id % shards`, runs the
    /// shards across `threads` workers, re-merges draft records by global
    /// arrival index, and appends them to the registry serially.
    ///
    /// # Errors
    ///
    /// Flash/layout errors from verification.
    pub fn process_batch(
        &mut self,
        batch: &[VerifyRequest],
        threads: usize,
    ) -> Result<BatchReport, CoreError> {
        let shards = self.cfg.shards.max(1);
        let mut per_shard: Vec<Vec<(usize, VerifyRequest)>> = vec![Vec::new(); shards];
        for (global, &req) in batch.iter().enumerate() {
            per_shard[(req.chip_id % shards as u64) as usize].push((global, req));
        }

        // The shard closure must be `Sync`; the service itself is not (it
        // owns the channel receiver), so hand the workers a view holding
        // only the shared read-only state.
        let ctx = ShardCtx {
            population: &self.population,
            verifier: &self.verifier,
            detector: self.detector,
            seed: self.cfg.seed,
            params: &self.params,
        };
        let runner = TrialRunner::with_threads(self.cfg.seed, threads);
        let shard_results: Vec<ShardYield> = runner.run(shards, |trial| {
            ctx.run_shard(trial.index, &per_shard[trial.index])
        });

        self.telemetry
            .gauge_max("service_batch_occupancy", GLOBAL, batch.len() as u64);
        let mut stats = ServiceStats::new();
        let mut drafts: Vec<Draft> = Vec::with_capacity(batch.len());
        for shard in shard_results {
            let (shard_drafts, shard_stats, shard_telemetry) = shard?;
            stats.absorb(&shard_stats);
            self.telemetry.merge(&shard_telemetry);
            drafts.extend(shard_drafts);
        }
        drafts.sort_by_key(|&(global, _)| global);

        let mut recorded = 0u64;
        let mut duplicates = 0u64;
        for (_, record) in drafts {
            if self.registry.append(record).recorded() {
                recorded += 1;
            } else {
                duplicates += 1;
            }
        }
        Ok(BatchReport {
            submitted: batch.len() as u64,
            recorded,
            duplicates,
            stats,
        })
    }
}

/// The read-only state one shard worker needs: everything [`Sync`] the
/// service owns, minus the channel.
struct ShardCtx<'a> {
    population: &'a Population,
    verifier: &'a Verifier,
    detector: StressDetector,
    seed: u64,
    params: &'a str,
}

impl ShardCtx<'_> {
    /// Processes one shard's requests in arrival order, folding per-shard
    /// telemetry: the queue-depth high watermark, request and probe
    /// counters, and per-request virtual-latency / ladder-depth
    /// histograms, all labeled with `shard_index`.
    fn run_shard(&self, shard_index: usize, requests: &[(usize, VerifyRequest)]) -> ShardYield {
        let shard = shard_index as u64;
        let mut drafts = Vec::with_capacity(requests.len());
        let mut stats = ServiceStats::new();
        let mut telemetry = Snapshot::new();
        telemetry.gauge_max("service_queue_depth", shard, requests.len() as u64);
        for &(global, req) in requests {
            let (record, virtual_latency) = self.serve_one(req)?;
            telemetry.add("service_requests_total", shard, 1);
            if req.probe {
                telemetry.add("service_probe_total", shard, 1);
            }
            telemetry.observe("service_virtual_latency_ops", shard, virtual_latency);
            telemetry.observe(
                "service_ladder_depth",
                shard,
                u64::from(record.ladder_depth),
            );
            stats.record(&record);
            drafts.push((global, record));
        }
        Ok((drafts, stats, telemetry))
    }

    /// Serves one request against a fresh copy of the chip's enrolled
    /// state, with a metrics-only collector installed around the work.
    /// Returns the draft record and the request's virtual latency in
    /// flash-op cost units (see [`virtual_latency_of`]).
    fn serve_one(&self, req: VerifyRequest) -> Result<(Record, u64), CoreError> {
        let Some(enrolled) = self.population.get(req.chip_id) else {
            return Ok((
                self.draft(
                    req,
                    "unenrolled",
                    RecordVerdict::Reject,
                    "unenrolled",
                    &Metrics::new(),
                    0,
                    0,
                ),
                0,
            ));
        };
        let mut flash = enrolled.chip.flash.clone();
        let seg = flash.watermark_segment();

        let prev = install(Collector::with_capacity(req.request_id, 0));
        let served = (|| -> Result<(RecordVerdict, &'static str), CoreError> {
            let report = self.verifier.verify(&mut flash, seg)?;
            let (mut verdict, mut reason) = map_verdict(report.verdict);
            if req.probe && verdict == RecordVerdict::Accept {
                let probe_seg = sampled_probe_segments(
                    PROBE_WINDOW_SEGMENTS,
                    1,
                    mix2(self.seed, req.request_id),
                )[0];
                let probe = self.detector.classify(&mut flash, probe_seg)?;
                if probe.verdict == SegmentCondition::Stressed {
                    verdict = RecordVerdict::Reject;
                    reason = "recycled_wear";
                }
            }
            Ok((verdict, reason))
        })();
        let collector = take().unwrap_or_else(|| Collector::with_capacity(req.request_id, 0));
        if let Some(p) = prev {
            install(p);
        }
        let (verdict, reason) = served?;

        let metrics = collector.metrics();
        let ladder_depth = metrics.group_total("ladder") as u32;
        let retries = metrics.group_total("retry") as u32;
        let virtual_latency = virtual_latency_of(metrics);
        Ok((
            self.draft(
                req,
                enrolled.class,
                verdict,
                reason,
                metrics,
                ladder_depth,
                retries,
            ),
            virtual_latency,
        ))
    }

    /// Assembles the registry record for one served request.
    #[allow(
        clippy::too_many_arguments,
        reason = "one parameter per record field the request outcome fills"
    )]
    fn draft(
        &self,
        req: VerifyRequest,
        class: &str,
        verdict: RecordVerdict,
        reason: &str,
        metrics: &Metrics,
        ladder_depth: u32,
        retries: u32,
    ) -> Record {
        Record {
            request_id: req.request_id,
            chip_id: req.chip_id,
            class: class.to_string(),
            scheme: SCHEME.to_string(),
            commit: COMMIT_TAG.to_string(),
            params: self.params.to_string(),
            verdict,
            reason: reason.to_string(),
            metrics: canonical_metrics(metrics),
            ladder_depth,
            retries,
        }
    }
}

/// Maps a core verdict into the registry's (verdict, reason) pair.
fn map_verdict(verdict: Verdict) -> (RecordVerdict, &'static str) {
    let class = match verdict {
        Verdict::Genuine => RecordVerdict::Accept,
        Verdict::Counterfeit(_) => RecordVerdict::Reject,
        Verdict::Inconclusive(_) => RecordVerdict::Inconclusive,
    };
    (class, verdict.reason())
}

/// Canonical recipe-parameter JSON (fixed field order; part of the record
/// schema).
fn canonical_params(config: &FlashmarkConfig) -> String {
    let layout = match config.layout() {
        flashmark_core::ReplicaLayout::Contiguous => "contiguous",
        flashmark_core::ReplicaLayout::Interleaved => "interleaved",
    };
    format!(
        "{{\"n_pe\":{},\"t_pew_us\":{},\"replicas\":{},\"reads\":{},\"layout\":{},\"accelerated\":{}}}",
        config.n_pe(),
        config.t_pew().get(),
        config.replicas(),
        config.reads(),
        json_string(layout),
        config.accelerated()
    )
}

/// Canonical per-request metrics JSON: counters as `"group.name": n` in
/// BTreeMap (sorted) order.
fn canonical_metrics(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (group, name, n)) in metrics.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&format!("{group}.{name}")));
        out.push(':');
        out.push_str(&n.to_string());
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{class, PopulationSpec};

    fn cheap_config() -> FlashmarkConfig {
        FlashmarkConfig::builder()
            .n_pe(60_000)
            .replicas(5)
            .reads(1)
            .build()
            .unwrap()
    }

    fn service(threadsafe_seed: u64) -> VerificationService {
        let config = cheap_config();
        let pop = PopulationSpec::tiny(0xBEEF).build(&config, 0x7C01).unwrap();
        VerificationService::new(pop, ServiceConfig::new(config, 0x7C01, threadsafe_seed)).unwrap()
    }

    fn requests(svc: &VerificationService) -> Vec<VerifyRequest> {
        // Two passes over the whole population, no probes (verdict mapping
        // only).
        (0..2 * svc.population().len() as u64)
            .map(|i| VerifyRequest {
                request_id: i,
                chip_id: i % svc.population().len() as u64,
                probe: false,
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_provenance_class() {
        let mut svc = service(1);
        let batch = requests(&svc);
        let report = svc.process_batch(&batch, 1).unwrap();
        assert_eq!(report.recorded, batch.len() as u64);
        assert_eq!(report.duplicates, 0);
        let stats = report.stats;
        // 2 genuine chips × 2 passes accepted.
        assert_eq!(stats.verdicts(class::GENUINE, RecordVerdict::Accept), 4);
        // Fall-out die decodes to a signed Reject record.
        assert_eq!(stats.verdicts(class::FALLOUT, RecordVerdict::Reject), 2);
        // Blank rebranded part: no watermark.
        assert_eq!(stats.verdicts(class::REBRANDED, RecordVerdict::Reject), 2);
        // Clone carries data, not wear: no watermark either.
        assert_eq!(stats.verdicts(class::CLONE, RecordVerdict::Reject), 2);
        // Recycled watermark itself is intact; without a probe it passes.
        assert_eq!(stats.verdicts(class::RECYCLED, RecordVerdict::Accept), 2);
    }

    #[test]
    fn thread_count_does_not_change_the_registry() {
        let mut serial = service(7);
        let mut parallel = service(7);
        let batch = requests(&serial);
        serial.process_batch(&batch, 1).unwrap();
        parallel.process_batch(&batch, 4).unwrap();
        assert_eq!(serial.registry().root(), parallel.registry().root());
        assert_eq!(serial.registry().contents(), parallel.registry().contents());
        assert_eq!(serial.telemetry(), parallel.telemetry());
        assert_eq!(
            serial.telemetry().expose(),
            parallel.telemetry().expose(),
            "telemetry exposition differs across thread counts"
        );
    }

    #[test]
    fn telemetry_counts_requests_probes_and_latency() {
        let mut svc = service(13);
        let n = svc.population().len() as u64;
        let batch: Vec<VerifyRequest> = (0..2 * n)
            .map(|i| VerifyRequest {
                request_id: i,
                chip_id: i % n,
                probe: i % 4 == 0,
            })
            .collect();
        svc.process_batch(&batch, 2).unwrap();
        let t = svc.telemetry();
        let shards = 16u64;
        let total: u64 = (0..shards)
            .map(|s| t.counter("service_requests_total", s))
            .sum();
        assert_eq!(total, 2 * n);
        let probes: u64 = (0..shards)
            .map(|s| t.counter("service_probe_total", s))
            .sum();
        assert_eq!(probes, batch.iter().filter(|r| r.probe).count() as u64);
        assert_eq!(t.gauge("service_batch_occupancy", GLOBAL), 2 * n);
        // Every served request lands one observation in each histogram,
        // and verification always performs flash work.
        let vlat_count: u64 = (0..shards)
            .map(|s| t.histogram_count("service_virtual_latency_ops", s))
            .sum();
        assert_eq!(vlat_count, 2 * n);
        let vlat_sum: u64 = (0..shards)
            .map(|s| t.histogram_sum("service_virtual_latency_ops", s))
            .sum();
        assert!(vlat_sum > 0, "no flash work attributed to any request");
        // Queue-depth gauges sum to at least the batch (each request
        // queued in exactly one shard).
        let queued: u64 = (0..shards).map(|s| t.gauge("service_queue_depth", s)).sum();
        assert_eq!(queued, 2 * n);
    }

    #[test]
    fn replaying_a_batch_is_idempotent() {
        let mut svc = service(3);
        let batch = requests(&svc);
        let first = svc.process_batch(&batch, 2).unwrap();
        let root = svc.registry().root();
        let contents = svc.registry().contents();
        let second = svc.process_batch(&batch, 2).unwrap();
        assert_eq!(first.recorded, batch.len() as u64);
        assert_eq!(second.recorded, 0);
        assert_eq!(second.duplicates, batch.len() as u64);
        assert_eq!(svc.registry().root(), root);
        assert_eq!(svc.registry().contents(), contents);
    }

    #[test]
    fn channel_front_end_preserves_arrival_order() {
        let mut svc = service(5);
        let h1 = svc.handle();
        let h2 = h1.clone();
        for i in 0..4u64 {
            let h = if i % 2 == 0 { &h1 } else { &h2 };
            h.submit(VerifyRequest {
                request_id: i,
                chip_id: i % svc.population().len() as u64,
                probe: false,
            })
            .unwrap();
        }
        let batch = svc.drain();
        let ids: Vec<u64> = batch.iter().map(|r| r.request_id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert!(svc.drain().is_empty());
        let report = svc.process_batch(&batch, 2).unwrap();
        assert_eq!(report.recorded, 4);
    }

    #[test]
    fn probed_recycled_chip_is_rejected_when_the_probe_lands_on_wear() {
        let config = cheap_config();
        let pop = PopulationSpec::tiny(0xBEEF).build(&config, 0x7C01).unwrap();
        let recycled_id = pop
            .chips()
            .iter()
            .find(|c| c.class == class::RECYCLED)
            .unwrap()
            .chip_id;
        let mut svc =
            VerificationService::new(pop, ServiceConfig::new(config, 0x7C01, 11)).unwrap();
        // Probe the recycled chip under many request ids; the sampled probe
        // window contains its worn segments, so some probe must land.
        let batch: Vec<VerifyRequest> = (0..32u64)
            .map(|i| VerifyRequest {
                request_id: i,
                chip_id: recycled_id,
                probe: true,
            })
            .collect();
        let report = svc.process_batch(&batch, 2).unwrap();
        assert!(
            report
                .stats
                .verdicts(class::RECYCLED, RecordVerdict::Reject)
                > 0,
            "no probe landed on a worn segment: {:?}",
            report.stats
        );
    }

    #[test]
    fn unenrolled_chip_is_rejected_not_an_error() {
        let mut svc = service(9);
        let report = svc
            .process_batch(
                &[VerifyRequest {
                    request_id: 0,
                    chip_id: 10_000,
                    probe: false,
                }],
                1,
            )
            .unwrap();
        assert_eq!(report.recorded, 1);
        assert_eq!(
            report.stats.verdicts("unenrolled", RecordVerdict::Reject),
            1
        );
    }
}
