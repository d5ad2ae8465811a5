//! Fleet-scale verification-service load campaign.
//!
//! Drives a deterministic stream of incoming-inspection requests — mixed
//! honest/recycled/cloned/forged populations, a fixed probe fraction —
//! through the channel front end of [`flashmark_serve::VerificationService`]
//! in batches, and summarizes the provenance registry the service
//! accumulates: verdict mix per provenance class, retry-ladder and
//! transient-retry histograms (backed by the per-request obs counters the
//! service harvests), and the registry's root digest.
//!
//! Every request is a pure function of `(campaign seed, request index)`,
//! shard processing re-merges in arrival order, and the summary carries no
//! wall-clock fields — so the artifact is byte-identical at any
//! `--threads` count. Throughput lives in the separate, quarantined
//! [`ServiceTimings`] artifact.

use flashmark_core::{CoreError, FlashmarkConfig};
use flashmark_physics::rng::mix2;
use flashmark_registry::RegistryOptions;
use flashmark_serve::{PopulationSpec, ServiceConfig, VerificationService, VerifyRequest};

use crate::impl_to_json;

/// Manufacturer ID the campaign verifier trusts.
pub const CAMPAIGN_MANUFACTURER: u16 = 0x7C01;

/// Requests per sealed registry segment in campaign runs.
pub const CAMPAIGN_SEAL_EVERY: u64 = 4096;

/// One in `PROBE_MODULUS` requests also runs the destructive
/// recycled-wear probe.
pub const PROBE_MODULUS: u64 = 4;

/// The campaign's extraction recipe: the paper's 60 K / 5-replica
/// operating point with single reads (the throughput-oriented corner the
/// incoming-inspection service runs at).
///
/// # Panics
///
/// Never — the knobs are statically valid.
#[must_use]
pub fn campaign_config() -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(60_000)
        .replicas(5)
        .reads(1)
        .build()
        .expect("valid campaign config")
}

/// Campaign shape.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCampaignOptions {
    /// Seed the population, probe sampling, and request stream derive from.
    pub seed: u64,
    /// Total verify requests.
    pub requests: u64,
    /// Requests submitted per channel batch.
    pub batch: u64,
    /// Worker threads for shard processing.
    pub threads: usize,
}

impl ServiceCampaignOptions {
    /// The committed million-request campaign (`results/service_campaign.json`).
    #[must_use]
    pub fn full(threads: usize) -> Self {
        Self {
            seed: 0x5E47,
            requests: 1_000_000,
            batch: 25_000,
            threads,
        }
    }

    /// The Full suite's 10 k-request campaign
    /// (`results/service_campaign_smoke.json`).
    #[must_use]
    pub fn smoke(threads: usize) -> Self {
        Self {
            seed: 0x5E47,
            requests: 10_000,
            batch: 2_500,
            threads,
        }
    }

    /// The reduced shape the Smoke suite profile and integration tests run.
    #[must_use]
    pub fn tiny(threads: usize) -> Self {
        Self {
            seed: 0x5E47,
            requests: 1_000,
            batch: 250,
            threads,
        }
    }
}

/// The deterministic request at stream position `i`: a uniform chip pick
/// plus a fixed probe fraction, both derived from `(seed, i)`.
#[must_use]
pub fn campaign_request(seed: u64, i: u64, population: u64) -> VerifyRequest {
    VerifyRequest {
        request_id: i,
        chip_id: mix2(seed ^ 0xC41F_0001, i) % population.max(1),
        probe: mix2(seed ^ 0x9B0B_0002, i).is_multiple_of(PROBE_MODULUS),
    }
}

/// Builds the campaign service: the mixed population enrolled under the
/// campaign recipe, recording into a summary-form registry sealed every
/// [`CAMPAIGN_SEAL_EVERY`] records. It keeps no record lines, and since
/// the campaign's request ids arrive in order from 0, its duplicate check
/// holds constant memory; what grows is one seal per segment.
///
/// # Errors
///
/// Imprint/flash errors from population manufacturing.
pub fn build_campaign_service(seed: u64) -> Result<VerificationService, CoreError> {
    let config = campaign_config();
    let population = PopulationSpec::campaign(seed).build(&config, CAMPAIGN_MANUFACTURER)?;
    let mut cfg = ServiceConfig::new(config, CAMPAIGN_MANUFACTURER, seed);
    cfg.registry = RegistryOptions {
        seal_every: CAMPAIGN_SEAL_EVERY,
        retain_records: false,
    };
    VerificationService::new(population, cfg)
}

/// One `(class, verdict)` cell of the campaign verdict mix.
#[derive(Debug, Clone)]
pub struct VerdictMixRow {
    /// Ground-truth provenance class.
    pub class: String,
    /// Registry verdict name (`accept` / `reject` / `inconclusive`).
    pub verdict: &'static str,
    /// Records in the cell.
    pub count: u64,
    /// Cell rate normalized per 10⁶ requests.
    pub per_million: f64,
}
impl_to_json!(VerdictMixRow {
    class,
    verdict,
    count,
    per_million
});

/// One bin of a per-request histogram (ladder depth or transient retries).
#[derive(Debug, Clone)]
pub struct HistogramRow {
    /// Bin value (rungs walked, or retries spent).
    pub bin: u32,
    /// Requests in the bin.
    pub count: u64,
    /// Bin rate normalized per 10⁶ requests.
    pub per_million: f64,
}
impl_to_json!(HistogramRow {
    bin,
    count,
    per_million
});

/// One cell of the inconclusive/reject reason breakdown.
#[derive(Debug, Clone)]
pub struct ReasonRow {
    /// Verdict reason stamped into the registry record, e.g.
    /// `recycled_wear` or `transient_faults`.
    pub reason: String,
    /// Records carrying the reason.
    pub count: u64,
    /// Cell rate normalized per 10⁶ requests.
    pub per_million: f64,
}
impl_to_json!(ReasonRow {
    reason,
    count,
    per_million
});

/// One gauge or counter sample of the service telemetry snapshot.
#[derive(Debug, Clone)]
pub struct TelemetryRow {
    /// Metric name, e.g. `service_queue_depth`.
    pub metric: &'static str,
    /// Shard index, or `None` for service-wide (GLOBAL) series.
    pub shard: Option<u64>,
    /// Gauge high watermark or counter total.
    pub value: u64,
}
impl_to_json!(TelemetryRow {
    metric,
    shard,
    value
});

/// One bucket of the campaign-wide virtual-latency histogram
/// (per-shard series summed; bucket bounds are powers of two).
#[derive(Debug, Clone)]
pub struct VlatBucketRow {
    /// Inclusive bucket upper bound, in flash-op cost units.
    pub le: u64,
    /// Requests whose virtual latency landed in the bucket.
    pub count: u64,
}
impl_to_json!(VlatBucketRow { le, count });

/// One enrolled-population cell.
#[derive(Debug, Clone)]
pub struct PopulationRow {
    /// Provenance class.
    pub class: &'static str,
    /// Chips enrolled.
    pub chips: u64,
}
impl_to_json!(PopulationRow { class, chips });

/// The deterministic campaign artifact
/// (`results/service_campaign.json` / `_smoke.json`). Carries no
/// wall-clock fields: byte-identical at any `--threads` count.
#[derive(Debug, Clone)]
pub struct ServiceCampaignData {
    /// Campaign seed.
    pub seed: u64,
    /// Verify requests completed.
    pub requests: u64,
    /// Requests per submitted batch.
    pub batch: u64,
    /// Probe fraction denominator (1 in N requests probes).
    pub probe_modulus: u64,
    /// Canonical recipe-parameter JSON (as stamped into every record).
    pub params: String,
    /// Enrolled population, one row per class.
    pub population: Vec<PopulationRow>,
    /// Registry root digest (hex) — the log's identity.
    pub registry_root: String,
    /// Records appended.
    pub registry_records: u64,
    /// Seals frozen.
    pub registry_seals: u64,
    /// Records per sealed segment.
    pub seal_every: u64,
    /// Duplicate submissions rejected (0 for a clean run).
    pub duplicates: u64,
    /// Verdict mix per provenance class.
    pub verdict_mix: Vec<VerdictMixRow>,
    /// Retry-ladder depth histogram (rungs walked per request).
    pub ladder_histogram: Vec<HistogramRow>,
    /// Transient-retry histogram (retries spent per request).
    pub retry_histogram: Vec<HistogramRow>,
    /// Per-reason breakdown of every non-accept verdict.
    pub reason_breakdown: Vec<ReasonRow>,
    /// Telemetry gauges (queue-depth / batch-occupancy high watermarks).
    pub telemetry_gauges: Vec<TelemetryRow>,
    /// Telemetry counters (requests and probes per shard).
    pub telemetry_counters: Vec<TelemetryRow>,
    /// Campaign-wide virtual-latency distribution, shards summed.
    pub virtual_latency_histogram: Vec<VlatBucketRow>,
}
impl_to_json!(ServiceCampaignData {
    seed,
    requests,
    batch,
    probe_modulus,
    params,
    population,
    registry_root,
    registry_records,
    registry_seals,
    seal_every,
    duplicates,
    verdict_mix,
    ladder_histogram,
    retry_histogram,
    reason_breakdown,
    telemetry_gauges,
    telemetry_counters,
    virtual_latency_histogram
});

/// The quarantined wall-clock artifact (`service_timings.json`) — the one
/// part of the campaign output that legitimately differs across machines
/// and thread counts.
#[derive(Debug, Clone)]
pub struct ServiceTimings {
    /// Worker threads.
    pub threads: usize,
    /// Requests served.
    pub requests: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Throughput (requests per second).
    pub requests_per_s: f64,
}
impl_to_json!(ServiceTimings {
    threads,
    requests,
    wall_s,
    requests_per_s
});

/// A completed campaign: the deterministic JSON artifact plus the
/// Prometheus-style text exposition of the service telemetry snapshot
/// (written beside the JSON as `service_metrics*.prom`). Both are
/// byte-identical at any `--threads` count.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The JSON artifact struct.
    pub data: ServiceCampaignData,
    /// The telemetry snapshot in Prometheus text exposition format.
    pub exposition: String,
}

/// Runs the campaign: builds the service, streams `opts.requests` requests
/// through the channel front end in `opts.batch`-sized batches, and
/// summarizes the registry and telemetry snapshot. `progress` is called
/// with the running request total after each batch.
///
/// # Errors
///
/// Imprint/flash errors from manufacturing or verification.
pub fn run_service_campaign(
    opts: &ServiceCampaignOptions,
    mut progress: impl FnMut(u64),
) -> Result<CampaignRun, CoreError> {
    let mut service = build_campaign_service(opts.seed)?;
    let population = service.population().len() as u64;
    let handle = service.handle();

    let mut duplicates = 0u64;
    let mut done = 0u64;
    while done < opts.requests {
        let batch_end = (done + opts.batch.max(1)).min(opts.requests);
        for i in done..batch_end {
            handle.submit(campaign_request(opts.seed, i, population))?;
        }
        let report = service.serve_drained(opts.threads)?;
        duplicates += report.duplicates;
        done = batch_end;
        progress(done);
    }

    Ok(CampaignRun {
        exposition: service.telemetry().expose(),
        data: summarize(&service, opts, duplicates),
    })
}

/// Summarizes a campaign service's registry and telemetry snapshot into
/// the artifact struct.
#[must_use]
pub fn summarize(
    service: &VerificationService,
    opts: &ServiceCampaignOptions,
    duplicates: u64,
) -> ServiceCampaignData {
    let registry = service.registry();
    let stats = registry.stats();
    let telemetry = service.telemetry();
    let shard_of = |shard: u64| (shard != flashmark_obs::GLOBAL).then_some(shard);
    let mut vlat: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (name, _, bucket, count) in telemetry.histogram_buckets() {
        if name == "service_virtual_latency_ops" {
            *vlat.entry(bucket).or_insert(0) += count;
        }
    }
    let requests = stats.requests();
    let per_million = |count: u64| count as f64 * 1_000_000.0 / (requests.max(1) as f64);
    ServiceCampaignData {
        seed: opts.seed,
        requests,
        batch: opts.batch,
        probe_modulus: PROBE_MODULUS,
        params: service.params().to_string(),
        population: service
            .population()
            .class_counts()
            .into_iter()
            .map(|(class, chips)| PopulationRow { class, chips })
            .collect(),
        registry_root: registry.root().to_hex(),
        registry_records: registry.len(),
        registry_seals: registry.seals().len() as u64,
        seal_every: CAMPAIGN_SEAL_EVERY,
        duplicates,
        verdict_mix: stats
            .verdict_mix()
            .map(|(class, verdict, count)| VerdictMixRow {
                class: class.to_string(),
                verdict,
                count,
                per_million: per_million(count),
            })
            .collect(),
        ladder_histogram: stats
            .ladder_histogram()
            .map(|(bin, count)| HistogramRow {
                bin,
                count,
                per_million: per_million(count),
            })
            .collect(),
        retry_histogram: stats
            .retry_histogram()
            .map(|(bin, count)| HistogramRow {
                bin,
                count,
                per_million: per_million(count),
            })
            .collect(),
        reason_breakdown: stats
            .reason_breakdown()
            .map(|(reason, count)| ReasonRow {
                reason: reason.to_string(),
                count,
                per_million: per_million(count),
            })
            .collect(),
        telemetry_gauges: telemetry
            .gauges()
            .map(|(metric, shard, value)| TelemetryRow {
                metric,
                shard: shard_of(shard),
                value,
            })
            .collect(),
        telemetry_counters: telemetry
            .counters()
            .map(|(metric, shard, value)| TelemetryRow {
                metric,
                shard: shard_of(shard),
                value,
            })
            .collect(),
        virtual_latency_histogram: vlat
            .into_iter()
            .map(|(le, count)| VlatBucketRow { le, count })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_deterministic_and_mixed() {
        let a: Vec<VerifyRequest> = (0..200).map(|i| campaign_request(7, i, 120)).collect();
        let b: Vec<VerifyRequest> = (0..200).map(|i| campaign_request(7, i, 120)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|r| r.probe));
        assert!(a.iter().any(|r| !r.probe));
        assert!(a.iter().all(|r| r.chip_id < 120));
        // The pick spreads over the population rather than pinning one chip.
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|r| r.chip_id).collect();
        assert!(
            distinct.len() > 50,
            "only {} distinct chips",
            distinct.len()
        );
    }

    #[test]
    fn per_million_normalization() {
        let opts = ServiceCampaignOptions::tiny(1);
        assert_eq!(opts.requests, 1_000);
        // 1k requests: a count of 10 is 10_000 per million.
        let service = build_campaign_service(opts.seed).expect("service");
        let data = summarize(&service, &opts, 0);
        assert_eq!(data.requests, 0);
        assert!(data.verdict_mix.is_empty());
        assert_eq!(data.probe_modulus, PROBE_MODULUS);
    }
}
