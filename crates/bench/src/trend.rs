//! Bench-side wiring for the cross-run trend registry.
//!
//! Every campaign entry point appends one [`TrendRecord`] to
//! `results/trend_log.jsonl` and regenerates `results/trend_report.json`
//! from the verified log:
//!
//! * the suite appends a `"suite"` record — service verdict mix,
//!   fault-campaign flip count, obs op count (deterministic: no perf) —
//!   and then one `"backend"` record **per scheme** of its backend
//!   campaign (NOR tPEW / NAND PUF / ReRAM forming), so detection drift
//!   gates each technology backend independently;
//! * the `service_campaign` bin appends a `"service"` record for the
//!   million-request campaign it ran;
//! * `perf_smoke` appends a `"perf"` record carrying the kernel
//!   throughputs (wall-clock-bearing, so drift on it only ever warns).
//!
//! The `trend_check` bin re-verifies the chained log, recomputes the
//! drift report, and fails CI on any detection-rate drift.

use std::io;
use std::path::Path;

use flashmark_registry::Digest64;
use flashmark_trend::{
    append_to_log, compute_drift, DriftCheck, DriftReport, TrendLog, TrendRecord,
    TREND_FORMAT_VERSION,
};

use crate::backend_campaign::{BackendCampaignData, BackendSchemeSummary};
use crate::impl_to_json;
use crate::json::{Json, ToJson};
use crate::microbench::RuntimeReport;
use crate::output::write_json_in;
use crate::service_campaign::ServiceCampaignData;

/// File name of the append-only trend log inside a results directory.
pub const TREND_LOG_NAME: &str = "trend_log.jsonl";

/// Artifact stem of the drift report (written as `trend_report.json`).
pub const TREND_REPORT_NAME: &str = "trend_report";

/// Build tag stamped into every record this crate appends.
pub const TREND_BUILD_TAG: &str = concat!("flashmark-bench/", env!("CARGO_PKG_VERSION"));

/// The params digest of a service campaign: recipe params plus the
/// campaign shape, so differently-sized runs (smoke vs full vs the
/// suite's tiny profile) land in separate, non-comparable trend groups.
#[must_use]
pub fn campaign_params_digest(data: &ServiceCampaignData) -> Digest64 {
    Digest64::of(
        format!(
            "{}|requests={}|batch={}|probe={}",
            data.params, data.requests, data.batch, data.probe_modulus
        )
        .as_bytes(),
    )
}

/// Copies a campaign's per-class verdict mix into `record`.
fn fold_verdict_mix(record: &mut TrendRecord, data: &ServiceCampaignData) {
    for row in &data.verdict_mix {
        record
            .verdict_mix
            .insert((row.class.clone(), row.verdict.to_string()), row.count);
    }
}

/// The `"service"` record of a standalone service campaign.
#[must_use]
pub fn service_record(data: &ServiceCampaignData) -> TrendRecord {
    let mut record = TrendRecord::new(
        "service",
        TREND_BUILD_TAG,
        data.seed,
        campaign_params_digest(data),
    );
    fold_verdict_mix(&mut record, data);
    record
}

/// The `"suite"` record of a full or smoke suite run: the service
/// campaign's verdict mix plus the fault-campaign flip count and obs op
/// count captured by the other suite steps (absent when a step failed).
#[must_use]
pub fn suite_record(
    data: &ServiceCampaignData,
    fault_flips: Option<u64>,
    obs_ops: Option<u64>,
) -> TrendRecord {
    let mut record = TrendRecord::new(
        "suite",
        TREND_BUILD_TAG,
        data.seed,
        campaign_params_digest(data),
    );
    fold_verdict_mix(&mut record, data);
    record.flips = fault_flips;
    record.ops = obs_ops;
    record
}

/// The params digest of one scheme's slice of a backend campaign: the
/// shared operating point plus the campaign shape and the scheme name, so
/// every scheme (and every campaign size) lands in its own drift group.
#[must_use]
pub fn backend_params_digest(data: &BackendCampaignData, scheme: &str) -> Digest64 {
    Digest64::of(
        format!(
            "backend|{scheme}|trials={}|scenarios={}",
            data.trials_per_scenario,
            data.scenarios.len()
        )
        .as_bytes(),
    )
}

/// The `"backend"` record of one scheme's slice of a differential backend
/// campaign: the per-scenario verdict mix, one record per scheme so
/// `trend_check` gates detection drift per backend independently.
#[must_use]
pub fn backend_trend_record(
    data: &BackendCampaignData,
    summary: &BackendSchemeSummary,
) -> TrendRecord {
    let mut record = TrendRecord::new(
        "backend",
        TREND_BUILD_TAG,
        data.seed,
        backend_params_digest(data, &summary.scheme),
    );
    for mix in &summary.verdict_mix {
        *record
            .verdict_mix
            .entry((mix.scenario.clone(), mix.verdict.clone()))
            .or_insert(0) += mix.count;
    }
    record
}

/// The `"perf"` record of a kernel micro-benchmark run: every `kernel/*`
/// throughput, keyed by kernel name. Wall-clock-bearing by design — the
/// drift gate only ever *warns* on perf movement.
#[must_use]
pub fn perf_record(report: &RuntimeReport) -> TrendRecord {
    let mut record = TrendRecord::new("perf", TREND_BUILD_TAG, 0, Digest64::of(b"kernel_suite"));
    for e in &report.entries {
        if e.name.starts_with("kernel/") {
            record.perf.insert(e.name.clone(), e.trials_per_s);
        }
    }
    record
}

impl_to_json!(DriftCheck {
    kind,
    params,
    seed,
    runs
});

/// The `trend_report.json` artifact: the drift gates evaluated over the
/// verified trend log, stamped with the log format they read.
impl ToJson for DriftReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".to_string(), TREND_FORMAT_VERSION.to_json()),
            ("records".to_string(), self.records.to_json()),
            ("passed".to_string(), self.passed().to_json()),
            ("failures".to_string(), self.failures.to_json()),
            ("warnings".to_string(), self.warnings.to_json()),
            ("checks".to_string(), self.checks.to_json()),
        ])
    }
}

/// Appends `record` to `<dir>/trend_log.jsonl` (verifying the existing
/// chain first), recomputes the drift report over the extended log, and
/// rewrites `<dir>/trend_report.json`.
///
/// # Errors
///
/// I/O errors, `InvalidData` when the existing log fails chain
/// verification — a corrupt log is never extended — or `InvalidInput`
/// for a record the log's reader could not read back.
pub fn append_and_report(dir: &Path, record: TrendRecord) -> io::Result<DriftReport> {
    let log_path = dir.join(TREND_LOG_NAME);
    append_to_log(&log_path, record)?;
    let log = TrendLog::load(&log_path)?;
    let report = compute_drift(&log);
    write_json_in(dir, TREND_REPORT_NAME, &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service_campaign::{build_campaign_service, summarize, ServiceCampaignOptions};

    #[test]
    fn campaign_records_carry_mix_and_group_identity() {
        let opts = ServiceCampaignOptions::tiny(1);
        let service = build_campaign_service(opts.seed).expect("service");
        let data = summarize(&service, &opts, 0);
        let svc = service_record(&data);
        assert_eq!(svc.kind, "service");
        assert_eq!(svc.seed, opts.seed);
        assert_eq!(svc.params, campaign_params_digest(&data).to_hex());
        assert!(svc.perf.is_empty(), "deterministic kinds carry no perf");

        let suite = suite_record(&data, Some(0), Some(123));
        assert_eq!(suite.kind, "suite");
        assert_eq!((suite.flips, suite.ops), (Some(0), Some(123)));
        // Same campaign shape, different kind: separate drift groups.
        assert_eq!(suite.params, svc.params);
    }

    #[test]
    fn perf_records_keep_only_kernel_entries() {
        let mut rt = RuntimeReport::new();
        rt.push("kernel/read_segment", 0.5, 1_000);
        rt.push("experiment/fig04", 3.0, 2);
        let record = perf_record(&rt);
        assert_eq!(record.kind, "perf");
        assert_eq!(record.perf.len(), 1);
        assert!(record.perf.contains_key("kernel/read_segment"));
    }

    #[test]
    fn append_and_report_round_trips_on_disk() {
        let dir =
            std::env::temp_dir().join(format!("flashmark_bench_trend_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_file(dir.join(TREND_LOG_NAME)).ok();

        let opts = ServiceCampaignOptions::tiny(1);
        let service = build_campaign_service(opts.seed).expect("service");
        let data = summarize(&service, &opts, 0);
        let first = append_and_report(&dir, service_record(&data)).unwrap();
        let second = append_and_report(&dir, service_record(&data)).unwrap();
        assert_eq!(first.records, 1);
        assert_eq!(second.records, 2);
        assert!(second.passed(), "{:?}", second.failures);
        assert!(dir.join("trend_report.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
