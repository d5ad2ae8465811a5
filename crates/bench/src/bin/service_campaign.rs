//! The million-request verification-service campaign.
//!
//! Streams 10⁶ verify requests through the channel front end of the
//! sharded verification service and writes the registry summary:
//!
//! * `results/service_campaign.json` — verdict mix per provenance class,
//!   retry-ladder, transient-retry and virtual-latency histograms, reason
//!   breakdown, telemetry gauges/counters, registry root digest.
//!   Byte-identical at any `--threads` count.
//! * `results/service_metrics.prom` — the telemetry snapshot in Prometheus
//!   text exposition format (the `obs_top` bin renders it as a per-shard
//!   table).
//! * `results/trend_log.jsonl` + `results/trend_report.json` — the run is
//!   appended to the cross-run trend log and the drift report recomputed
//!   (the `trend_check` bin gates on it).
//!
//! Throughput goes to stdout only. The 10 k-request shape and its
//! `service_timings.json` belong to `run_all`. The run takes 70–85 s at
//! `--threads 2` on 2 vCPUs; `--threads` is the only flag.
//!
//! ```text
//! cargo run --release -p flashmark-bench --bin service_campaign -- --threads 8
//! ```

use std::process::ExitCode;

use flashmark_bench::output::{results_dir, write_json, Table};
use flashmark_bench::service_campaign::{run_service_campaign, ServiceCampaignOptions};
use flashmark_bench::trend::{append_and_report, service_record};
use flashmark_par::threads_from_env_args;

/// Refuses every argument but `--threads N` / `--threads=N`, so a stale
/// flag fails fast instead of starting a million-request run.
fn reject_other_args() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            args.next();
        } else if !arg.starts_with("--threads=") {
            return Err(format!(
                "unknown argument {arg:?}; usage: service_campaign [--threads N]"
            ));
        }
    }
    Ok(())
}

#[allow(
    clippy::disallowed_types,
    reason = "throughput goes to stdout only, never into an artifact"
)]
fn run() -> Result<(), Box<dyn std::error::Error>> {
    reject_other_args()?;
    let threads = threads_from_env_args()?;
    let opts = ServiceCampaignOptions::full(threads);
    eprintln!(
        "service_campaign: {} requests, seed {}, {} thread(s) ...",
        opts.requests, opts.seed, threads
    );

    let t0 = std::time::Instant::now();
    let mut last_pct = 0u64;
    let run = run_service_campaign(&opts, |done| {
        let pct = done * 100 / opts.requests;
        if pct >= last_pct + 10 || done == opts.requests {
            eprintln!("  {done}/{} ({pct}%)", opts.requests);
            last_pct = pct;
        }
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let data = run.data;

    let mut table = Table::new(["class", "verdict", "count", "per 1M"]);
    for row in &data.verdict_mix {
        table.row([
            row.class.clone(),
            row.verdict.to_string(),
            row.count.to_string(),
            format!("{:.0}", row.per_million),
        ]);
    }
    println!("{}", table.render());
    println!(
        "registry root {} over {} records in {} seals; {} duplicates",
        data.registry_root, data.registry_records, data.registry_seals, data.duplicates
    );

    let path = write_json("service_campaign", &data)?;
    println!("wrote {}", path.display());

    let dir = results_dir();
    let prom = dir.join("service_metrics.prom");
    std::fs::write(&prom, &run.exposition)?;
    println!("wrote {}", prom.display());

    let report = append_and_report(&dir, service_record(&data))?;
    println!(
        "trend: {} run(s) on record; drift gates {} ({} failure(s), {} warning(s))",
        report.records,
        if report.passed() { "passed" } else { "FAILED" },
        report.failures.len(),
        report.warnings.len()
    );
    println!(
        "{:.0} requests/s over {wall_s:.1} s at {threads} thread(s)",
        data.requests as f64 / wall_s.max(1e-9)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("service_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}
