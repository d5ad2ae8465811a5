//! The `flashbench` command line.
//!
//! ```text
//! flashbench run --workload <name> [--seed <u64>] [--seconds <s>] [--trace [0|1]]
//!                [--quick] [--out <dir>]
//! flashbench agree <setA.jsonl> <setB.jsonl>
//! ```
//!
//! `run` prints each metric as `name value unit n=<samples>`, then the
//! correctness gates, then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. It appends a fuller
//! result line to `<out>/results.jsonl` and, for a traced run, writes the
//! spans to `<out>/<workload>.trace.json`. It exits 1 when a correctness
//! check fails and 2 on a usage or system error.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use flashbench::agree::{agree, load_set};
use flashbench::json::{one_line, Json};
use flashbench::metrics::{report, Catalogue, Metric};
use flashbench::workload::{self, Outcome, RunOptions, Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  flashbench run --workload <inspect_campaign|inspect_tray|enroll_lot> [--seed <u64>]
                 [--seconds <s>] [--trace [0|1]] [--quick] [--out <dir>]
  flashbench agree <setA.jsonl> <setB.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Catalogue::load().and_then(|catalogue| match args.first().map(String::as_str) {
        Some("run") => run(&catalogue, &args[1..]),
        Some("agree") => agree_sets(&catalogue, &args[1..]),
        _ => Err(USAGE.to_string()),
    });
    result.unwrap_or_else(|e| {
        eprintln!("flashbench: {e}");
        ExitCode::from(2)
    })
}

fn next_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value\n{USAGE}"))
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed: not a 64-bit integer: {s:?}"))
}

fn parse_run(catalogue: &Catalogue, args: &[String]) -> Result<(RunOptions, PathBuf), String> {
    let mut workload = None;
    let mut opts = RunOptions {
        workload: Workload::InspectCampaign,
        seed: DEFAULT_SEED,
        seconds: catalogue.run_seconds,
        trace: false,
        quick: false,
    };
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/flashbench");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = next_value(&mut it, "--workload")?;
                workload = Some(
                    Workload::parse(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => opts.seed = parse_seed(next_value(&mut it, "--seed")?)?,
            "--seconds" => {
                let s = next_value(&mut it, "--seconds")?;
                opts.seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or(format!("--seconds: not a positive number: {s:?}"))?;
            }
            "--trace" => {
                opts.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--quick" => opts.quick = true,
            "--out" => out = PathBuf::from(next_value(&mut it, "--out")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    opts.workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    Ok((opts, out))
}

fn run(catalogue: &Catalogue, args: &[String]) -> Result<ExitCode, String> {
    let (opts, out) = parse_run(catalogue, args)?;
    eprintln!(
        "flashbench: {} seed {:#x}, {} s{}{}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" },
        if opts.quick { ", quick" } else { "" },
    );
    let outcome = workload::run(&opts).map_err(|e| e.to_string())?;
    let listed = if opts.trace {
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    let metrics = report(listed, &outcome.metrics)?;

    for m in &metrics {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    for g in &outcome.gates {
        println!(
            "gate {} {}: {}",
            g.name,
            if g.ok { "ok" } else { "FAILED" },
            g.detail
        );
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);

    write_artifacts(&opts, &out, &outcome, &metrics)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let result = obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    println!("{}", one_line(&result));
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.map(|(k, v)| (k.to_string(), v)).to_vec())
}

/// `{name: {value, unit[, samples]}}` for the result object or line.
fn metrics_json(metrics: &[Metric], samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.clone())),
                ];
                if samples {
                    fields.push(("samples".to_string(), Json::UInt(m.samples as u64)));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Appends the full result line to `<out>/results.jsonl` and writes a
/// traced run's spans.
fn write_artifacts(
    opts: &RunOptions,
    out: &Path,
    outcome: &Outcome,
    metrics: &[Metric],
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    if let Some(trace) = &outcome.trace {
        trace.write_file(&out.join(format!("{}.trace.json", opts.workload.name())))?;
    }
    let mut exact: Vec<(String, Json)> = outcome
        .exact
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect();
    exact.push((
        "error_rate".into(),
        Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
    ));
    let gates = outcome
        .gates
        .iter()
        .map(|g| {
            obj([
                ("name", Json::Str(g.name.into())),
                ("ok", Json::Bool(g.ok)),
                ("detail", Json::Str(g.detail.clone())),
            ])
        })
        .collect();
    let line = obj([
        ("workload", Json::Str(opts.workload.name().into())),
        ("seed", Json::Str(opts.seed.to_string())),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("quick", Json::Bool(opts.quick)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", metrics_json(metrics, true)),
        ("exact", Json::Obj(exact)),
        ("gates", Json::Arr(gates)),
    ]);
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("results.jsonl"))?;
    writeln!(file, "{}", one_line(&line))?;
    file.sync_all()
}

fn agree_sets(catalogue: &Catalogue, args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let (ok, report) = agree(
        &load_set(Path::new(a))?,
        &load_set(Path::new(b))?,
        &catalogue.end_to_end,
    );
    print!("{report}");
    println!("{}", if ok { "sets agree" } else { "sets DISAGREE" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
