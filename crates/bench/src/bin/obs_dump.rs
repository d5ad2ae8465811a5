//! Replays one trial of the instrumented fault campaign and pretty-prints
//! its event timeline: flash ops, retry decisions, ladder rungs, fault
//! firings, and the verdict, in op order.
//!
//! Flags (values accept both `--flag=N` and `--flag N` forms):
//!
//! - `--seed N` — campaign seed (default 42, matching the committed
//!   `results/obs_report.json`).
//! - `--trial N` — trial index to replay (default 0).
//! - `--full` / `--profile=full` — replay against the full fault grid
//!   (default: smoke).
//!
//! The replay is serial and deterministic: the same seed, trial, and
//! profile always print the same timeline. If the trial overflowed its
//! event ring, the header carries a truncation warning with the evicted
//! event count.

use std::process::ExitCode;

use flashmark_bench::observability::dump_trial;
use flashmark_bench::suite::Profile;

/// The value of `--flag=V` / `--flag V`, parsed; `None` when `arg` is not
/// this flag at all.
fn flag_value<T: std::str::FromStr>(
    arg: &str,
    name: &str,
    args: &mut impl Iterator<Item = String>,
) -> Option<Result<T, String>> {
    let raw = if arg == name {
        match args.next() {
            Some(v) => v,
            None => return Some(Err(format!("missing value after {name}"))),
        }
    } else {
        arg.strip_prefix(name)?.strip_prefix('=')?.to_string()
    };
    Some(raw.parse().map_err(|_| format!("bad {name} value {raw:?}")))
}

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut trial = 0usize;
    let mut profile = Profile::Smoke;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = flag_value(&arg, "--seed", &mut args) {
            match v {
                Ok(s) => seed = s,
                Err(e) => return usage(&e),
            }
        } else if let Some(v) = flag_value(&arg, "--trial", &mut args) {
            match v {
                Ok(t) => trial = t,
                Err(e) => return usage(&e),
            }
        } else if arg == "--full" || arg == "--profile=full" {
            profile = Profile::Full;
        } else if arg == "--smoke" || arg == "--profile=smoke" {
            profile = Profile::Smoke;
        } else {
            return usage(&format!("unknown argument {arg:?}"));
        }
    }
    match dump_trial(seed, trial, profile) {
        Ok(timeline) => {
            print!("{timeline}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_dump failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("{error}");
    eprintln!("usage: obs_dump [--seed N] [--trial N] [--full|--smoke]");
    ExitCode::FAILURE
}
