//! CI perf gate: re-times the segment kernels and fails (exit 1) if any
//! `kernel/*` entry regresses more than 2× against the committed
//! `results/BENCH_runtime.json` baseline, if a baseline kernel is missing
//! from the current run entirely, or if the baseline itself is missing,
//! unreadable or holds no `kernel/*` entry. Each entry is the median of
//! ten samples, taken round-robin across the kernels, so one burst of
//! host load cannot fill a kernel's median.
//!
//! Experiment wall times in the baseline are informational only — they
//! depend on trial counts and machine, so only the kernel entries gate.
//! This is the one writer of the kernel rows: the freshly measured report
//! replaces them in the baseline file (so CI can upload it as an
//! artifact), and a Full `run_all` rewrites only the experiment rows.
//! Re-time the committed baseline from several standalone runs, not one.

use std::process::ExitCode;

use flashmark_bench::microbench::{kernel_suite, RuntimeReport};
use flashmark_bench::output::results_dir;
use flashmark_bench::trend::{append_and_report, perf_record};

/// Allowed slowdown vs the committed baseline before the gate fails.
const BUDGET_FACTOR: f64 = 2.0;

/// Absolute throughput floors (trials/s), independent of the committed
/// baseline, so an advertised kernel win can never silently erode back even
/// if the baseline file is regenerated on a slower run:
/// - `bulk_stress_5k`: 5× the pre-arena figure of the stress-imprint
///   kernel (the SoA/counter-RNG rewrite);
/// - `erase_segment`: above anything the per-cell jitter path reaches
///   (~4 300/s at best), so only the closed-form full erase passes. Both
///   paths write the same bits, so this floor is the only check that full
///   erases take the closed form;
/// - `materialize_segment`: above anything a derive that fills every
///   statics field and sorts the scan order reaches (909–1 392/s in 12
///   runs on a shared 2-vCPU host, where the seven-lane fill read
///   2 122–3 165/s);
/// - `read_segment`, `program_segment` and `partial_erase`: above the
///   best the kernels with an out-of-line inverse-CDF call per draw, a
///   libm `round` per memo lookup and a draw per read bit reach, and
///   below the worst of the call-free kernels (14 runs a side, alternated
///   on a shared 2-vCPU host: 18 044, 11 575 and 3 472/s at best before;
///   88 558, 14 315 and 3 595/s at worst after).
const KERNEL_FLOORS: [(&str, f64); 6] = [
    ("kernel/bulk_stress_5k", 2_032.0),
    ("kernel/erase_segment", 10_000.0),
    ("kernel/materialize_segment", 1_500.0),
    ("kernel/read_segment", 40_000.0),
    ("kernel/program_segment", 12_500.0),
    ("kernel/partial_erase", 3_500.0),
];

fn main() -> ExitCode {
    let current = kernel_suite();
    for e in &current.entries {
        println!("{:<28} {:>12.3} µs/iter", e.name, e.wall_s * 1e6);
    }

    // Append this run's kernel throughputs to the cross-run trend log
    // (perf drift there is advisory; the hard gate below stays the 2×
    // baseline comparison). A corrupt log fails loudly rather than being
    // silently skipped or overwritten.
    match append_and_report(&results_dir(), perf_record(&current)) {
        Ok(report) => println!(
            "trend: {} run(s) on record ({} perf warning(s))",
            report.records,
            report.warnings.len()
        ),
        Err(e) => {
            eprintln!("failed to append to the trend log: {e}");
            return ExitCode::FAILURE;
        }
    }

    // No baseline, no gate: a missing, empty or kernel-less one fails. A
    // fresh results directory starts from a copy of the committed file.
    let baseline_path = results_dir().join("BENCH_runtime.json");
    let baseline = match RuntimeReport::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("no usable baseline at {} ({e})", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    if !baseline
        .entries
        .iter()
        .any(|e| e.name.starts_with("kernel/"))
    {
        eprintln!("baseline {} has no kernel/ row", baseline_path.display());
        return ExitCode::FAILURE;
    }

    // Keep the baseline's experiment/* entries; replace kernel timings
    // with this machine's measurements for the uploaded artifact.
    let mut merged = RuntimeReport::new();
    merged.entries.extend(current.entries.iter().cloned());
    merged.entries.extend(
        baseline
            .entries
            .iter()
            .filter(|e| !e.name.starts_with("kernel/"))
            .cloned(),
    );
    if let Err(e) = merged.write(&baseline_path) {
        eprintln!("failed to write {}: {e}", baseline_path.display());
        return ExitCode::FAILURE;
    }

    // A baseline kernel absent from the current run is a loud failure, not
    // a silent skip — otherwise deleting (or renaming) a benchmark would
    // "fix" its regression.
    let missing = baseline.missing_from(&current, "kernel/");
    for name in &missing {
        eprintln!("MISSING KERNEL {name}: in baseline but not measured by this run");
    }

    // The reverse direction is informational: a freshly added benchmark has
    // no baseline row until a report with it is committed, and that must
    // not block the PR that introduces it.
    for e in &current.entries {
        if e.name.starts_with("kernel/") && baseline.get(&e.name).is_none() {
            eprintln!(
                "WARNING {}: measured ({:.1} trials/s) but absent from {}; \
                 not gated until this run's merged report is committed",
                e.name,
                e.trials_per_s,
                baseline_path.display()
            );
        }
    }

    let regressions = baseline.regressions(&current, BUDGET_FACTOR, "kernel/");
    for r in &regressions {
        eprintln!("PERF REGRESSION {r}");
    }

    // Machine-independent floors on the kernels whose speedups the docs
    // advertise.
    let mut floor_failures = 0usize;
    for (name, floor) in KERNEL_FLOORS {
        match current.get(name) {
            Some(e) if e.trials_per_s >= floor => {}
            Some(e) => {
                eprintln!(
                    "KERNEL FLOOR {name}: {:.1} trials/s below the {floor} floor",
                    e.trials_per_s
                );
                floor_failures += 1;
            }
            None => {
                eprintln!("KERNEL FLOOR {name}: not measured by this run");
                floor_failures += 1;
            }
        }
    }

    if regressions.is_empty() && missing.is_empty() && floor_failures == 0 {
        println!(
            "perf smoke OK: no kernel regressed > {BUDGET_FACTOR}x, none missing, floors held"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
