//! The full experiment suite as a library: every paper artifact, run with
//! a configurable worker count and profile, timed, and rendered into the
//! `results/experiments_report.md` paper-vs-measured report.
//!
//! `run_all` is a thin wrapper over [`run_suite`], the only writer of
//! experiment artifacts, the fault, obs and backend campaigns included.
//! The workspace determinism test runs the [`Profile::Smoke`] suite at 1
//! and 8 threads, asserts byte-identical JSON artifacts, and fails if
//! `results/` holds a file the suite does not write (other than the
//! million-request `service_campaign` bin's outputs, `perf_smoke`, the
//! registry golden test and the lint). Wall-clock timings appear only in
//! the Markdown report, `BENCH_runtime.json`, and the quarantined
//! `service_timings.json`, never in the experiment JSONs, so the
//! determinism guarantee covers every other `*.json` artifact (including
//! `obs_report.json`).
#![allow(
    clippy::disallowed_types,
    reason = "quarantined timing module: step wall times land only in the timing artifacts"
)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use flashmark_core::{characterize_sample, fuse_windows, SweepSpec, NOR_TPEW};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_par::TrialRunner;
use flashmark_physics::{Micros, PhysicsParams};

use crate::backend_campaign::{
    run_backend_campaign, BackendCampaignData, BackendCampaignOptions, Scenario as BackendScenario,
    BACKEND_SCHEMES,
};
use crate::experiments::{
    detector_comparison, ecc_ablation, fig04, fig05, fig09, fig10, fig11, nand_demo, npe_sweep,
    read_majority_ablation, recycled_probe, table1, temperature_sweep, BerSeries,
};
use crate::fault_campaign::{fault_campaign, fault_campaign_trials, FaultCampaignRun};
use crate::impl_to_json;
use crate::microbench::RuntimeReport;
use crate::output::write_json_in;
use crate::paper;
use crate::service_campaign::{
    run_service_campaign, ServiceCampaignData, ServiceCampaignOptions, ServiceTimings,
};
use crate::trend::{append_and_report, backend_trend_record, suite_record};

/// How much work the suite does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper-scale parameters — regenerates the committed `results/`.
    Full,
    /// Reduced trials/sweeps for CI and the determinism test.
    Smoke,
}

impl Profile {
    /// The name artifacts record (`full` / `smoke`).
    #[must_use]
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Smoke => "smoke",
        }
    }
}

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Worker threads for the trial runner (1 = exact legacy serial path).
    pub threads: usize,
    /// Work profile.
    pub profile: Profile,
    /// Directory all artifacts are written into.
    pub results_dir: PathBuf,
}

/// One experiment's execution record.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Experiment name (also the JSON artifact stem).
    pub name: &'static str,
    /// Independent trials the experiment fanned out.
    pub trials: usize,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// The error message, if the experiment failed.
    pub error: Option<String>,
}

/// The suite's result: per-experiment outcomes plus the rendered report.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// One outcome per experiment, in execution order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// The full Markdown report (also written to `experiments_report.md`).
    pub markdown: String,
}

impl SuiteReport {
    /// The experiments that failed.
    #[must_use]
    pub fn failures(&self) -> Vec<&ExperimentOutcome> {
        self.outcomes.iter().filter(|o| o.error.is_some()).collect()
    }
}

/// A JSON-serializable summary of the family-consistency step.
#[derive(Debug)]
struct FamilySummary {
    /// `(seed, t_pew_us, separation, window_lo_us, window_hi_us)` per chip.
    per_chip: Vec<(u64, f64, f64, f64, f64)>,
    recipe_t_pew_us: f64,
    recipe_window: (f64, f64),
    optimum_spread_us: f64,
}
impl_to_json!(FamilySummary {
    per_chip,
    recipe_t_pew_us,
    recipe_window,
    optimum_spread_us
});

/// One profile's row in the `physics_params.json` artifact: the scalar
/// knobs that define simulation semantics, committed so parameter drift
/// (including the erase-distribution quantization grid, which changes every
/// erase-time draw) shows up in review as a diff on a versioned artifact.
#[derive(Debug)]
struct ParamsEntry {
    profile: &'static str,
    vref_v: f64,
    vth_erased_mean_v: f64,
    vth_erased_sigma_v: f64,
    vth_programmed_mean_v: f64,
    vth_programmed_sigma_v: f64,
    read_noise_sigma_v: f64,
    op_jitter_sigma: f64,
    common_jitter_sigma: f64,
    erased_vth_shift_per_kcycle: f64,
    programmed_vth_shift_per_kcycle: f64,
    wear_program: f64,
    wear_erase: f64,
    wear_erase_only: f64,
    erase_activation_energy_ev: f64,
    ref_temp_c: f64,
    endurance_kcycles: f64,
    erase_dist_grid_kcycles: f64,
    prog_full_time_median_us: f64,
    prog_full_time_sigma: f64,
    prog_speedup_per_kcycle: f64,
}
impl_to_json!(ParamsEntry {
    profile,
    vref_v,
    vth_erased_mean_v,
    vth_erased_sigma_v,
    vth_programmed_mean_v,
    vth_programmed_sigma_v,
    read_noise_sigma_v,
    op_jitter_sigma,
    common_jitter_sigma,
    erased_vth_shift_per_kcycle,
    programmed_vth_shift_per_kcycle,
    wear_program,
    wear_erase,
    wear_erase_only,
    erase_activation_energy_ev,
    ref_temp_c,
    endurance_kcycles,
    erase_dist_grid_kcycles,
    prog_full_time_median_us,
    prog_full_time_sigma,
    prog_speedup_per_kcycle
});

/// The `physics_params.json` artifact: every built-in parameter profile.
#[derive(Debug)]
struct ParamsReport {
    profiles: Vec<ParamsEntry>,
}
impl_to_json!(ParamsReport { profiles });

fn params_entry(profile: &'static str, p: &PhysicsParams) -> ParamsEntry {
    ParamsEntry {
        profile,
        vref_v: p.vref.get(),
        vth_erased_mean_v: p.vth_erased.mean,
        vth_erased_sigma_v: p.vth_erased.sigma,
        vth_programmed_mean_v: p.vth_programmed.mean,
        vth_programmed_sigma_v: p.vth_programmed.sigma,
        read_noise_sigma_v: p.read_noise_sigma,
        op_jitter_sigma: p.op_jitter_sigma,
        common_jitter_sigma: p.common_jitter_sigma,
        erased_vth_shift_per_kcycle: p.erased_vth_shift_per_kcycle,
        programmed_vth_shift_per_kcycle: p.programmed_vth_shift_per_kcycle,
        wear_program: p.wear.program,
        wear_erase: p.wear.erase,
        wear_erase_only: p.wear.erase_only,
        erase_activation_energy_ev: p.erase_activation_energy_ev,
        ref_temp_c: p.ref_temp_c,
        endurance_kcycles: p.endurance_kcycles,
        erase_dist_grid_kcycles: p.erase_dist_grid_kcycles,
        prog_full_time_median_us: p.prog_full_time_us.median,
        prog_full_time_sigma: p.prog_full_time_us.sigma,
        prog_speedup_per_kcycle: p.prog_speedup_per_kcycle,
    }
}

fn params_report() -> ParamsReport {
    ParamsReport {
        profiles: vec![
            params_entry("msp430_like", &PhysicsParams::msp430_like()),
            params_entry("generic_nor", &PhysicsParams::generic_nor()),
            params_entry("fast_standalone_nor", &PhysicsParams::fast_standalone_nor()),
        ],
    }
}

type StepResult = Result<(), Box<dyn std::error::Error>>;

#[allow(
    clippy::needless_pass_by_value,
    reason = "callers hand over freshly formatted strings"
)]
fn row(md: &mut String, artifact: &str, metric: &str, paper: String, measured: String) {
    let _ = writeln!(md, "| {artifact} | {metric} | {paper} | {measured} |");
}

/// Exact f64 identity for sweep keys that are carried through unchanged
/// (stress levels in `kcycles`), where bit equality is the correct match.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn step<F>(
    outcomes: &mut Vec<ExperimentOutcome>,
    md: &mut String,
    name: &'static str,
    trials: usize,
    f: F,
) where
    F: FnOnce(&mut String) -> StepResult,
{
    // flashmark-lint: allow(print-discipline) -- suite progress ticker on stderr; artifacts stay deterministic on stdout/disk
    eprintln!("[{:>2}] {name} ...", outcomes.len() + 1);
    let t0 = Instant::now();
    let error = f(md).err().map(|e| e.to_string());
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(e) = &error {
        // flashmark-lint: allow(print-discipline) -- failure surfaced live on stderr as well as in the outcome record
        eprintln!("     {name} FAILED: {e}");
    }
    outcomes.push(ExperimentOutcome {
        name,
        trials,
        wall_s,
        error,
    });
}

/// Runs every experiment of the profile and writes all artifacts
/// (`*.json`, `experiments_report.md`, and — for [`Profile::Full`] — the
/// `experiment/*` rows of `BENCH_runtime.json`, keeping the `kernel/*`
/// rows that `perf_smoke` wrote there) into the results directory.
///
/// Per-experiment errors are captured in the outcomes, not propagated, so
/// one failing experiment does not mask the rest.
///
/// # Errors
///
/// I/O errors writing the report files.
#[allow(
    clippy::too_many_lines,
    reason = "one flat list of suite steps, in artifact order"
)]
pub fn run_suite(opts: &SuiteOptions) -> std::io::Result<SuiteReport> {
    let dir = &opts.results_dir;
    fs::create_dir_all(dir)?;
    let smoke = opts.profile == Profile::Smoke;
    let runner = |seed: u64| TrialRunner::with_threads(seed, opts.threads);
    let mut md = String::from(
        "# Flashmark reproduction — paper vs measured\n\n\
         Generated by `cargo run --release -p flashmark-bench --bin run_all`.\n\n\
         | artifact | metric | paper | measured |\n|---|---|---|---|\n",
    );
    let mut outcomes = Vec::new();

    // Fig. 4.
    let levels4: Vec<f64> = if smoke {
        vec![0.0, 20.0]
    } else {
        paper::FIG4_ALL_ERASED_US.iter().map(|&(k, _)| k).collect()
    };
    step(&mut outcomes, &mut md, "fig04", levels4.len(), |md| {
        let sweep4 = if smoke {
            SweepSpec::new(Micros::new(0.0), Micros::new(60.0), Micros::new(12.0))?
        } else {
            SweepSpec::fig4()
        };
        let f4 = fig04(
            &runner(0xF1604),
            &levels4,
            &sweep4,
            if smoke { 1 } else { 3 },
        )?;
        write_json_in(dir, "fig04", &f4)?;
        for (c, &(k, p)) in f4.curves.iter().zip(paper::FIG4_ALL_ERASED_US) {
            row(
                md,
                "Fig. 4",
                &format!("all cells erased @{k}K (µs)"),
                format!("{p:.0}"),
                format!("{:.0}", c.all_erased_us),
            );
        }
        if let Some(onset) = f4.curves[0].onset_us {
            row(
                md,
                "Fig. 4",
                "fresh erase onset (µs)",
                format!("{:.0}", paper::FIG4_FRESH_ONSET_US),
                format!("{onset:.0}"),
            );
        }
        Ok(())
    });

    // Fig. 5.
    step(&mut outcomes, &mut md, "fig05", 1, |md| {
        let f5 = fig05(&runner(0xF1605), 50.0, Micros::new(paper::FIG5_T_PEW_US))?;
        write_json_in(dir, "fig05", &f5)?;
        row(
            md,
            "Fig. 5",
            "bits distinguishing 0K vs 50K @23 µs",
            format!("{}/4096", paper::FIG5_DISTINGUISHABLE),
            format!(
                "{}/{} (optimum {} @{:.0} µs)",
                f5.distinguishable, f5.total, f5.best_distinguishable, f5.best_t_pew_us
            ),
        );
        Ok(())
    });

    // Fig. 9.
    let levels9: Vec<f64> = if smoke {
        vec![0.0, 40.0]
    } else {
        vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
    };
    step(&mut outcomes, &mut md, "fig09", levels9.len(), |md| {
        let sweep9 = if smoke {
            SweepSpec::new(Micros::new(20.0), Micros::new(44.0), Micros::new(6.0))?
        } else {
            SweepSpec::new(Micros::new(2.0), Micros::new(80.0), Micros::new(2.0))?
        };
        let f9 = fig09(&runner(0xF1609), &levels9, &sweep9)?;
        write_json_in(dir, "fig09", &f9)?;
        for s in &f9.series {
            let m = s.minimum().map_or(f64::NAN, |(_, b)| b * 100.0);
            let p = paper::FIG9_MIN_BER_PCT
                .iter()
                .find(|&&(k, _)| same(k, s.kcycles))
                .map_or_else(|| "—".to_string(), |&(_, b)| format!("{b}"));
            row(
                md,
                "Fig. 9",
                &format!("min single-copy BER @{}K (%)", s.kcycles),
                p,
                format!("{m:.1}"),
            );
        }
        Ok(())
    });

    // Fig. 10.
    step(&mut outcomes, &mut md, "fig10", 1, |md| {
        let f10 = fig10(
            &runner(0xF1610),
            paper::FIG10_BITS,
            paper::FIG10_REPLICAS,
            paper::FIG10_STRESS_KCYCLES,
            Micros::new(paper::FIG10_T_PEW_US),
        )?;
        write_json_in(dir, "fig10", &f10)?;
        row(
            md,
            "Fig. 10",
            "majority-voted errors (30 bits, 7 replicas, 50K)",
            "0".into(),
            format!("{}", f10.recovered_errors),
        );
        row(
            md,
            "Fig. 10",
            "error direction (bad→good : good→bad)",
            "bad→good dominates".into(),
            format!("{} : {}", f10.bad_to_good, f10.good_to_bad),
        );
        Ok(())
    });

    // Fig. 11.
    let (levels11, reps11): (Vec<f64>, Vec<usize>) = if smoke {
        (vec![40.0], vec![3])
    } else {
        (vec![40.0, 50.0, 60.0, 70.0], vec![3, 5, 7])
    };
    let trials11 = levels11.len() * reps11.len();
    step(&mut outcomes, &mut md, "fig11", trials11, |md| {
        let sweep11 = if smoke {
            SweepSpec::new(Micros::new(24.0), Micros::new(36.0), Micros::new(6.0))?
        } else {
            SweepSpec::new(Micros::new(20.0), Micros::new(56.0), Micros::new(2.0))?
        };
        let f11 = fig11(&runner(0xF1611), &levels11, &reps11, &sweep11)?;
        write_json_in(dir, "fig11", &f11)?;
        for &(r, p) in paper::FIG11_40K_MIN_BER_PCT {
            let m = f11
                .series
                .iter()
                .find(|s| same(s.kcycles, 40.0) && s.replicas == r)
                .and_then(BerSeries::minimum);
            if let Some((_, b)) = m {
                row(
                    md,
                    "Fig. 11",
                    &format!("min BER @40K, {r} replicas (%)"),
                    format!("{p}"),
                    format!("{:.2}", b * 100.0),
                );
            }
        }
        if let Some((_, b)) = f11
            .series
            .iter()
            .find(|s| same(s.kcycles, 70.0) && s.replicas == paper::FIG11_70K_ZERO_BER_REPLICAS)
            .and_then(BerSeries::minimum)
        {
            row(
                md,
                "Fig. 11",
                "min BER @70K, 3 replicas (%)",
                "0 (full recovery)".into(),
                format!("{:.2}", b * 100.0),
            );
        }
        Ok(())
    });

    // §V timing.
    let cycles: Vec<u64> = if smoke {
        vec![1_000]
    } else {
        vec![40_000, 70_000]
    };
    step(
        &mut outcomes,
        &mut md,
        "table1",
        cycles.len() * 2 + 1,
        |md| {
            let t1 = table1(&runner(0xF1671), &cycles)?;
            write_json_in(dir, "table1", &t1)?;
            for &(n, base, accel, _) in &t1.imprint {
                let (pb, pa) = match n {
                    40_000 => (
                        Some(paper::IMPRINT_BASELINE_40K_S),
                        Some(paper::IMPRINT_ACCEL_40K_S),
                    ),
                    70_000 => (
                        Some(paper::IMPRINT_BASELINE_70K_S),
                        Some(paper::IMPRINT_ACCEL_70K_S),
                    ),
                    _ => (None, None),
                };
                let k = n / 1000;
                row(
                    md,
                    "§V timing",
                    &format!("baseline imprint @{k}K (s)"),
                    pb.map_or_else(|| "—".into(), |p| format!("{p}")),
                    format!("{base:.0}"),
                );
                row(
                    md,
                    "§V timing",
                    &format!("accelerated imprint @{k}K (s)"),
                    pa.map_or_else(|| "—".into(), |p| format!("{p}")),
                    format!("{accel:.0}"),
                );
            }
            row(
                md,
                "§V timing",
                "extract with replicas (ms)",
                format!("{} (incl. host I/O)", paper::EXTRACT_MS),
                format!("{:.0} (on-chip only)", t1.extract_s * 1000.0),
            );
            Ok(())
        },
    );

    // §V imprint-effort trade-off. This step and the temperature, detector
    // and NAND steps take well under a second, so they run at full size in
    // both profiles.
    let npe_levels = [20_000u64, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000];
    let npe_chips = 6;
    step(
        &mut outcomes,
        &mut md,
        "npe_sweep",
        npe_levels.len() * npe_chips,
        |md| {
            let npe = npe_sweep(&runner(0x59EE9), &npe_levels, npe_chips)?;
            write_json_in(dir, "npe_sweep", &npe)?;
            let verified: Vec<String> = npe
                .rows
                .iter()
                .map(|&(n, _, passed, _)| format!("{}K {passed}", n / 1000))
                .collect();
            row(
                md,
                "§V trade-off",
                &format!("chips verifying genuine per NPE (of {npe_chips})"),
                "conflicting requirements".into(),
                verified.join(" · "),
            );
            Ok(())
        },
    );

    // Ablations.
    step(&mut outcomes, &mut md, "ecc_ablation", 3, |md| {
        let ecc = ecc_ablation(&runner(0xECC), 50.0, Micros::new(30.0))?;
        write_json_in(dir, "ecc_ablation", &ecc)?;
        for (name, bits, ber, _) in &ecc.rows {
            row(
                md,
                "ablation",
                &format!("{name} post-decode BER ({bits} cells) (%)"),
                "—".into(),
                format!("{:.2}", ber * 100.0),
            );
        }
        Ok(())
    });

    let read_counts: Vec<usize> = if smoke { vec![1, 3] } else { vec![1, 3, 5] };
    step(
        &mut outcomes,
        &mut md,
        "read_majority",
        read_counts.len(),
        |md| {
            let sweep = if smoke {
                SweepSpec::new(Micros::new(24.0), Micros::new(44.0), Micros::new(10.0))?
            } else {
                SweepSpec::new(Micros::new(24.0), Micros::new(44.0), Micros::new(2.0))?
            };
            let rm = read_majority_ablation(&runner(0xECC2), 40.0, &sweep, &read_counts)?;
            write_json_in(dir, "read_majority", &rm)?;
            for &(n, ber) in &rm.rows {
                row(
                    md,
                    "ablation",
                    &format!("min BER @40K with N={n} reads (%)"),
                    "—".into(),
                    format!("{:.2}", ber * 100.0),
                );
            }
            Ok(())
        },
    );

    let temps = [-20.0, 0.0, 25.0, 55.0, 85.0];
    step(
        &mut outcomes,
        &mut md,
        "temperature_sweep",
        temps.len(),
        |md| {
            let sweep = SweepSpec::new(Micros::new(10.0), Micros::new(60.0), Micros::new(2.0))?;
            let ts = temperature_sweep(&runner(0x7E3), &temps, &sweep)?;
            write_json_in(dir, "temperature_sweep", &ts)?;
            let best: Vec<String> = ts.rows.iter().map(|&(_, t, _)| format!("{t:.0}")).collect();
            row(
                md,
                "ablation",
                "best tPEW @−20/0/25/55/85 °C (µs)",
                "calibrated at 25 °C".into(),
                best.join(" / "),
            );
            Ok(())
        },
    );

    // Recycled probe.
    let prior: Vec<f64> = if smoke {
        vec![0.0, 30.0]
    } else {
        vec![0.0, 10.0, 20.0, 50.0, 100.0]
    };
    step(
        &mut outcomes,
        &mut md,
        "recycled_probe",
        prior.len(),
        |md| {
            let rp = recycled_probe(&runner(0xF1612), &prior)?;
            write_json_in(dir, "recycled_probe", &rp)?;
            for &(k, frac) in &rp.rows {
                row(
                    md,
                    "recycling",
                    &format!("programmed fraction after probe @{k}K prior use"),
                    "—".into(),
                    format!("{frac:.2}"),
                );
            }
            Ok(())
        },
    );

    let prior_wear = [0.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];
    step(&mut outcomes, &mut md, "detector_comparison", 1, |md| {
        let dc = detector_comparison(0xDE7E, &prior_wear)?;
        write_json_in(dir, "detector_comparison", &dc)?;
        let first_flagged = |flags: fn(&(f64, f64, bool, f64, bool)) -> bool| {
            dc.rows
                .iter()
                .find(|r| flags(r))
                .map_or_else(|| "none".to_string(), |r| format!("{:.0}", r.0))
        };
        row(
            md,
            "recycling",
            "lowest prior wear flagged, partial erase / partial program (K)",
            "partial erase chosen (§III)".into(),
            format!("{} / {}", first_flagged(|r| r.2), first_flagged(|r| r.4)),
        );
        Ok(())
    });

    // Family consistency: per-chip characterization is one trial per
    // sample chip (chip seeds are fixed, not trial-derived, so the family
    // is the same family at any thread count).
    let family_chips: u64 = if smoke { 2 } else { 4 };
    step(
        &mut outcomes,
        &mut md,
        "family_consistency",
        family_chips as usize,
        |md| {
            let seeds: Vec<u64> = (0..family_chips).map(|i| 0xFB01 + i * 7).collect();
            let (sweep, reads) = if smoke {
                (
                    SweepSpec::new(Micros::new(14.0), Micros::new(50.0), Micros::new(4.0))?,
                    1,
                )
            } else {
                (
                    SweepSpec::new(Micros::new(14.0), Micros::new(50.0), Micros::new(2.0))?,
                    3,
                )
            };
            let windows = runner(0xFB01).run(seeds.len(), |trial| {
                let mut chip = FlashController::new(
                    PhysicsParams::msp430_like(),
                    FlashGeometry::single_bank(4),
                    FlashTimings::msp430(),
                    seeds[trial.index],
                );
                characterize_sample(
                    &mut chip,
                    SegmentAddr::new(0),
                    SegmentAddr::new(1),
                    50.0,
                    &sweep,
                    260,
                    reads,
                )
            });
            let windows = windows.into_iter().collect::<Result<Vec<_>, _>>()?;
            let fam = fuse_windows(windows, 7, reads)?;
            let summary = FamilySummary {
                per_chip: seeds
                    .iter()
                    .zip(&fam.per_chip)
                    .map(|(&s, w)| {
                        (
                            s,
                            w.t_pew.get(),
                            w.separation(),
                            w.window_lo.get(),
                            w.window_hi.get(),
                        )
                    })
                    .collect(),
                recipe_t_pew_us: fam.recipe.t_pew.get(),
                recipe_window: (fam.recipe.window_lo.get(), fam.recipe.window_hi.get()),
                optimum_spread_us: fam.optimum_spread().get(),
            };
            write_json_in(dir, "family_consistency", &summary)?;
            row(
                md,
                "family",
                "per-chip optimum spread (µs)",
                "consistent across samples".into(),
                format!(
                    "{:.0} (recipe tPEW {:.0} µs)",
                    fam.optimum_spread().get(),
                    fam.recipe.t_pew.get()
                ),
            );
            Ok(())
        },
    );

    // Flashmark on NAND (conclusion's applicability claim).
    step(&mut outcomes, &mut md, "nand_demo", 1, |md| {
        let nd = nand_demo(0x0A0, &[40_000, 70_000])?;
        write_json_in(dir, "nand_demo", &nd)?;
        if let Some((_, _, t, ber)) = nd.rows.iter().find(|r| r.0 == "SLC NAND" && r.1 == 70_000) {
            row(
                md,
                "NAND",
                "imprint @70K (s) / post-vote BER (%)",
                "applicable to NAND (conclusion)".into(),
                format!("{t:.0} s / {:.2} %", ber * 100.0),
            );
        }
        Ok(())
    });

    // Trend-record ingredients the later steps capture: the fault
    // campaign's flip and op counts, the service campaign's deterministic
    // summary, and the backend campaign's per-scheme verdict mix.
    let mut fault_flips: Option<u64> = None;
    let mut obs_ops: Option<u64> = None;
    let mut service_data: Option<ServiceCampaignData> = None;
    let mut backend_data: Option<BackendCampaignData> = None;

    // Differential fault-injection campaign, instrumented: one run of the
    // grid yields both fault_campaign.json and the obs aggregate
    // obs_report.json. The step fails on any reject→accept flip or wear
    // decrease.
    step(
        &mut outcomes,
        &mut md,
        "fault_campaign",
        fault_campaign_trials(opts.profile),
        |md| {
            let FaultCampaignRun { data: fc, obs } = fault_campaign(&runner(42), opts.profile)?;
            fault_flips = Some(fc.reject_to_accept_total as u64);
            obs_ops = Some(obs.total_ops);
            write_json_in(dir, "fault_campaign", &fc)?;
            write_json_in(dir, "obs_report", &obs)?;
            row(
                md,
                "fault injection",
                "reject→accept flips across fault grid",
                "0 (invariant)".into(),
                format!("{}", fc.reject_to_accept_total),
            );
            row(
                md,
                "fault injection",
                "wear decreases under injected faults",
                "0 (invariant)".into(),
                format!("{}", fc.wear_decrease_total),
            );
            row(
                md,
                "observability",
                "events traced across fault campaign",
                "—".into(),
                format!("{} ({} trials)", obs.total_ops, obs.trials),
            );
            row(
                md,
                "observability",
                "fault firings / sanitizer violations",
                "—".into(),
                format!(
                    "{} / {}",
                    obs.group_total("fault"),
                    obs.group_total("sanitizer")
                ),
            );
            row(
                md,
                "observability",
                "verdicts genuine : counterfeit : inconclusive",
                "—".into(),
                format!(
                    "{} : {} : {}",
                    obs.counter("verdict", "genuine"),
                    obs.counter("verdict", "counterfeit"),
                    obs.counter("verdict", "inconclusive"),
                ),
            );
            row(
                md,
                "observability",
                "events dropped by trial ring buffers",
                "0".into(),
                format!("{}", obs.events_dropped),
            );
            if !fc.invariants_hold() {
                return Err("fault campaign invariant violated".into());
            }
            Ok(())
        },
    );

    // Verification-service campaign at 10 k requests (1 k on Smoke). The
    // deterministic summary goes to service_campaign_smoke.json, and wall
    // clock is quarantined into service_timings.json. The committed
    // million-request service_campaign.json comes from the
    // `service_campaign` bin, not the suite.
    let svc_opts = if smoke {
        ServiceCampaignOptions::tiny(opts.threads)
    } else {
        ServiceCampaignOptions::smoke(opts.threads)
    };
    step(
        &mut outcomes,
        &mut md,
        "service_campaign_smoke",
        svc_opts.requests as usize,
        |md| {
            let t0 = Instant::now();
            let run = run_service_campaign(&svc_opts, |_| {})?;
            let wall_s = t0.elapsed().as_secs_f64();
            let data = run.data;
            write_json_in(dir, "service_campaign_smoke", &data)?;
            fs::write(dir.join("service_metrics_smoke.prom"), &run.exposition)?;
            let timings = ServiceTimings {
                threads: opts.threads,
                requests: data.requests,
                wall_s,
                requests_per_s: data.requests as f64 / wall_s.max(1e-9),
            };
            write_json_in(dir, "service_timings", &timings)?;
            let accepts: u64 = data
                .verdict_mix
                .iter()
                .filter(|r| r.verdict == "accept")
                .map(|r| r.count)
                .sum();
            row(
                md,
                "service",
                "requests verified / accepted",
                "—".into(),
                format!("{} / {accepts}", data.requests),
            );
            row(
                md,
                "service",
                "registry root (records / seals)",
                "—".into(),
                format!(
                    "{} ({} / {})",
                    data.registry_root, data.registry_records, data.registry_seals
                ),
            );
            if data.duplicates != 0 {
                return Err("service campaign saw duplicate request ids".into());
            }
            service_data = Some(data);
            Ok(())
        },
    );

    // Differential backend campaign: the same scenario grid through every
    // `WatermarkScheme` backend (NOR tPEW / NAND PUF / ReRAM forming),
    // written to backend_campaign.json. The step fails when a scenario
    // misses its ground-truth verdict.
    let be_opts = if smoke {
        BackendCampaignOptions::tiny(opts.threads)
    } else {
        BackendCampaignOptions::full(opts.threads)
    };
    step(
        &mut outcomes,
        &mut md,
        "backend_campaign",
        be_opts.trials * BackendScenario::ALL.len() * BACKEND_SCHEMES,
        |md| {
            let data = backend_data.insert(run_backend_campaign(&be_opts)?);
            write_json_in(dir, "backend_campaign", data)?;
            for s in &data.schemes {
                row(
                    md,
                    "backends",
                    &format!("{} ground-truth verdicts", s.scheme),
                    "all scenarios".into(),
                    format!("{}/{}", s.expected_matches, s.trials),
                );
                row(
                    md,
                    "backends",
                    &format!("{} forgery margin (mismatch)", s.scheme),
                    "counterfeit ≫ genuine".into(),
                    format!(
                        "{:.3} − {:.3} = {:.3}",
                        s.mean_counterfeit_mismatch, s.mean_genuine_mismatch, s.forgery_margin
                    ),
                );
                row(
                    md,
                    "backends",
                    &format!("{} imprint cost", s.scheme),
                    if s.imprints {
                        "wear-based".into()
                    } else {
                        "free (intrinsic)".into()
                    },
                    format!("{} cycles / {:.0} s", s.imprint_cycles, s.imprint_sim_s),
                );
            }
            if let Some(nor) = data.schemes.iter().find(|s| s.scheme == NOR_TPEW.name) {
                row(
                    md,
                    "backends",
                    "NOR scheme facade vs legacy pipeline agreement",
                    "identical verdicts".into(),
                    format!("{}/{}", nor.legacy_matches.unwrap_or(0), nor.trials),
                );
            }
            for s in &data.schemes {
                if s.expected_matches != s.trials {
                    return Err(format!(
                        "{}: a scenario missed its ground-truth verdict",
                        s.scheme
                    )
                    .into());
                }
            }
            Ok(())
        },
    );

    // Per-experiment wall times. These are environment-dependent and
    // deliberately confined to the Markdown report — the JSON artifacts
    // stay bit-identical across thread counts and machines.
    md.push_str("\n## Runtime\n\n");
    let _ = writeln!(
        md,
        "{} worker thread(s), {:?} profile.\n",
        opts.threads, opts.profile
    );
    md.push_str("| experiment | trials | wall (s) | status |\n|---|---|---|---|\n");
    for o in &outcomes {
        let _ = writeln!(
            md,
            "| {} | {} | {:.2} | {} |",
            o.name,
            o.trials,
            o.wall_s,
            o.error.as_deref().unwrap_or("ok"),
        );
    }

    // The committed parameter record (deterministic: written on every
    // profile so the artifact can never go stale against the code).
    write_json_in(dir, "physics_params", &params_report())?;

    // Append this run to the cross-run trend log and regenerate the drift
    // report: the suite record, then one backend record per scheme, so
    // `trend_check` gates each backend's detection drift on its own.
    // Deterministic inputs only (verdict mix, flips, op counts), so the
    // appended lines — and the report — are byte-identical at any thread
    // count. The suite record is skipped when the service step failed: a
    // partial record would start a non-comparable trend group.
    let mut records: Vec<_> = service_data
        .iter()
        .map(|svc| suite_record(svc, fault_flips, obs_ops))
        .collect();
    if let Some(be) = &backend_data {
        records.extend(be.schemes.iter().map(|s| backend_trend_record(be, s)));
    }
    let mut trend = None;
    for record in records {
        trend = Some(append_and_report(dir, record)?);
    }
    if let Some(report) = trend {
        let _ = writeln!(
            md,
            "\n## Trend\n\n{} run(s) on record; drift gates {} \
             ({} failure(s), {} warning(s)).",
            report.records,
            if report.passed() { "passed" } else { "FAILED" },
            report.failures.len(),
            report.warnings.len()
        );
    }

    // The runtime baseline's experiment rows: per-experiment wall times.
    // Its kernel rows belong to `perf_smoke`, which times them in a process
    // of their own; timed here, after every experiment, they read 1.3–1.5×
    // slow and would loosen its 2× gate. So the suite keeps whatever kernel
    // rows the file holds. Smoke runs skip the file so reduced-profile
    // timings never overwrite the committed baseline.
    if opts.profile == Profile::Full {
        let path = dir.join("BENCH_runtime.json");
        let mut rt = RuntimeReport::load_kernel_rows(&path)?;
        for o in &outcomes {
            rt.push(&format!("experiment/{}", o.name), o.wall_s, o.trials.max(1));
        }
        rt.write(&path)?;
    }

    fs::write(dir.join("experiments_report.md"), &md)?;
    Ok(SuiteReport {
        outcomes,
        markdown: md,
    })
}
