//! Scheme-generic differential campaign across watermark backends.
//!
//! Runs the same four provenance scenarios — genuine, rejected die,
//! blank/foreign die, and a digital clone — through every
//! [`WatermarkScheme`] backend (NOR tPEW wear, intrinsic NAND PUF, ReRAM
//! forming stress) and compares what the paper's abstraction actually
//! buys per technology: bit error rate against the enrollment, imprint
//! cost (stress cycles and simulated manufacturing time), and the
//! forgery asymmetry (how far a data-level clone lands from the genuine
//! mismatch distribution).
//!
//! Every trial is a pure function of `(campaign seed, trial index)`:
//! chips are seeded from the trial seed, no wall clock enters the
//! artifact, and rows merge back in trial order — so
//! `results/backend_campaign.json` is byte-identical at any `--threads`
//! count. Each scheme's rows are additionally sealed into a provenance
//! [`Registry`] (tagged with the scheme name) whose root digest lands in
//! the artifact, and the suite appends one trend record per scheme so
//! `trend_check` gates cross-run drift per backend.
//!
//! The NOR rows double as the API-redesign no-drift proof: every NOR
//! trial re-runs the pre-redesign concrete pipeline
//! ([`Imprinter`]/[`Verifier`]) on identically-seeded chips and records
//! whether the verdicts matched ([`BackendRow::legacy_match`]).

use flashmark_core::{
    provision, CounterfeitReason, FlashmarkConfig, Imprinter, SchemeError, TestStatus, TpewParams,
    Verdict, Verifier, WatermarkRecord, WatermarkScheme, NOR_TPEW,
};
use flashmark_nand::puf::{CELLS_PER_BIT, ENROLL_ROUNDS, READS, T_PP};
use flashmark_nand::{BlockAddr, NandChip, NandGeometry, NandPuf, NandPufParams};
use flashmark_nor::interface::FlashInterface;
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, NorError, SegmentAddr};
use flashmark_physics::rng::mix2;
use flashmark_physics::{Micros, PhysicsParams};
use flashmark_registry::{Record, RecordVerdict, Registry, RegistryOptions};
use flashmark_reram::{reram_like, reram_timings, RERAM_FORMING};
use flashmark_serve::map_verdict;

use crate::impl_to_json;
use crate::json::{Json, ToJson};

/// Manufacturer ID every backend's enrollment carries.
pub const BACKEND_MANUFACTURER: u16 = 0x7C02;

/// Commit tag stamped into the per-scheme registry records.
pub const BACKEND_COMMIT: &str = concat!("flashmark-bench/", env!("CARGO_PKG_VERSION"));

/// Number of schemes the campaign runs.
pub const BACKEND_SCHEMES: usize = 3;

/// The NOR operating point: the paper's 60 K stress with 7-replica
/// majority voting at the 28 µs extraction window — the point every
/// pre-redesign campaign ran at, so the NOR rows stay comparable (and
/// `legacy_match` meaningful) across the API redesign.
///
/// # Panics
///
/// Never — the knobs are statically valid.
#[must_use]
pub fn backend_config() -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(60_000)
        .replicas(7)
        .t_pew(Micros::new(28.0))
        .build()
        .expect("valid backend config")
}

/// The ReRAM operating point. Forming-voltage stress is deposited in a
/// **single** pass whatever the level, so unlike NOR — where every extra
/// stress cycle costs manufacturing seconds — ReRAM cranks the stress
/// (90 K equivalent cycles) and the replica count (21 fits the segment
/// with room to spare) for free. That headroom is what absorbs the
/// 2–3× wider filament-geometry variation of the ReRAM population: at
/// the NOR point (60 K / 7 replicas) roughly one genuine ReRAM die in
/// twelve fails to decode, at this point fewer than one in five hundred.
///
/// # Panics
///
/// Never — the knobs are statically valid.
#[must_use]
pub fn reram_config() -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(90_000)
        .replicas(21)
        .t_pew(Micros::new(28.0))
        .build()
        .expect("valid reram config")
}

/// The four provenance scenarios every backend runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Enroll + imprint + verify the same die.
    Genuine,
    /// Genuine flow, but the enrollment record carries a `Reject` test
    /// status — the die-sort reject a counterfeiter would re-mark.
    RejectedDie,
    /// Verify a different (blank/foreign) die against the enrollment.
    Blank,
    /// A digital clone: copy every readable bit from the genuine die onto
    /// a blank die, then verify the clone. Wear (and process variation)
    /// cannot be copied through the digital interface — the asymmetry the
    /// paper's detection rests on.
    Cloned,
}

impl Scenario {
    /// Campaign order.
    pub const ALL: [Self; 4] = [Self::Genuine, Self::RejectedDie, Self::Blank, Self::Cloned];

    /// Stable lowercase label (the registry record's `class`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Genuine => "genuine",
            Self::RejectedDie => "rejected_die",
            Self::Blank => "blank",
            Self::Cloned => "cloned",
        }
    }

    /// Whether `verdict` is the outcome the scenario's ground truth calls
    /// for.
    #[must_use]
    pub fn expects(self, verdict: &Verdict) -> bool {
        match self {
            Self::Genuine => *verdict == Verdict::Genuine,
            Self::RejectedDie => *verdict == Verdict::Counterfeit(CounterfeitReason::RejectedDie),
            Self::Blank | Self::Cloned => matches!(verdict, Verdict::Counterfeit(_)),
        }
    }
}

/// Campaign shape.
#[derive(Debug, Clone, Copy)]
pub struct BackendCampaignOptions {
    /// Seed every trial derives from.
    pub seed: u64,
    /// Trials per (scheme, scenario) cell.
    pub trials: usize,
    /// Worker threads for the trial fan-out.
    pub threads: usize,
}

impl BackendCampaignOptions {
    /// The committed full campaign (`results/backend_campaign.json`).
    #[must_use]
    pub fn full(threads: usize) -> Self {
        Self {
            seed: 0xBACD,
            trials: 8,
            threads,
        }
    }

    /// The reduced shape the Smoke suite profile runs.
    #[must_use]
    pub fn tiny(threads: usize) -> Self {
        Self {
            seed: 0xBACD,
            trials: 1,
            threads,
        }
    }
}

/// One (scheme, scenario, trial) outcome row.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Scheme name ([`WatermarkScheme::name`]).
    pub scheme: String,
    /// Scenario label.
    pub scenario: String,
    /// Trial index within the (scheme, scenario) cell.
    pub trial: u64,
    /// Registry verdict class (`accept` / `reject` / `inconclusive`).
    pub verdict: RecordVerdict,
    /// Stable reason label (empty for accepts).
    pub reason: String,
    /// Resolution strategy label from the scheme verification.
    pub resolution: String,
    /// Mismatch against the enrollment (BER / fuzzy distance), when the
    /// scheme could compare evidence.
    pub mismatch: Option<f64>,
    /// Stress cycles the manufacturer spent on this die (0 outside the
    /// genuine/rejected-die provisioning flows and for intrinsic schemes).
    pub imprint_cycles: u64,
    /// Simulated manufacturing time of the imprint (seconds).
    pub imprint_sim_s: f64,
    /// Mean equivalent wear cycles of the inspected region after the
    /// verdict.
    pub wear_mean_cycles: f64,
    /// Whether the verdict matched the scenario's ground truth.
    pub expected: bool,
    /// NOR rows only: whether the pre-redesign concrete pipeline produced
    /// the identical verdict on identically-seeded chips.
    pub legacy_match: Option<bool>,
}
impl_to_json!(BackendRow {
    scheme,
    scenario,
    trial,
    verdict,
    reason,
    resolution,
    mismatch,
    imprint_cycles,
    imprint_sim_s,
    wear_mean_cycles,
    expected,
    legacy_match
});

impl ToJson for RecordVerdict {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// One (scenario, verdict, reason) count in a scheme's verdict mix.
#[derive(Debug, Clone)]
pub struct BackendMixRow {
    /// Scenario label.
    pub scenario: String,
    /// Verdict class.
    pub verdict: String,
    /// Reason label (empty for accepts).
    pub reason: String,
    /// Rows with this (scenario, verdict, reason).
    pub count: u64,
}
impl_to_json!(BackendMixRow {
    scenario,
    verdict,
    reason,
    count
});

/// Per-scheme aggregate of the campaign.
#[derive(Debug, Clone)]
pub struct BackendSchemeSummary {
    /// Scheme name.
    pub scheme: String,
    /// Whether the scheme has a physical imprint step.
    pub imprints: bool,
    /// Total rows for this scheme.
    pub trials: u64,
    /// Rows whose verdict matched the scenario's ground truth.
    pub expected_matches: u64,
    /// NOR only: rows where the legacy pipeline agreed.
    pub legacy_matches: Option<u64>,
    /// Mean mismatch over genuine rows (the scheme's operating-point BER).
    pub mean_genuine_mismatch: f64,
    /// Mean mismatch over blank + cloned rows where evidence compared.
    pub mean_counterfeit_mismatch: f64,
    /// `mean_counterfeit_mismatch - mean_genuine_mismatch`: how far a
    /// forgery lands from the genuine distribution.
    pub forgery_margin: f64,
    /// Stress cycles per genuine die.
    pub imprint_cycles: u64,
    /// Mean simulated imprint seconds per genuine die.
    pub imprint_sim_s: f64,
    /// Root digest of the scheme's sealed registry segment.
    pub registry_root: String,
    /// Records sealed for this scheme.
    pub registry_records: u64,
    /// Verdict mix per scenario.
    pub verdict_mix: Vec<BackendMixRow>,
}
impl_to_json!(BackendSchemeSummary {
    scheme,
    imprints,
    trials,
    expected_matches,
    legacy_matches,
    mean_genuine_mismatch,
    mean_counterfeit_mismatch,
    forgery_margin,
    imprint_cycles,
    imprint_sim_s,
    registry_root,
    registry_records,
    verdict_mix
});

/// The `backend_campaign.json` artifact.
#[derive(Debug, Clone)]
pub struct BackendCampaignData {
    /// Campaign seed.
    pub seed: u64,
    /// Trials per (scheme, scenario) cell.
    pub trials_per_scenario: u64,
    /// Scenario labels, in campaign order.
    pub scenarios: Vec<String>,
    /// Per-scheme aggregates, in campaign order.
    pub schemes: Vec<BackendSchemeSummary>,
    /// Every row, in trial order.
    pub rows: Vec<BackendRow>,
}
impl_to_json!(BackendCampaignData {
    seed,
    trials_per_scenario,
    scenarios,
    schemes,
    rows
});

/// One generic trial's measured outcome, before row labeling.
struct TrialOutcome {
    verdict: Verdict,
    resolution: &'static str,
    mismatch: Option<f64>,
    cycles: u64,
    sim_s: f64,
    wear: f64,
}

/// Runs one scenario through a scheme, written once against
/// [`WatermarkScheme`]. `mk(salt)` builds a chip whose identity derives
/// from the trial seed and `salt` (0 = the enrolled die, 1 = the
/// foreign/clone die); `clone_data` copies everything digitally readable
/// from the genuine die onto the clone.
fn run_scenario<S, MK, CL>(
    scheme: &S,
    params: &S::Params,
    scenario: Scenario,
    mut mk: MK,
    clone_data: CL,
) -> Result<TrialOutcome, SchemeError>
where
    S: WatermarkScheme,
    MK: FnMut(u64) -> S::Chip,
    CL: FnOnce(&mut S::Chip, &mut S::Chip) -> Result<(), SchemeError>,
{
    match scenario {
        Scenario::Genuine | Scenario::RejectedDie => {
            let mut die = mk(0);
            let (enrollment, cost) = provision(scheme, &mut die, params)?;
            let v = scheme.verify(&mut die, params, &enrollment)?;
            Ok(TrialOutcome {
                verdict: v.verdict,
                resolution: v.resolution,
                mismatch: v.mismatch,
                cycles: cost.cycles,
                sim_s: cost.elapsed.get(),
                wear: scheme.wear_estimate(&mut die, params),
            })
        }
        Scenario::Blank => {
            let mut reference = mk(0);
            let enrollment = scheme.enroll(&mut reference, params)?;
            let mut foreign = mk(1);
            let v = scheme.verify(&mut foreign, params, &enrollment)?;
            Ok(TrialOutcome {
                verdict: v.verdict,
                resolution: v.resolution,
                mismatch: v.mismatch,
                cycles: 0,
                sim_s: 0.0,
                wear: scheme.wear_estimate(&mut foreign, params),
            })
        }
        Scenario::Cloned => {
            let mut genuine = mk(0);
            let (enrollment, _) = provision(scheme, &mut genuine, params)?;
            let mut clone = mk(1);
            clone_data(&mut genuine, &mut clone)?;
            let v = scheme.verify(&mut clone, params, &enrollment)?;
            Ok(TrialOutcome {
                verdict: v.verdict,
                resolution: v.resolution,
                mismatch: v.mismatch,
                cycles: 0,
                sim_s: 0.0,
                wear: scheme.wear_estimate(&mut clone, params),
            })
        }
    }
}

/// Copies every readable word of `seg` from `src` onto `dst` — the
/// strongest digital-interface clone attack available against the
/// word-addressable backends.
fn clone_segment<F: FlashInterface>(
    src: &mut F,
    dst: &mut F,
    seg: SegmentAddr,
) -> Result<(), NorError> {
    let words = src.read_block(seg)?;
    dst.program_block(seg, &words)
}

/// The enrollment record each scenario publishes.
fn backend_record(scenario: Scenario) -> WatermarkRecord {
    WatermarkRecord {
        manufacturer_id: BACKEND_MANUFACTURER,
        die_id: 7,
        speed_grade: 2,
        status: if scenario == Scenario::RejectedDie {
            TestStatus::Reject
        } else {
            TestStatus::Accept
        },
        year_week: 2033,
    }
}

fn nor_chip(seed: u64, salt: u64) -> FlashController {
    FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(8),
        FlashTimings::msp430(),
        mix2(seed, salt),
    )
}

/// The legacy (pre-redesign) concrete-NOR verdict for the same scenario on
/// identically-seeded chips — the no-behavior-drift cross-check.
fn nor_legacy_verdict(
    params: &TpewParams,
    seed: u64,
    scenario: Scenario,
) -> Result<(Verdict, &'static str), SchemeError> {
    let verifier = Verifier::new(params.config.clone(), params.manufacturer_id);
    let report = match scenario {
        Scenario::Genuine | Scenario::RejectedDie => {
            let mut die = nor_chip(seed, 0);
            Imprinter::new(&params.config).imprint(
                &mut die,
                params.seg,
                &params.record.to_watermark(),
            )?;
            verifier.verify_resilient(&mut die, params.seg)?
        }
        Scenario::Blank => {
            let mut foreign = nor_chip(seed, 1);
            verifier.verify_resilient(&mut foreign, params.seg)?
        }
        Scenario::Cloned => {
            let mut genuine = nor_chip(seed, 0);
            Imprinter::new(&params.config).imprint(
                &mut genuine,
                params.seg,
                &params.record.to_watermark(),
            )?;
            let mut clone = nor_chip(seed, 1);
            clone_segment(&mut genuine, &mut clone, params.seg)?;
            verifier.verify_resilient(&mut clone, params.seg)?
        }
    };
    Ok((report.verdict, report.resolution.strategy()))
}

fn nor_trial(seed: u64, scenario: Scenario) -> Result<(TrialOutcome, Option<bool>), SchemeError> {
    let params = TpewParams {
        config: backend_config(),
        seg: SegmentAddr::new(0),
        manufacturer_id: BACKEND_MANUFACTURER,
        record: backend_record(scenario),
    };
    let out = run_scenario(
        &NOR_TPEW,
        &params,
        scenario,
        |salt| nor_chip(seed, salt),
        |src, dst| clone_segment(src, dst, SegmentAddr::new(0)).map_err(Into::into),
    )?;
    let (legacy_verdict, legacy_resolution) = nor_legacy_verdict(&params, seed, scenario)?;
    let matched = legacy_verdict == out.verdict && legacy_resolution == out.resolution;
    Ok((out, Some(matched)))
}

fn nand_trial(seed: u64, scenario: Scenario) -> Result<(TrialOutcome, Option<bool>), SchemeError> {
    let params = NandPufParams {
        block: BlockAddr::new(0),
        manufacturer_id: BACKEND_MANUFACTURER,
        record: backend_record(scenario),
    };
    let out = run_scenario(
        &NandPuf,
        &params,
        scenario,
        |salt| NandChip::new(NandGeometry::tiny(), mix2(seed, salt)),
        // The PUF carries no imprinted data a cloner could copy: the
        // strongest digital clone of an intrinsic fingerprint is simply a
        // foreign die presenting the genuine helper data.
        |_src, _dst| Ok(()),
    )?;
    Ok((out, None))
}

fn reram_trial(seed: u64, scenario: Scenario) -> Result<(TrialOutcome, Option<bool>), SchemeError> {
    let params = TpewParams {
        config: reram_config(),
        seg: SegmentAddr::new(0),
        manufacturer_id: BACKEND_MANUFACTURER,
        record: backend_record(scenario),
    };
    let out = run_scenario(
        &RERAM_FORMING,
        &params,
        scenario,
        |salt| {
            FlashController::new(
                reram_like(),
                FlashGeometry::single_bank(8),
                reram_timings(),
                mix2(seed, salt),
            )
        },
        |src, dst| clone_segment(src, dst, SegmentAddr::new(0)).map_err(Into::into),
    )?;
    Ok((out, None))
}

/// One trial of one backend: its outcome and, on NOR, the legacy match.
type BackendTrial = fn(u64, Scenario) -> Result<(TrialOutcome, Option<bool>), SchemeError>;

/// The campaign's schemes in campaign order: name (every row, summary and
/// registry record takes it from here), whether it imprints, and its
/// trial.
fn backends() -> [(&'static str, bool, BackendTrial); BACKEND_SCHEMES] {
    [
        (NOR_TPEW.name(), NOR_TPEW.imprints(), nor_trial),
        (NandPuf.name(), NandPuf.imprints(), nand_trial),
        (RERAM_FORMING.name(), RERAM_FORMING.imprints(), reram_trial),
    ]
}

/// Canonical one-line JSON of one scheme's operating point, embedded
/// into that scheme's registry records. NOR runs the paper's point,
/// ReRAM its calibrated forming point ([`reram_config`]), and the
/// intrinsic NAND PUF its enrollment knobs — there is no imprint
/// stress level to report.
#[must_use]
pub fn backend_params_line(scheme: &str, opts: &BackendCampaignOptions) -> String {
    let point = if scheme == NandPuf.name() {
        format!(
            "\"t_pp_us\":{},\"reads\":{},\"enroll_rounds\":{},\"cells_per_bit\":{}",
            T_PP.get(),
            READS,
            ENROLL_ROUNDS,
            CELLS_PER_BIT
        )
    } else {
        let c = if scheme == RERAM_FORMING.name() {
            reram_config()
        } else {
            backend_config()
        };
        format!(
            "\"n_pe\":{},\"replicas\":{},\"t_pew_us\":{}",
            c.n_pe(),
            c.replicas(),
            c.t_pew().get()
        )
    };
    format!(
        "{{{point},\"trials\":{},\"seed\":{}}}",
        opts.trials, opts.seed
    )
}

/// Seals one scheme's rows into a fresh provenance registry and returns
/// `(root digest hex, records)`.
fn seal_scheme_rows(
    scheme: &str,
    rows: &[&BackendRow],
    opts: &BackendCampaignOptions,
) -> (String, u64) {
    let params_line = backend_params_line(scheme, opts);
    let mut registry = Registry::new(RegistryOptions::default());
    for (i, row) in rows.iter().enumerate() {
        let mismatch = row
            .mismatch
            .map_or_else(|| "null".to_string(), |m| format!("{m}"));
        registry.append(Record {
            request_id: i as u64,
            chip_id: mix2(opts.seed, i as u64),
            class: row.scenario.clone(),
            scheme: scheme.to_string(),
            commit: BACKEND_COMMIT.to_string(),
            params: params_line.clone(),
            verdict: row.verdict,
            reason: row.reason.clone(),
            metrics: format!(
                "{{\"mismatch\":{mismatch},\"imprint_cycles\":{}}}",
                row.imprint_cycles
            ),
            ladder_depth: 0,
            retries: 0,
        });
    }
    (format!("{}", registry.root()), registry.len())
}

fn summarize_scheme(
    scheme: &str,
    imprints: bool,
    rows: &[&BackendRow],
    opts: &BackendCampaignOptions,
) -> BackendSchemeSummary {
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let genuine: Vec<f64> = rows
        .iter()
        .filter(|r| r.scenario == "genuine")
        .filter_map(|r| r.mismatch)
        .collect();
    let counterfeit: Vec<f64> = rows
        .iter()
        .filter(|r| r.scenario == "blank" || r.scenario == "cloned")
        .filter_map(|r| r.mismatch)
        .collect();
    let genuine_rows: Vec<&&BackendRow> = rows.iter().filter(|r| r.scenario == "genuine").collect();
    let imprint_cycles = genuine_rows.first().map_or(0, |r| r.imprint_cycles);
    let imprint_sim_s = mean(
        &genuine_rows
            .iter()
            .map(|r| r.imprint_sim_s)
            .collect::<Vec<_>>(),
    );
    let legacy: Vec<bool> = rows.iter().filter_map(|r| r.legacy_match).collect();
    // Verdict mix in deterministic (scenario, verdict, reason) order.
    let mut mix: Vec<BackendMixRow> = Vec::new();
    for row in rows {
        if let Some(m) = mix.iter_mut().find(|m| {
            m.scenario == row.scenario && m.verdict == row.verdict.name() && m.reason == row.reason
        }) {
            m.count += 1;
        } else {
            mix.push(BackendMixRow {
                scenario: row.scenario.clone(),
                verdict: row.verdict.name().to_string(),
                reason: row.reason.clone(),
                count: 1,
            });
        }
    }
    let (registry_root, registry_records) = seal_scheme_rows(scheme, rows, opts);
    let mean_genuine_mismatch = mean(&genuine);
    let mean_counterfeit_mismatch = mean(&counterfeit);
    BackendSchemeSummary {
        scheme: scheme.to_string(),
        imprints,
        trials: rows.len() as u64,
        expected_matches: rows.iter().filter(|r| r.expected).count() as u64,
        legacy_matches: (!legacy.is_empty()).then(|| legacy.iter().filter(|&&m| m).count() as u64),
        mean_genuine_mismatch,
        mean_counterfeit_mismatch,
        forgery_margin: mean_counterfeit_mismatch - mean_genuine_mismatch,
        imprint_cycles,
        imprint_sim_s,
        registry_root,
        registry_records,
        verdict_mix: mix,
    }
}

/// Runs the full differential campaign and assembles the artifact.
///
/// # Errors
///
/// The first backend error any trial hit (campaign trials run on healthy
/// simulated chips, so errors indicate a harness bug, not a verdict).
pub fn run_backend_campaign(
    opts: &BackendCampaignOptions,
) -> Result<BackendCampaignData, SchemeError> {
    let per = opts.trials.max(1);
    let cell = Scenario::ALL.len() * per;
    let total = BACKEND_SCHEMES * cell;
    let runner = flashmark_par::TrialRunner::with_threads(opts.seed, opts.threads);
    let results: Vec<Result<BackendRow, SchemeError>> = runner.run(total, |t| {
        let scheme_idx = t.index / cell;
        let rem = t.index % cell;
        let scenario = Scenario::ALL[rem / per];
        let trial = (rem % per) as u64;
        let (name, _, trial_fn) = backends()[scheme_idx];
        let (out, legacy_match) = trial_fn(t.seed, scenario)?;
        let (verdict, reason) = map_verdict(out.verdict);
        Ok(BackendRow {
            scheme: name.to_string(),
            scenario: scenario.name().to_string(),
            trial,
            verdict,
            reason: reason.to_string(),
            resolution: out.resolution.to_string(),
            mismatch: out.mismatch,
            imprint_cycles: out.cycles,
            imprint_sim_s: out.sim_s,
            wear_mean_cycles: out.wear,
            expected: scenario.expects(&out.verdict),
            legacy_match,
        })
    });
    let mut rows = Vec::with_capacity(total);
    for r in results {
        rows.push(r?);
    }
    let schemes = backends()
        .into_iter()
        .map(|(name, imprints, _)| {
            let scheme_rows: Vec<&BackendRow> = rows.iter().filter(|r| r.scheme == name).collect();
            summarize_scheme(name, imprints, &scheme_rows, opts)
        })
        .collect();
    Ok(BackendCampaignData {
        seed: opts.seed,
        trials_per_scenario: per as u64,
        scenarios: Scenario::ALL.iter().map(|s| s.name().to_string()).collect(),
        schemes,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_covers_every_scheme_and_scenario() {
        let data = run_backend_campaign(&BackendCampaignOptions::tiny(1)).expect("campaign");
        assert_eq!(data.rows.len(), 12);
        assert_eq!(data.schemes.len(), 3);
        for s in &data.schemes {
            assert_eq!(s.trials, 4, "{}", s.scheme);
            assert_eq!(
                s.expected_matches, s.trials,
                "{}: every scenario must land its ground-truth verdict",
                s.scheme
            );
            assert!(
                s.forgery_margin > 0.05,
                "{}: clones must sit far from genuine mismatch (margin {})",
                s.scheme,
                s.forgery_margin
            );
            assert!(!s.registry_root.is_empty());
            assert_eq!(s.registry_records, s.trials);
        }
        let nor = &data.schemes[0];
        assert_eq!(
            nor.legacy_matches,
            Some(nor.trials),
            "NOR verdicts must match the pre-redesign pipeline exactly"
        );
        let nand = &data.schemes[1];
        assert!(!nand.imprints && nand.imprint_cycles == 0);
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let serial = run_backend_campaign(&BackendCampaignOptions::tiny(1)).expect("serial");
        let parallel = run_backend_campaign(&BackendCampaignOptions::tiny(8)).expect("parallel");
        assert_eq!(
            crate::json::ToJson::to_json(&serial).pretty(),
            crate::json::ToJson::to_json(&parallel).pretty()
        );
    }

    #[test]
    fn scenario_expectations() {
        assert!(Scenario::Genuine.expects(&Verdict::Genuine));
        assert!(!Scenario::Genuine.expects(&Verdict::Counterfeit(CounterfeitReason::NoWatermark)));
        assert!(Scenario::Blank.expects(&Verdict::Counterfeit(CounterfeitReason::NoWatermark)));
        assert!(
            Scenario::RejectedDie.expects(&Verdict::Counterfeit(CounterfeitReason::RejectedDie))
        );
        assert!(!Scenario::Cloned.expects(&Verdict::Genuine));
    }
}
