//! Differential fault-injection campaign: golden vs faulted verification
//! over a grid of fault classes and rates.
//!
//! Every trial manufactures the *same* chip twice (same seed): once
//! verified fault-free (the golden run), once verified through a
//! `FaultyFlash<SanitizedFlash<FlashController>>` stack injecting one fault
//! class from the grid. The campaign reports, per (scenario × fault class)
//! cell, how verdicts moved and how far the extracted bits drifted
//! (BER vs the golden extraction) — and enforces the two invariants the
//! fault layer is built around:
//!
//! * **no fault schedule may ever flip a reject into an accept** — faults
//!   can cost a conclusive verdict, never hand out a false Genuine;
//! * **wear stays monotone under every injected fault** — the sanitizer's
//!   wear probe runs inside the faulted stack and must never record a
//!   [`ViolationKind::WearDecrease`].
//!
//! The trials run once, each under its own obs [`Collector`], so the same
//! run also yields the instrumented aggregate behind
//! `results/obs_report.json` ([`ObsCampaignData`]).
//!
//! Everything is a pure function of `(campaign seed, trial index)`, so both
//! artifacts are byte-identical at any `--threads` count.

use flashmark_core::{
    CoreError, FlashmarkConfig, Imprinter, TestStatus, Verdict, VerificationReport, Verifier,
    WatermarkRecord,
};
use flashmark_fault::{FaultPlan, FaultyFlash};
use flashmark_nor::{FlashController, SegmentAddr};
use flashmark_obs::{collect, Collector, DEFAULT_EVENT_CAPACITY};
use flashmark_par::TrialRunner;
use flashmark_physics::rng::mix2;
use flashmark_physics::Micros;
use flashmark_sanitizer::{SanitizedFlash, ViolationKind};

use crate::harness::test_chip;
use crate::impl_to_json;
use crate::observability::ObsCampaignData;
use crate::suite::Profile;

const N_PE: u64 = 80_000;
const REPLICAS: usize = 7;
const T_PEW_US: f64 = 28.0;
const SEG: SegmentAddr = SegmentAddr::new(0);

/// One fault class of the campaign grid: a named recipe for building a
/// [`FaultPlan`] at a given seed.
#[derive(Debug, Clone)]
pub struct FaultClass {
    /// Display name, e.g. `read_flips@1e-3`.
    pub name: &'static str,
    transients: Option<(f64, u32)>,
    power_loss: Option<(u64, f64)>,
    read_flips: Option<f64>,
    read_disturb: Option<f64>,
    jitter_us: Option<f64>,
}

impl FaultClass {
    const fn new(name: &'static str) -> Self {
        Self {
            name,
            transients: None,
            power_loss: None,
            read_flips: None,
            read_disturb: None,
            jitter_us: None,
        }
    }

    /// The class's concrete plan at `seed`.
    #[must_use]
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        if let Some((rate, burst)) = self.transients {
            plan = plan.with_transients(rate, burst);
        }
        if let Some((op, fraction)) = self.power_loss {
            plan = plan.with_power_loss(op, fraction);
        }
        if let Some(rate) = self.read_flips {
            plan = plan.with_read_flips(rate);
        }
        if let Some(rate) = self.read_disturb {
            plan = plan.with_read_disturb(rate);
        }
        if let Some(sigma) = self.jitter_us {
            plan = plan.with_t_pew_jitter(sigma);
        }
        plan
    }
}

/// The fault grid of a profile. The `Smoke` grid keeps one representative
/// rate per class; `Full` sweeps each class over its rate range.
#[must_use]
pub fn fault_grid(profile: Profile) -> Vec<FaultClass> {
    let mut classes = Vec::new();
    let full = profile == Profile::Full;
    let transient = |name, rate| FaultClass {
        transients: Some((rate, 2)),
        ..FaultClass::new(name)
    };
    let power = |name, op, fraction| FaultClass {
        power_loss: Some((op, fraction)),
        ..FaultClass::new(name)
    };
    let flips = |name, rate| FaultClass {
        read_flips: Some(rate),
        ..FaultClass::new(name)
    };
    let disturb = |name, rate| FaultClass {
        read_disturb: Some(rate),
        ..FaultClass::new(name)
    };
    let jitter = |name, sigma| FaultClass {
        jitter_us: Some(sigma),
        ..FaultClass::new(name)
    };
    if full {
        classes.push(transient("transient@0.05", 0.05));
    }
    classes.push(transient("transient@0.2", 0.2));
    if full {
        classes.push(power("power_loss@op0", 0, 0.5));
    }
    classes.push(power("power_loss@op2", 2, 0.5));
    if full {
        classes.push(power("power_loss@op7", 7, 0.5));
        classes.push(flips("read_flips@1e-4", 1e-4));
    }
    classes.push(flips("read_flips@1e-3", 1e-3));
    if full {
        classes.push(flips("read_flips@1e-2", 1e-2));
        classes.push(disturb("read_disturb@1e-5", 1e-5));
    }
    classes.push(disturb("read_disturb@1e-4", 1e-4));
    if full {
        classes.push(jitter("jitter@1us", 1.0));
        classes.push(jitter("jitter@3us", 3.0));
    } else {
        classes.push(jitter("jitter@2us", 2.0));
    }
    classes.push(FaultClass {
        transients: Some((0.1, 2)),
        power_loss: Some((5, 0.5)),
        read_flips: Some(1e-3),
        read_disturb: Some(1e-5),
        jitter_us: Some(1.0),
        ..FaultClass::new("combined")
    });
    classes
}

/// Chip population the campaign verifies against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scenario {
    /// Imprinted ACCEPT die: the genuine population.
    Accept,
    /// Imprinted REJECT die: must never verify Genuine, faults or not.
    Reject,
    /// No watermark at all (counterfeit blank): same invariant.
    Blank,
}

const SCENARIOS: [Scenario; 3] = [Scenario::Accept, Scenario::Reject, Scenario::Blank];

impl Scenario {
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Self::Accept => "accept",
            Self::Reject => "reject",
            Self::Blank => "blank",
        }
    }
}

/// Independent trials of a profile's campaign.
#[must_use]
pub fn fault_campaign_trials(profile: Profile) -> usize {
    fault_grid(profile).len() * SCENARIOS.len() * trials_per_cell(profile)
}

/// The (scenario, fault class) of cell `cell`: scenario-major, then grid
/// order. Trial `i` belongs to cell `i / trials_per_cell(profile)`.
pub(crate) fn cell_of(grid: &[FaultClass], cell: usize) -> (Scenario, &FaultClass) {
    (SCENARIOS[cell / grid.len()], &grid[cell % grid.len()])
}

pub(crate) const fn trials_per_cell(profile: Profile) -> usize {
    match profile {
        Profile::Full => 4,
        Profile::Smoke => 2,
    }
}

/// One (scenario × fault class) cell of the campaign result.
#[derive(Debug, Clone)]
pub struct FaultCampaignRow {
    /// Scenario name (`accept` / `reject` / `blank`).
    pub scenario: &'static str,
    /// Fault class name from [`fault_grid`].
    pub fault_class: &'static str,
    /// Trials in this cell.
    pub trials: usize,
    /// Golden runs that verified Genuine.
    pub golden_genuine: usize,
    /// Faulted runs that verified Genuine.
    pub faulted_genuine: usize,
    /// Faulted Genuine where the golden verdict was not — MUST stay 0.
    pub reject_to_accept: usize,
    /// Golden Genuine lost to a Counterfeit verdict under faults.
    pub accept_to_reject: usize,
    /// Faulted runs that degraded to Inconclusive.
    pub inconclusive: usize,
    /// Fault events the plans actually injected across the cell.
    pub injected_events: usize,
    /// Sanitizer wear-decrease violations — MUST stay 0.
    pub wear_decreases: usize,
    /// Mean BER of faulted vs golden extracted bits (absent when no
    /// faulted run produced comparable bits).
    pub mean_ber_vs_golden: Option<f64>,
}
impl_to_json!(FaultCampaignRow {
    scenario,
    fault_class,
    trials,
    golden_genuine,
    faulted_genuine,
    reject_to_accept,
    accept_to_reject,
    inconclusive,
    injected_events,
    wear_decreases,
    mean_ber_vs_golden
});

/// The `results/fault_campaign.json` artifact.
#[derive(Debug, Clone)]
pub struct FaultCampaignData {
    /// Campaign seed all trial seeds derive from.
    pub seed: u64,
    /// Profile name (`full` / `smoke`).
    pub profile: &'static str,
    /// Imprint cycles.
    pub n_pe: u64,
    /// Watermark replicas.
    pub replicas: usize,
    /// Verification partial-erase time (µs).
    pub t_pew_us: f64,
    /// Trials per (scenario × fault class) cell.
    pub trials_per_cell: usize,
    /// One row per cell, scenario-major then grid order.
    pub rows: Vec<FaultCampaignRow>,
    /// Σ `reject_to_accept` — the campaign gate; MUST be 0.
    pub reject_to_accept_total: usize,
    /// Σ `wear_decreases` — the wear-monotonicity gate; MUST be 0.
    pub wear_decrease_total: usize,
}
impl_to_json!(FaultCampaignData {
    seed,
    profile,
    n_pe,
    replicas,
    t_pew_us,
    trials_per_cell,
    rows,
    reject_to_accept_total,
    wear_decrease_total
});

impl FaultCampaignData {
    /// Whether both campaign invariants held.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.reject_to_accept_total == 0 && self.wear_decrease_total == 0
    }
}

/// One trial's differential outcome.
#[derive(Debug, Clone)]
pub(crate) struct TrialOutcome {
    golden_genuine: bool,
    faulted_genuine: bool,
    faulted_inconclusive: bool,
    injected: usize,
    wear_decreases: usize,
    ber: Option<f64>,
}

fn config() -> Result<FlashmarkConfig, CoreError> {
    FlashmarkConfig::builder()
        .n_pe(N_PE)
        .replicas(REPLICAS)
        .t_pew(Micros::new(T_PEW_US))
        .build()
}

fn scenario_chip(seed: u64, scenario: Scenario) -> Result<FlashController, CoreError> {
    let mut chip = test_chip(seed);
    let status = match scenario {
        Scenario::Accept => TestStatus::Accept,
        Scenario::Reject => TestStatus::Reject,
        Scenario::Blank => return Ok(chip),
    };
    let record = WatermarkRecord {
        manufacturer_id: 0x7C01,
        die_id: 42,
        speed_grade: 2,
        status,
        year_week: 2004,
    };
    Imprinter::new(&config()?).imprint(&mut chip, SEG, &record.to_watermark())?;
    Ok(chip)
}

fn ber_between(golden: &VerificationReport, faulted: &VerificationReport) -> Option<f64> {
    let (a, b) = (golden.extraction.bits(), faulted.extraction.bits());
    if a.is_empty() || a.len() != b.len() {
        return None;
    }
    let errors = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    Some(errors as f64 / a.len() as f64)
}

pub(crate) fn run_trial(
    trial_seed: u64,
    scenario: Scenario,
    class: &FaultClass,
) -> Result<TrialOutcome, CoreError> {
    let cfg = config()?;
    let verifier = Verifier::new(cfg, 0x7C01);

    // Golden run: the exact chip, fault-free.
    let mut golden_chip = scenario_chip(trial_seed, scenario)?;
    let golden = verifier.verify_resilient(&mut golden_chip, SEG)?;

    // Faulted run: the same chip (same seed), behind the sanitized + faulty
    // stack. The plan seed folds in a salt so the fault stream is
    // decorrelated from the chip's own process variation.
    let chip = scenario_chip(trial_seed, scenario)?;
    let sanitized = SanitizedFlash::wrap_controller(chip);
    let mut faulty = FaultyFlash::new(sanitized, class.plan(mix2(trial_seed, 0xFA17)));
    let faulted = verifier.verify_resilient(&mut faulty, SEG)?;

    let injected = faulty.injected();
    let wear_decreases = faulty
        .inner()
        .violations()
        .iter()
        .filter(|v| matches!(v.kind, ViolationKind::WearDecrease { .. }))
        .count();

    Ok(TrialOutcome {
        golden_genuine: golden.verdict == Verdict::Genuine,
        faulted_genuine: faulted.verdict == Verdict::Genuine,
        faulted_inconclusive: matches!(faulted.verdict, Verdict::Inconclusive(_)),
        injected,
        wear_decreases,
        ber: ber_between(&golden, &faulted),
    })
}

/// A completed campaign: the fault artifact and the obs aggregate of the
/// same trials.
#[derive(Debug, Clone)]
pub struct FaultCampaignRun {
    /// The `fault_campaign.json` artifact.
    pub data: FaultCampaignData,
    /// The `obs_report.json` artifact.
    pub obs: ObsCampaignData,
}

/// Runs the campaign: `fault_campaign_trials(profile)` independent trials,
/// fanned out over the runner with a fresh collector (ring size
/// [`DEFAULT_EVENT_CAPACITY`]) around each, aggregated in trial order.
///
/// # Errors
///
/// Configuration or flash errors from any trial.
pub fn fault_campaign(
    runner: &TrialRunner,
    profile: Profile,
) -> Result<FaultCampaignRun, CoreError> {
    let grid = fault_grid(profile);
    let reps = trials_per_cell(profile);
    let cells = SCENARIOS.len() * grid.len();

    let (outcomes, collectors): (Vec<_>, Vec<_>) = runner
        .run(cells * reps, |trial| {
            let collector = Collector::with_capacity(trial.index as u64, DEFAULT_EVENT_CAPACITY);
            let (scenario, class) = cell_of(&grid, trial.index / reps);
            collect(collector, || run_trial(trial.seed, scenario, class))
        })
        .into_iter()
        .unzip();
    let obs = ObsCampaignData::from_collectors(runner.experiment_seed(), profile, &collectors);
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut rows = Vec::with_capacity(cells);
    for (cell, chunk) in outcomes.chunks(reps).enumerate() {
        let (scenario, class) = cell_of(&grid, cell);
        let bers: Vec<f64> = chunk.iter().filter_map(|o| o.ber).collect();
        rows.push(FaultCampaignRow {
            scenario: scenario.name(),
            fault_class: class.name,
            trials: chunk.len(),
            golden_genuine: chunk.iter().filter(|o| o.golden_genuine).count(),
            faulted_genuine: chunk.iter().filter(|o| o.faulted_genuine).count(),
            reject_to_accept: chunk
                .iter()
                .filter(|o| !o.golden_genuine && o.faulted_genuine)
                .count(),
            accept_to_reject: chunk
                .iter()
                .filter(|o| o.golden_genuine && !o.faulted_genuine && !o.faulted_inconclusive)
                .count(),
            inconclusive: chunk.iter().filter(|o| o.faulted_inconclusive).count(),
            injected_events: chunk.iter().map(|o| o.injected).sum(),
            wear_decreases: chunk.iter().map(|o| o.wear_decreases).sum(),
            mean_ber_vs_golden: if bers.is_empty() {
                None
            } else {
                Some(bers.iter().sum::<f64>() / bers.len() as f64)
            },
        });
    }

    let reject_to_accept_total = rows.iter().map(|r| r.reject_to_accept).sum();
    let wear_decrease_total = rows.iter().map(|r| r.wear_decreases).sum();
    let data = FaultCampaignData {
        seed: runner.experiment_seed(),
        profile: profile.name(),
        n_pe: N_PE,
        replicas: REPLICAS,
        t_pew_us: T_PEW_US,
        trials_per_cell: reps,
        rows,
        reject_to_accept_total,
        wear_decrease_total,
    };
    Ok(FaultCampaignRun { data, obs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_every_fault_class_in_both_profiles() {
        for profile in [Profile::Full, Profile::Smoke] {
            let grid = fault_grid(profile);
            assert!(grid.iter().any(|c| c.transients.is_some()));
            assert!(grid.iter().any(|c| c.power_loss.is_some()));
            assert!(grid.iter().any(|c| c.read_flips.is_some()));
            assert!(grid.iter().any(|c| c.read_disturb.is_some()));
            assert!(grid.iter().any(|c| c.jitter_us.is_some()));
            assert!(grid.iter().any(|c| c.name == "combined"));
        }
        assert!(fault_grid(Profile::Full).len() > fault_grid(Profile::Smoke).len());
    }

    #[test]
    fn smoke_campaign_upholds_the_invariants_at_any_thread_count() {
        let serial = fault_campaign(&TrialRunner::with_threads(42, 1), Profile::Smoke).unwrap();
        let data = &serial.data;
        assert!(
            data.invariants_hold(),
            "reject→accept flip or wear decrease"
        );
        assert_eq!(data.rows.len(), fault_grid(Profile::Smoke).len() * 3);
        // The genuine population survives faults: a decent fraction of
        // accept-scenario faulted runs still verify (the rest degrade to
        // Inconclusive, never to a silent wrong answer).
        let accept_faulted: usize = data
            .rows
            .iter()
            .filter(|r| r.scenario == "accept")
            .map(|r| r.faulted_genuine + r.inconclusive)
            .sum();
        assert!(accept_faulted > 0);

        // Both artifacts, the fault rows and the obs aggregate.
        let parallel = fault_campaign(&TrialRunner::with_threads(42, 8), Profile::Smoke).unwrap();
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "campaign must be byte-identical across thread counts"
        );
    }
}
