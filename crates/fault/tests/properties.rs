//! Property-based tests of the fault layer's two load-bearing guarantees:
//! the schedule is a pure function of `(seed, op_index)` — identical across
//! thread counts and sampling orders — and no fault plan, whatever its
//! rates, can flip a REJECT die into a Genuine verdict.

use proptest::prelude::*;

use flashmark_core::{FlashmarkConfig, Imprinter, TestStatus, Verdict, Verifier, WatermarkRecord};
use flashmark_fault::{FaultPlan, FaultyFlash};
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_obs::{collect, Collector};
use flashmark_par::TrialRunner;
use flashmark_physics::PhysicsParams;

const MFG: u16 = 0x7C01;
const SEG: SegmentAddr = SegmentAddr::new(0);

fn config() -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(80_000)
        .replicas(7)
        .build()
        .unwrap()
}

fn imprinted_chip(seed: u64, status: TestStatus) -> FlashController {
    let mut chip = FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(4),
        FlashTimings::msp430(),
        seed,
    );
    let record = WatermarkRecord {
        manufacturer_id: MFG,
        die_id: 3,
        speed_grade: 1,
        status,
        year_week: 2004,
    };
    Imprinter::new(&config())
        .imprint(&mut chip, SEG, &record.to_watermark())
        .unwrap();
    chip
}

/// Samples every fault channel of a plan over `ops` operation indices into
/// one comparable digest. Covers transients (with and without a consecutive
/// streak), power loss, both per-word mask channels, and jitter.
fn op_digest(plan: &FaultPlan, op: u64) -> Vec<u64> {
    let mut digest = vec![
        u64::from(plan.transient_at(op, 0)),
        u64::from(plan.transient_at(op, 1)),
        plan.power_loss_at(op).map_or(0, f64::to_bits),
    ];
    for word in [0u32, 7, 255] {
        digest.push(u64::from(plan.read_flip_mask(op, word)));
        digest.push(u64::from(plan.disturb_mask(op, word, 40)));
    }
    digest.push(plan.jitter_at(op).to_bits());
    digest
}

fn schedule_digest(plan: &FaultPlan, ops: u64) -> Vec<u64> {
    (0..ops).flat_map(|op| op_digest(plan, op)).collect()
}

fn full_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_transients(0.1, 2)
        .with_power_loss(3, 0.5)
        .with_read_flips(1e-3)
        .with_read_disturb(1e-5)
        .with_t_pew_jitter(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ byte-identical fault schedule, sampled forwards,
    /// backwards, or with interleaved redundant queries: the schedule is a
    /// pure function, not a stream.
    #[test]
    fn schedule_is_order_independent(seed in any::<u64>(), ops in 4u64..64) {
        let plan = full_plan(seed);
        let forward = schedule_digest(&plan, ops);
        // Re-sample in reverse, with extra interleaved queries that would
        // desynchronize any internal stream state.
        let mut reversed = Vec::new();
        for op in (0..ops).rev() {
            let _ = plan.read_flip_mask(op.wrapping_add(1000), 3);
            reversed.push(op_digest(&plan, op));
        }
        reversed.reverse();
        let flattened: Vec<u64> = reversed.into_iter().flatten().collect();
        prop_assert_eq!(forward, flattened);
    }

    /// Different seeds decorrelate every channel.
    #[test]
    fn seeds_decorrelate_schedules(seed in any::<u64>()) {
        let a = schedule_digest(&full_plan(seed), 64);
        let b = schedule_digest(&full_plan(seed.wrapping_add(1)), 64);
        prop_assert_ne!(a, b);
    }

    /// The schedule digest computed inside a parallel [`TrialRunner`]
    /// fan-out is bit-identical to the serial run — no fault decision may
    /// leak scheduling order.
    #[test]
    fn schedule_identical_across_thread_counts(experiment_seed in any::<u64>()) {
        let sample = |t: flashmark_par::Trial| schedule_digest(&full_plan(t.seed), 24);
        let serial = TrialRunner::with_threads(experiment_seed, 1).run(12, sample);
        let parallel = TrialRunner::with_threads(experiment_seed, 8).run(12, sample);
        prop_assert_eq!(serial, parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE invariant: whatever bounded fault plan is injected, a die
    /// imprinted REJECT never verifies Genuine. Faults may cost us a
    /// conclusive verdict (Inconclusive) — never hand out a false accept.
    #[test]
    fn no_fault_plan_flips_reject_to_accept(
        chip_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        transient_rate in 0.0f64..0.3,
        read_flip_rate in 0.0f64..1e-2,
        disturb_rate in 0.0f64..1e-4,
        jitter_us in 0.0f64..3.0,
        power_loss_op in 0u64..10,
        power_loss_fraction in 0.0f64..0.9,
    ) {
        let mut plan = FaultPlan::new(plan_seed)
            .with_transients(transient_rate, 2)
            .with_read_flips(read_flip_rate)
            .with_read_disturb(disturb_rate)
            .with_t_pew_jitter(jitter_us);
        // A fraction below 0.1 stands in for "no power loss scheduled".
        if power_loss_fraction >= 0.1 {
            plan = plan.with_power_loss(power_loss_op, power_loss_fraction);
        }
        let chip = imprinted_chip(chip_seed, TestStatus::Reject);
        let mut faulty = FaultyFlash::new(chip, plan);
        let report = Verifier::new(config(), MFG)
            .verify_resilient(&mut faulty, SEG)
            .unwrap();
        prop_assert_ne!(
            report.verdict,
            Verdict::Genuine,
            "a fault schedule flipped a reject into an accept"
        );
    }

    /// Replaying the same (chip seed, plan) pair is byte-identical: same
    /// verdict, same obs timeline (fault firings included) — the whole
    /// faulted verification is a pure function of its seeds.
    #[test]
    fn faulted_verification_replays_identically(chip_seed in any::<u64>(), plan_seed in any::<u64>()) {
        let run = || {
            let chip = imprinted_chip(chip_seed, TestStatus::Accept);
            let mut faulty = FaultyFlash::new(chip, full_plan(plan_seed));
            let (report, timeline) = collect(Collector::new(0), || {
                Verifier::new(config(), MFG).verify_resilient(&mut faulty, SEG)
            });
            let events: Vec<_> = timeline.events().collect();
            (report.unwrap().verdict, timeline.ops(), format!("{events:?}"))
        };
        prop_assert_eq!(run(), run());
    }
}
