//! Fault classes × protocol sanitizer: each injected fault class maps to
//! the expected sanitizer observation, wear stays monotone under every
//! fault, and a clean (golden-plan) run produces no violations at all.
//!
//! The stack under test is `FaultyFlash<SanitizedFlash<FlashController>>`:
//! faults are injected *above* the sanitizer, so the sanitizer observes the
//! faulted command stream exactly as the device would.

use flashmark_core::{FlashmarkConfig, Imprinter, TestStatus, Verdict, Verifier, WatermarkRecord};
use flashmark_fault::{FaultPlan, FaultyFlash};
use flashmark_nor::interface::FlashInterface;
use flashmark_nor::{FlashController, FlashGeometry, FlashTimings, SegmentAddr};
use flashmark_physics::PhysicsParams;
use flashmark_sanitizer::{SanitizedFlash, Violation, ViolationKind};

const MFG: u16 = 0x7C01;
const SEG: SegmentAddr = SegmentAddr::new(0);
const WARM_SEG: SegmentAddr = SegmentAddr::new(1);

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
        die_id: 7,
        speed_grade: 2,
        status,
        year_week: 2004,
    };
    Imprinter::new(&config())
        .imprint(&mut chip, SEG, &record.to_watermark())
        .unwrap();
    chip
}

/// Runs a resilient verification of an imprinted chip through the faulted,
/// sanitized stack and returns the verdict plus collected violations. A
/// warm-up erase on a scratch segment is issued first (operation index 0)
/// so violation backtraces have preceding events to capture.
fn run(seed: u64, status: TestStatus, plan: FaultPlan) -> (Verdict, Vec<Violation>) {
    let sanitized = SanitizedFlash::wrap_controller(imprinted_chip(seed, status));
    let mut faulty = FaultyFlash::new(sanitized, plan);
    let _ = faulty.erase_segment(WARM_SEG);
    let report = Verifier::new(config(), MFG)
        .verify_resilient(&mut faulty, SEG)
        .unwrap();
    let violations = faulty.into_inner().take_violations();
    (report.verdict, violations)
}

fn wear_decreases(violations: &[Violation]) -> usize {
    violations
        .iter()
        .filter(|v| matches!(v.kind, ViolationKind::WearDecrease { .. }))
        .count()
}

#[test]
fn clean_run_negative_suite() {
    // Golden plan: the whole imprint-free verification flow is
    // protocol-clean and the wear probe never observes a decrease.
    let (verdict, violations) = run(500, TestStatus::Accept, FaultPlan::golden(1));
    assert_eq!(verdict, Verdict::Genuine);
    assert!(
        violations.is_empty(),
        "clean run must produce no violations, got: {violations:?}"
    );
}

#[test]
fn power_loss_during_erase_maps_to_partial_erase_order() {
    // Op 0 is the warm-up erase; op 1 is the extraction's segment erase.
    // Power loss there reaches the device as a fractional erase pulse,
    // which the sanitizer must flag as a partial erase out of protocol
    // order — and nothing else.
    let plan = FaultPlan::new(2).with_power_loss(1, 0.5);
    let (verdict, violations) = run(501, TestStatus::Accept, plan);
    assert_eq!(
        verdict,
        Verdict::Genuine,
        "one brown-out must not cost a genuine chip its verdict"
    );
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert!(matches!(
        violations[0].kind,
        ViolationKind::PartialEraseOrder { .. }
    ));
    assert_eq!(violations[0].op, "partial_erase");
}

#[test]
fn power_loss_violation_carries_a_backtrace() {
    let plan = FaultPlan::new(3).with_power_loss(1, 0.5);
    let (_, violations) = run(502, TestStatus::Accept, plan);
    assert_eq!(violations.len(), 1);
    assert!(
        !violations[0].backtrace.is_empty(),
        "the violation must carry the preceding flash events"
    );
}

#[test]
fn transient_naks_never_reach_the_device() {
    // NAKs abort the command above the sanitizer: no protocol violation.
    let plan = FaultPlan::new(4).with_transients(0.25, 2);
    let (verdict, violations) = run(503, TestStatus::Accept, plan);
    assert!(
        violations.is_empty(),
        "NAKed commands must not appear as protocol violations: {violations:?}"
    );
    assert_ne!(
        verdict,
        Verdict::Counterfeit(flashmark_core::CounterfeitReason::NoWatermark),
        "interface flakiness must not fabricate a no-watermark verdict"
    );
}

#[test]
fn read_faults_produce_no_protocol_violations() {
    for plan in [
        FaultPlan::new(5).with_read_flips(1e-2),
        FaultPlan::new(6).with_read_disturb(1e-4),
        FaultPlan::new(7).with_t_pew_jitter(2.0),
    ] {
        let (_, violations) = run(504, TestStatus::Accept, plan);
        assert!(
            violations.is_empty(),
            "read-path faults never touch the array: {violations:?}"
        );
    }
}

#[test]
fn wear_stays_monotone_under_every_fault_class() {
    // The sanitizer's wear probe (installed by `wrap_controller`) checks
    // mean wear after every operation; no injected fault may ever make it
    // decrease — wear is the one-way physical quantity the whole scheme
    // rests on.
    let plans = [
        FaultPlan::golden(10),
        FaultPlan::new(11).with_transients(0.3, 2),
        FaultPlan::new(12).with_power_loss(1, 0.5),
        FaultPlan::new(13).with_read_flips(1e-2),
        FaultPlan::new(14).with_read_disturb(1e-4),
        FaultPlan::new(15).with_t_pew_jitter(3.0),
        FaultPlan::new(16)
            .with_transients(0.1, 2)
            .with_read_flips(1e-3)
            .with_read_disturb(1e-5)
            .with_t_pew_jitter(1.5)
            .with_power_loss(4, 0.3),
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        for status in [TestStatus::Accept, TestStatus::Reject] {
            let (verdict, violations) = run(600 + i as u64, status, plan.clone());
            assert_eq!(
                wear_decreases(&violations),
                0,
                "fault plan {i} made wear decrease"
            );
            if status == TestStatus::Reject {
                assert_ne!(
                    verdict,
                    Verdict::Genuine,
                    "fault plan {i} flipped a reject into an accept"
                );
            }
        }
    }
}
