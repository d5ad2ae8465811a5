//! Dynamic-sanitizer check of a ReRAM part: the full Flashmark procedure
//! (forming imprint, extraction, resilient verification) driven through
//! `SanitizedFlash` must produce zero protocol violations, wear
//! monotonicity included — the forming part honors the same interface
//! contract a NOR part does.

use flashmark_core::config::FlashmarkConfig;
use flashmark_core::verify::{Verdict, Verifier};
use flashmark_core::watermark::{TestStatus, WatermarkRecord};
use flashmark_core::Imprinter;
use flashmark_nor::{FlashController, FlashGeometry, SegmentAddr};
use flashmark_physics::Micros;
use flashmark_reram::{reram_like, reram_timings};
use flashmark_sanitizer::SanitizedFlash;

fn config() -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(60_000)
        .replicas(7)
        .t_pew(Micros::new(28.0))
        .build()
        .unwrap()
}

fn sanitized(seed: u64) -> SanitizedFlash<FlashController> {
    SanitizedFlash::wrap_controller(FlashController::new(
        reram_like(),
        FlashGeometry::single_bank(8),
        reram_timings(),
        seed,
    ))
}

#[test]
fn full_reram_flow_is_sanitizer_clean() {
    let config = config();
    let seg = SegmentAddr::new(0);
    let record = WatermarkRecord {
        manufacturer_id: 0x1001,
        die_id: 9,
        speed_grade: 1,
        status: TestStatus::Accept,
        year_week: 2033,
    };
    let mut sanitized = sanitized(0x5A11);

    Imprinter::new(&config)
        .imprint(&mut sanitized, seg, &record.to_watermark())
        .unwrap();
    let report = Verifier::new(config, record.manufacturer_id)
        .verify_resilient(&mut sanitized, seg)
        .unwrap();

    assert_eq!(report.verdict, Verdict::Genuine);
    assert!(
        sanitized.is_clean(),
        "violations: {:?}",
        sanitized.violations()
    );
}

#[test]
fn blank_reram_inspection_is_sanitizer_clean() {
    let mut sanitized = sanitized(0x5A12);
    let report = Verifier::new(config(), 0x1001)
        .verify_resilient(&mut sanitized, SegmentAddr::new(0))
        .unwrap();
    assert!(matches!(report.verdict, Verdict::Counterfeit(_)));
    assert!(
        sanitized.is_clean(),
        "violations: {:?}",
        sanitized.violations()
    );
}
