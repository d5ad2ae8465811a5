//! The reference Flashmark flows are flash-protocol clean: imprinting,
//! extraction, and characterization run under the sanitizer without a
//! single violation, and return the same values as unsanitized runs.

use flashmark_core::{
    characterize_segment, run_sanitized, Extractor, FlashmarkConfig, Imprinter, SweepSpec,
    Watermark,
};
use flashmark_nor::{
    FlashController, FlashGeometry, FlashInterface, FlashTimings, SegmentAddr, WordAddr,
};
use flashmark_physics::{Micros, PhysicsParams};
use flashmark_sanitizer::ViolationKind;

fn flash(seed: u64) -> FlashController {
    FlashController::new(
        PhysicsParams::msp430_like(),
        FlashGeometry::single_bank(8),
        FlashTimings::msp430(),
        seed,
    )
}

fn cfg(n_pe: u64) -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(n_pe)
        .replicas(3)
        .t_pew(Micros::new(28.0))
        .build()
        .unwrap()
}

#[test]
fn imprint_then_extract_is_protocol_clean() {
    let mut f = flash(101);
    let config = cfg(60_000);
    let wm = Watermark::from_ascii("OK").unwrap();
    let seg = SegmentAddr::new(0);

    let (imprinted, violations) =
        run_sanitized(&mut f, |f| Imprinter::new(&config).imprint(f, seg, &wm));
    assert!(
        violations.is_empty(),
        "imprint violated the protocol: {violations:?}"
    );
    assert_eq!(imprinted.unwrap().cycles, 60_000);

    let (extracted, violations) = run_sanitized(&mut f, |f| {
        Extractor::new(&config).extract(f, seg, wm.len())
    });
    assert!(
        violations.is_empty(),
        "extract violated the protocol: {violations:?}"
    );
    assert_eq!(extracted.unwrap().bits(), wm.bits());
}

#[test]
fn cycle_faithful_imprint_is_protocol_clean() {
    let mut f = flash(102);
    let config = cfg(60);
    let wm = Watermark::from_ascii("C").unwrap();
    let (report, violations) = run_sanitized(&mut f, |f| {
        Imprinter::new(&config).imprint_via_cycles(f, SegmentAddr::new(1), &wm)
    });
    assert!(
        violations.is_empty(),
        "cycle loop violated the protocol: {violations:?}"
    );
    assert_eq!(report.unwrap().cycles, 60);
}

#[test]
fn characterization_sweep_is_protocol_clean() {
    let mut f = flash(103);
    let (curve, violations) = run_sanitized(&mut f, |f| {
        characterize_segment(f, SegmentAddr::new(2), &SweepSpec::fig4(), 3)
    });
    assert!(
        violations.is_empty(),
        "sweep violated the protocol: {violations:?}"
    );
    assert!(!curve.unwrap().points.is_empty());
}

#[test]
fn sanitized_extraction_matches_unsanitized() {
    let config = cfg(60_000);
    let wm = Watermark::from_ascii("EQ").unwrap();
    let seg = SegmentAddr::new(0);

    let mut a = flash(104);
    Imprinter::new(&config).imprint(&mut a, seg, &wm).unwrap();
    let plain = Extractor::new(&config)
        .extract(&mut a, seg, wm.len())
        .unwrap();

    let mut b = flash(104);
    Imprinter::new(&config).imprint(&mut b, seg, &wm).unwrap();
    let (sanitized, _) = run_sanitized(&mut b, |f| {
        Extractor::new(&config).extract(f, seg, wm.len())
    });

    assert_eq!(
        sanitized.unwrap().bits(),
        plain.bits(),
        "sanitizer must not change behavior"
    );
}

#[test]
fn run_sanitized_reports_injected_violations() {
    let mut f = flash(105);
    let w = WordAddr::new(0);
    let (result, violations) = run_sanitized(&mut f, |flash| {
        flash.erase_segment(SegmentAddr::new(0))?;
        flash.program_word(w, 0x1111)?;
        flash.program_word(w, 0x2222) // overprogram
    });
    result.unwrap();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].kind, ViolationKind::Overprogram { word: w });
    assert!(!violations[0].backtrace.is_empty());
}
