//! The umbrella-crate sanitizer facade works as documented in the README:
//! wrapping a device model, catching a protocol fault, and running the
//! sanitized core entry points end to end.

use flashmark::core::{run_sanitized, Extractor, FlashmarkConfig, Imprinter, Watermark};
use flashmark::msp430::Msp430Flash;
use flashmark::nor::{FlashInterface, NorError, SegmentAddr};
use flashmark::physics::Micros;
use flashmark::sanitizer::{SanitizedFlash, ViolationKind};

/// The README's sanitizer example, verbatim in spirit.
#[test]
fn readme_sanitizer_example_works() -> Result<(), NorError> {
    let mut flash = SanitizedFlash::new(Msp430Flash::f5438(7));

    let seg = SegmentAddr::new(0);
    flash.erase_segment(seg)?;
    flash.partial_erase(seg, Micros::new(20.0))?; // missing program_all_zero!
    assert!(!flash.is_clean());
    let v = &flash.violations()[0];
    assert!(matches!(v.kind, ViolationKind::PartialEraseOrder { .. }));
    assert!(!v.backtrace.is_empty());
    Ok(())
}

#[test]
fn device_level_imprint_extract_is_protocol_clean() {
    let mut chip = Msp430Flash::f5438(0xC0FFEE);
    let seg = chip.watermark_segment();
    let config = FlashmarkConfig::builder()
        .n_pe(60_000)
        .replicas(3)
        .build()
        .unwrap();
    let wm = Watermark::from_ascii("TC").unwrap();

    let (imprinted, violations) =
        run_sanitized(&mut chip, |f| Imprinter::new(&config).imprint(f, seg, &wm));
    imprinted.unwrap();
    assert!(violations.is_empty(), "imprint violations: {violations:?}");

    let (extracted, violations) = run_sanitized(&mut chip, |f| {
        Extractor::new(&config).extract(f, seg, wm.len())
    });
    assert!(violations.is_empty(), "extract violations: {violations:?}");
    assert_eq!(extracted.unwrap().bits(), wm.bits());
}
