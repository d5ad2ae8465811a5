//! Cross-crate integration: the full Flashmark pipeline from physics to
//! incoming inspection.

use flashmark::core::{
    Extractor, FlashmarkConfig, Imprinter, TestStatus, Verdict, Verifier, Watermark,
    WatermarkRecord,
};
use flashmark::msp430::{Msp430Flash, Msp430Variant};
use flashmark::nor::interface::FlashInterface;
use flashmark::nor::SegmentAddr;
use flashmark::physics::Micros;
use flashmark::registry::RecordVerdict;
use flashmark::serve::{class, PopulationSpec, ServiceConfig, VerificationService, VerifyRequest};
use flashmark::supply::Manufacturer;

fn config() -> FlashmarkConfig {
    FlashmarkConfig::builder()
        .n_pe(80_000)
        .replicas(7)
        .t_pew(Micros::new(28.0))
        .build()
        .unwrap()
}

#[test]
fn imprint_extract_roundtrip_on_msp430() {
    let mut chip = Msp430Flash::f5438(0x333);
    let seg = chip.watermark_segment();
    let cfg = config();
    let wm = Watermark::from_ascii("FLASHMARK-DAC20").unwrap();
    Imprinter::new(&cfg).imprint(&mut chip, seg, &wm).unwrap();
    let e = Extractor::new(&cfg)
        .extract(&mut chip, seg, wm.len())
        .unwrap();
    assert_eq!(e.bits(), wm.bits());
}

#[test]
fn roundtrip_works_on_both_device_variants() {
    for variant in [Msp430Variant::F5438, Msp430Variant::F5529] {
        let mut chip = Msp430Flash::new(variant, 0xAB1E);
        let seg = chip.watermark_segment();
        let cfg = config();
        let wm = Watermark::from_ascii("V").unwrap();
        Imprinter::new(&cfg).imprint(&mut chip, seg, &wm).unwrap();
        let e = Extractor::new(&cfg)
            .extract(&mut chip, seg, wm.len())
            .unwrap();
        assert_eq!(e.bits(), wm.bits(), "variant {variant:?}");
    }
}

#[test]
fn record_roundtrip_through_manufacturer_and_verifier() {
    let cfg = config();
    let mut fab = Manufacturer::new(0x7C01, Msp430Variant::F5438, cfg.clone());
    let mut chip = fab.produce(0x1234, TestStatus::Accept).unwrap();
    let verifier = Verifier::new(cfg, 0x7C01);
    let seg = chip.flash.watermark_segment();
    let report = verifier.verify(&mut chip.flash, seg).unwrap();
    assert_eq!(report.verdict, Verdict::Genuine);
    let record = report.record.unwrap();
    assert_eq!(record.manufacturer_id, 0x7C01);
    assert_eq!(record.status, TestStatus::Accept);
}

#[test]
fn watermark_survives_decade_of_storage() {
    // Retention drains stored charge but not wear; extraction reprograms
    // the segment anyway, so a 10-year shelf (or 1000 h at 85 °C) changes
    // nothing.
    let mut chip = Msp430Flash::f5438(0xBA3E);
    let seg = chip.watermark_segment();
    let cfg = config();
    let wm = Watermark::from_ascii("SHELF").unwrap();
    Imprinter::new(&cfg).imprint(&mut chip, seg, &wm).unwrap();

    chip.main_mut().array_mut().bake(10.0 * 8760.0, 25.0);
    chip.main_mut().array_mut().bake(1000.0, 85.0);

    let e = Extractor::new(&cfg)
        .extract(&mut chip, seg, wm.len())
        .unwrap();
    assert_eq!(e.bits(), wm.bits());
}

#[test]
fn extraction_does_not_need_the_content() {
    // The verifier knows only lengths and the window — never the payload.
    // (A raw single-shot extraction may carry a stray bit error; the
    // verifier's window-retry + CRC repair is the production path.)
    let cfg = config();
    let mut fab = Manufacturer::new(0x7C01, Msp430Variant::F5438, cfg.clone());
    let mut chip = fab.produce(0x777, TestStatus::Accept).unwrap();
    let seg = chip.flash.watermark_segment();

    let e = Extractor::new(&cfg)
        .extract(
            &mut chip.flash,
            seg,
            flashmark::core::watermark::RECORD_BITS,
        )
        .unwrap();
    let blind = WatermarkRecord::from_watermark(&e.to_watermark().unwrap());
    let expected = WatermarkRecord {
        manufacturer_id: 0x7C01,
        die_id: 1,
        speed_grade: 3,
        status: TestStatus::Accept,
        year_week: 2004,
    };
    if let Ok(r) = blind {
        assert_eq!(r, expected, "blind extraction decoded a different record");
    }

    let report = Verifier::new(cfg, 0x7C01)
        .verify(&mut chip.flash, seg)
        .unwrap();
    assert_eq!(report.record, Some(expected));
}

#[test]
fn genuine_lot_passes_probed_inspection() {
    // Eight genuine dies, each inspected eight times with a recycled-wear
    // probe on every request: no probe placement may reject a fresh part.
    let cfg = config();
    let spec = PopulationSpec {
        genuine: 8,
        fallout: 0,
        recycled: 0,
        clones: 0,
        rebranded: 0,
        ..PopulationSpec::tiny(0xA000)
    };
    let population = spec.build(&cfg, 0x7C01).unwrap();
    let mut service =
        VerificationService::new(population, ServiceConfig::new(cfg, 0x7C01, 0xA000)).unwrap();
    let batch: Vec<VerifyRequest> = (0..64u64)
        .map(|i| VerifyRequest {
            request_id: i,
            chip_id: i % 8,
            probe: true,
        })
        .collect();
    let stats = service.process_batch(&batch, 1).unwrap().stats;
    let accepted = stats.verdicts(class::GENUINE, RecordVerdict::Accept);
    assert_eq!(
        accepted,
        64,
        "{:?}",
        stats.verdict_mix().collect::<Vec<_>>()
    );
}

#[test]
fn watermark_segment_is_out_of_code_range() {
    let chip = Msp430Flash::f5438(1);
    let seg = chip.watermark_segment();
    assert_eq!(seg, SegmentAddr::new(chip.geometry().total_segments() - 1));
}
